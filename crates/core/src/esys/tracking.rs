//! Per-thread write-tracking containers: the Listing 1 buffers that
//! remember which blocks each operation touched, and the preallocated
//! `new_blk` slots (Listing 1 lines 7–12 and 31–38).
//!
//! ## Single-writer arenas
//!
//! Each thread owns one [`ArenaSlot`]: [`BUF_GENS`] epoch buffers plus
//! the in-progress-operation context. The owner thread reads and
//! writes its slot with plain (non-atomic) accesses — no mutex, no
//! RMW — because exactly one other actor ever touches a slot, the
//! sealer (`EpochSys::seal`, from the persister's step, an inline
//! `advance` or `seal_quiescent`), and the epoch protocol gives it
//! *temporal* exclusion rather than mutual exclusion:
//!
//! * The owner writes generation `e % BUF_GENS` only while its
//!   announce slot carries `e` (validated by the Dekker handshake in
//!   [`EpochClock::register`](super::clock::EpochClock::register)).
//! * The sealer takes generation `e % BUF_GENS` only after a scan
//!   observed every announce slot at `EMPTY_EPOCH` or `≥ e+1` (the
//!   non-blocking `quiescent(e+1)`, the post-condition of
//!   `wait_for_stragglers(e+1)`) — so every owner of that generation
//!   has deregistered, and the Release store in `deregister` paired
//!   with the scan's SeqCst load makes the owner's plain writes
//!   happen-before the sealer's `mem::take`. Sealers serialize on the
//!   pipeline queue lock.
//! * Generation reuse (epoch `e+BUF_GENS` maps to the same index as
//!   `e`) cannot race the seal of `e`: the structural bound lets no
//!   advance open `e+BUF_GENS` until `e` is sealed.
//!
//! The op context cell is simpler still: only the owner ever touches it.
//!
//! A slot passes to the next thread that takes its id (see
//! [`PerThread`]); a generation the predecessor filled is sealed by the
//! rule above, whoever owns the slot by then.

use htm_sim::sync::Mutex;
use htm_sim::PerThread;
use nvm_sim::NvmAddr;
use persist_alloc::HDR_WORDS;
use std::cell::UnsafeCell;
use std::sync::atomic::Ordering;

use super::clock::EMPTY_EPOCH;
use super::facade::EpochSys;

/// Number of epoch buffer generations kept per thread. Epoch `x`'s buffer
/// is sealed once `x` is closed and quiescent, and reused at `x+4`, which
/// cannot open before that seal.
pub(super) const BUF_GENS: usize = 4;

/// The buffer-generation index epoch `epoch` maps to.
#[inline]
pub(super) fn gen_of(epoch: u64) -> usize {
    (epoch % BUF_GENS as u64) as usize
}

/// The word address of payload word `idx` of block `blk`.
#[inline]
pub fn payload(blk: NvmAddr, idx: u64) -> NvmAddr {
    blk.offset(HDR_WORDS + idx)
}

/// One epoch's tracked writes and retirements for one thread.
#[derive(Default)]
pub(super) struct EpochBuf {
    /// Tracked blocks, in tracking order (duplicates included).
    pub(super) persist: Vec<NvmAddr>,
    pub(super) retire: Vec<NvmAddr>,
}

/// The calling thread's in-progress-operation context.
pub(super) struct OpCtx {
    /// Epoch of the in-progress operation (EMPTY_EPOCH if none).
    pub(super) op_epoch: u64,
    /// Buffer lengths at `begin_op`, so `abort_op` can truncate.
    pub(super) persist_mark: usize,
    pub(super) retire_mark: usize,
}

impl Default for OpCtx {
    fn default() -> Self {
        Self {
            op_epoch: EMPTY_EPOCH,
            persist_mark: 0,
            retire_mark: 0,
        }
    }
}

/// One thread's tracking state: its buffer generations and op context.
#[derive(Default)]
struct ArenaSlot {
    bufs: [UnsafeCell<EpochBuf>; BUF_GENS],
    op: UnsafeCell<OpCtx>,
}

// SAFETY: `ArenaSlot` is shared across threads inside `ThreadArenas`,
// but the access protocol (module docs above) guarantees that every
// cell has at most one mutator at a time: the owner thread during its
// operations, the sealer only at quiesce. All cross-thread hand-off
// synchronizes through the announce slot's Release store / SeqCst scan.
unsafe impl Sync for ArenaSlot {}

/// All threads' [`ArenaSlot`]s.
#[derive(Default)]
pub(super) struct ThreadArenas {
    slots: PerThread<ArenaSlot>,
}

impl ThreadArenas {
    /// The calling thread's op context, mutably.
    ///
    /// # Safety
    ///
    /// Must be called from the owner thread only (enforced by
    /// [`PerThread::mine`]), and the returned reference must be dropped
    /// before any other call that borrows the same cell. The op cell is
    /// never touched by the sealer, so owner-thread discipline alone
    /// makes this exclusive.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(super) unsafe fn owner_op(&self) -> &mut OpCtx {
        &mut *self.slots.mine().op.get()
    }

    /// The calling thread's buffer for `epoch`'s generation, mutably.
    ///
    /// # Safety
    ///
    /// Owner thread only, reference dropped before any other borrow of
    /// the same cell, and — the load-bearing part — the calling thread
    /// must currently announce an epoch that prevents generation
    /// `gen_of(epoch)` from being sealed (i.e. its announce slot holds
    /// `epoch`, so `wait_for_stragglers(epoch + 1)` blocks on it).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(super) unsafe fn owner_buf(&self, epoch: u64) -> &mut EpochBuf {
        &mut *self.slots.mine().bufs[gen_of(epoch)].get()
    }

    /// Takes ownership of every thread's buffer for `epoch`'s
    /// generation, returning the merged persist and retire lists.
    ///
    /// Walks the slots of [`PerThread::iter`]: an id first handed out
    /// after the quiesce cannot have written this (closed) generation,
    /// and any thread that did write it deregistered before the scan —
    /// whose synchronizes-with edge also makes its id visible to the
    /// high-water load here.
    ///
    /// # Safety
    ///
    /// Caller must hold the pipeline queue lock (one sealer at a time)
    /// and have observed every announce slot `EMPTY_EPOCH` or
    /// `≥ epoch + 1` — a `quiescent(epoch + 1)` scan that returned
    /// `true` — so every owner of this generation has deregistered and
    /// its writes happen-before the caller (see the module docs for the
    /// full argument).
    pub(super) unsafe fn take_gen(&self, epoch: u64) -> (Vec<NvmAddr>, Vec<NvmAddr>) {
        let idx = gen_of(epoch);
        let mut persist_list = Vec::new();
        let mut retire_list = Vec::new();
        for slot in self.slots.iter() {
            let buf = std::mem::take(&mut *slot.bufs[idx].get());
            if persist_list.is_empty() {
                persist_list = buf.persist;
            } else {
                persist_list.extend(buf.persist);
            }
            retire_list.extend(buf.retire);
        }
        (persist_list, retire_list)
    }
}

/// Per-thread preallocated-block slots: the `thread_local new_blk` of
/// Listing 1, shared by every BDL structure.
///
/// [`PreallocSlots::take`] returns the thread's spare block or allocates
/// a fresh one (outside any transaction — allocation aborts transactions);
/// either way the block's epoch is `INVALID_EPOCH` on return, upholding
/// the §5 rule that an interrupted operation's block must never carry a
/// stale epoch into its next use. [`PreallocSlots::put_back`] resets the
/// epoch *at stash time*, so `take` only pays the reset store for freshly
/// allocated blocks. A spare left in a slot at shutdown or a crash
/// carries `INVALID_EPOCH`, so recovery reclaims it.
pub struct PreallocSlots {
    payload_words: u64,
    slots: PerThread<Mutex<Option<NvmAddr>>>,
}

impl PreallocSlots {
    /// Slots for blocks holding `payload_words` of payload.
    pub fn new(payload_words: u64) -> Self {
        Self {
            payload_words,
            slots: PerThread::default(),
        }
    }

    /// The calling thread's preallocated block (Listing 1 line 10),
    /// guaranteed to carry `INVALID_EPOCH` (line 12).
    ///
    /// Invariant: a block coming out of a slot already had its epoch
    /// reset by [`PreallocSlots::put_back`], so the hot reuse path skips
    /// the release store; only a freshly allocated block pays it.
    pub fn take(&self, esys: &EpochSys) -> NvmAddr {
        let blk = {
            let mut slot = self.slots.mine().lock();
            slot.take()
        };
        match blk {
            Some(b) => b, // put_back already reset the epoch
            None => {
                let b = esys.p_new(self.payload_words);
                esys.heap()
                    .word(b.offset(persist_alloc::HDR_EPOCH))
                    .store(persist_alloc::INVALID_EPOCH, Ordering::Release);
                b
            }
        }
    }

    /// Returns an unused block for the next operation on this thread,
    /// resetting its epoch to `INVALID_EPOCH` at stash time.
    ///
    /// Invariant: every block sitting in a slot has an invalid epoch —
    /// even if the aborted or in-place operation that owned it committed
    /// a `set_epoch` — so [`PreallocSlots::take`] can hand slot blocks
    /// out without touching the header. The store is plain (the block is
    /// private: it was taken by this thread and never published).
    pub fn put_back(&self, esys: &EpochSys, blk: NvmAddr) {
        esys.heap()
            .word(blk.offset(persist_alloc::HDR_EPOCH))
            .store(persist_alloc::INVALID_EPOCH, Ordering::Release);
        *self.slots.mine().lock() = Some(blk);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::fresh;
    use super::*;
    use persist_alloc::{Header, INVALID_EPOCH};

    #[test]
    fn abort_op_discards_tracking() {
        let es = fresh();
        let _e = es.begin_op();
        let blk = es.p_new(1);
        es.p_track(blk);
        es.abort_op();
        // Nothing should be flushed for the aborted op.
        es.advance();
        es.advance();
        assert_eq!(es.stats().snapshot().blocks_persisted, 0);
        // The block itself still exists (allocated, INVALID_EPOCH): it is
        // the caller's preallocated new_blk, reusable by the next op.
        assert_eq!(Header::epoch(es.heap(), blk), INVALID_EPOCH);
    }

    #[test]
    fn arena_buffers_merge_across_threads_at_seal() {
        // Two threads track one block each in the same epoch; the seal
        // must collect both single-writer arenas (no per-thread lock
        // exists anymore to "protect" them).
        let es = fresh();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let es = std::sync::Arc::clone(&es);
                s.spawn(move || {
                    let e = es.begin_op();
                    let blk = es.p_new(1);
                    Header::set_epoch(es.heap(), blk, e);
                    es.p_track(blk);
                    es.end_op();
                });
            }
        });
        es.advance();
        es.advance();
        assert_eq!(es.stats().snapshot().blocks_persisted, 2);
        assert_eq!(es.batches_in_flight(), 0);
    }

    #[test]
    fn prealloc_slots_reuse_and_reset_epochs() {
        let es = fresh();
        let slots = PreallocSlots::new(2);
        let _e = es.begin_op();
        let b1 = slots.take(&es);
        assert_eq!(Header::epoch(es.heap(), b1), INVALID_EPOCH);
        // Simulate an interrupted operation that had claimed an epoch:
        // put_back must scrub it at stash time (the Sec. 5 rule), so
        // take can hand the slot block straight back out.
        Header::set_epoch(es.heap(), b1, 7);
        slots.put_back(&es, b1);
        assert_eq!(
            Header::epoch(es.heap(), b1),
            INVALID_EPOCH,
            "put_back() must reset a stale epoch at stash time"
        );
        let b2 = slots.take(&es);
        assert_eq!(b2, b1, "same thread reuses its spare block");
        assert_eq!(Header::epoch(es.heap(), b2), INVALID_EPOCH);
        es.end_op();
    }
}
