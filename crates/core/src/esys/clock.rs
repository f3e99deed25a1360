//! The epoch clock and the announce array: who is in which epoch, and
//! the one genuinely SeqCst handshake that keeps them consistent.
//!
//! This module owns the §3 epoch discipline of the paper: the global
//! clock that divides execution into epochs, the per-thread announce
//! slots that record which epoch each in-flight operation registered
//! in (Listing 1 line 7), and the epoch transition itself
//! ([`EpochSys::advance`]), whose quiesce step is what lets the
//! [`tracking`](super::tracking) arenas stay single-writer without a
//! per-thread mutex.
//!
//! ## Memory-ordering contract
//!
//! Exactly one ordering decision here is load-bearing, the Dekker pair
//! in [`EpochClock::register`] vs [`EpochClock::wait_for_stragglers`];
//! every other access rides on it:
//!
//! * `register`: SeqCst announce store, then SeqCst clock re-load.
//! * `wait_for_stragglers`: the advancer's SeqCst clock store (from the
//!   previous transition) and SeqCst announce scan. The sealer's
//!   non-blocking `quiescent` scan is the same scan, after a SeqCst
//!   clock load that already saw the newer epoch.
//! * `deregister`: a Release store of [`EMPTY_EPOCH`] suffices —
//!   coherence means the scan can only observe deregistration *late*
//!   (conservative), never early, and the Release edge is what
//!   publishes the owner's arena writes to the sealer (see
//!   [`ThreadArenas::take_gen`](super::tracking::ThreadArenas::take_gen)).

use crate::error::HealthState;
use crate::error::OpRejected;
use crate::obs::EventKind;
use htm_sim::sync::CachePadded;
use htm_sim::PerThread;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use super::facade::EpochSys;
use super::pipeline::Driver;

/// First active epoch of a freshly formatted system. Starting at 2 keeps
/// `e−1` and `e−2` well-defined from the first operation.
pub const EPOCH_START: u64 = 2;

/// Announcement-array value meaning "no operation in progress".
pub const EMPTY_EPOCH: u64 = u64::MAX;

/// The epoch clock, the volatile frontier mirror, and the announce
/// array — all the state the registration handshake touches, in one
/// place so its ordering argument is auditable in one screenful.
pub(super) struct EpochClock {
    clock: CachePadded<AtomicU64>,
    /// Volatile mirror of the persisted frontier `R`: all epochs `≤ R`
    /// are durable.
    frontier: CachePadded<AtomicU64>,
    announce: PerThread<AtomicU64>,
}

impl EpochClock {
    pub(super) fn new(clock: u64, frontier: u64) -> Self {
        Self {
            clock: CachePadded::new(AtomicU64::new(clock)),
            frontier: CachePadded::new(AtomicU64::new(frontier)),
            announce: PerThread::new(|| AtomicU64::new(EMPTY_EPOCH)),
        }
    }

    /// The current active epoch.
    pub(super) fn current(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Opens epoch `next` (the advancer's half of the Dekker pair).
    pub(super) fn open(&self, next: u64) {
        self.clock.store(next, Ordering::SeqCst);
    }

    /// The volatile durable-frontier mirror.
    pub(super) fn frontier(&self) -> u64 {
        self.frontier.load(Ordering::SeqCst)
    }

    pub(super) fn publish_frontier(&self, r: u64) {
        self.frontier.store(r, Ordering::SeqCst);
    }

    /// Registers the calling thread in the current epoch and returns it.
    ///
    /// Memory-ordering argument (the announce protocol's one genuine
    /// Dekker pair): this SeqCst store and the SeqCst clock re-load,
    /// against the advancer's SeqCst clock store and SeqCst announce
    /// scan. The single total order on SeqCst operations guarantees
    /// that either the advancer's scan observes our announcement (and
    /// waits for this op), or our re-load observes the moved clock (and
    /// we re-register). Downgrading either side admits the
    /// store-buffering outcome — both sides read stale — and an
    /// operation could run unobserved in an epoch whose buffers are
    /// being sealed.
    pub(super) fn register(&self) -> u64 {
        let slot = self.announce.mine();
        debug_assert_eq!(slot.load(Ordering::Relaxed), EMPTY_EPOCH);
        loop {
            // A plain guess at the epoch; the SeqCst re-load below
            // validates it, so Relaxed is enough here.
            let e = self.clock.load(Ordering::Relaxed);
            slot.store(e, Ordering::SeqCst);
            if self.clock.load(Ordering::SeqCst) == e {
                return e;
            }
            // The clock moved while we announced: re-register so we never
            // start an operation in the in-flight epoch.
            slot.store(EMPTY_EPOCH, Ordering::SeqCst);
        }
    }

    /// Clears the calling thread's announcement.
    ///
    /// Release suffices here, unlike `register`'s SeqCst handshake:
    /// EMPTY_EPOCH is the newest value in this slot's modification
    /// order, and coherence forbids a load from reading a value *newer*
    /// than the latest store — so the advancer's scan can never see
    /// "empty" early. It can at worst see the op's old epoch late,
    /// which only delays the scan one iteration (the conservative
    /// direction). The Release edge additionally publishes the owner's
    /// single-writer arena writes to the scanning sealer, which reads
    /// this slot with a SeqCst (acquire) load.
    pub(super) fn deregister(&self) {
        self.announce.mine().store(EMPTY_EPOCH, Ordering::Release);
    }

    /// The calling thread's announced epoch ([`EMPTY_EPOCH`] if idle).
    pub(super) fn announced(&self) -> u64 {
        self.announce.mine().load(Ordering::SeqCst)
    }

    /// Straggler wait: bounded spin, then yield, then parked sleep.
    /// Stragglers run whole operations (not single instructions), so
    /// after a short optimistic spin we stop burning the core. The
    /// park has no unpark side — the timeout bounds the wait — which
    /// keeps `end_op` free of any waker bookkeeping.
    ///
    /// On return, every operation registered in an epoch `< e` has
    /// deregistered, and — via the Release/SeqCst edge on its announce
    /// slot — all of its arena writes happen-before the caller. This
    /// post-condition is the exclusion guarantee the lock-free arenas
    /// rely on.
    ///
    /// The scan walks only the ids below the high-water mark: the
    /// caller's SeqCst clock load of `e` precedes the SeqCst mark load in
    /// [`PerThread::iter`], so an operation on a later id announces after
    /// both and its re-load in [`register`](Self::register) sees `≥ e`,
    /// as if its slot had been read [`EMPTY_EPOCH`].
    pub(super) fn wait_for_stragglers(&self, e: u64) {
        for slot in self.announce.iter() {
            let mut spins = 0u32;
            loop {
                // SeqCst: the scan side of register's Dekker pair (see
                // the memory-ordering comment there). This path runs
                // once per epoch, not per operation, so the fence cost
                // is irrelevant.
                let a = slot.load(Ordering::SeqCst);
                if a == EMPTY_EPOCH || a >= e {
                    break;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else if spins < 256 {
                    std::thread::yield_now();
                } else {
                    std::thread::park_timeout(Duration::from_micros(50));
                }
            }
        }
    }

    /// The non-blocking form of [`wait_for_stragglers`](Self::wait_for_stragglers):
    /// whether every slot reads [`EMPTY_EPOCH`] or `≥ e` right now. The
    /// same SeqCst loads over the same walk, after a SeqCst clock load
    /// that saw `≥ e`, so `true` carries the same post-condition.
    pub(super) fn quiescent(&self, e: u64) -> bool {
        self.announce.iter().all(|slot| {
            let a = slot.load(Ordering::SeqCst);
            a == EMPTY_EPOCH || a >= e
        })
    }
}

impl EpochSys {
    // ----- Table 2: operation bracketing ---------------------------------

    /// Registers the calling thread as active in the current epoch and
    /// begins tracking its NVM writes. Returns the operation's epoch.
    ///
    /// Panics with a typed [`OpRejected`] payload when the system is
    /// [`HealthState::Failed`]; use [`try_begin_op`](Self::try_begin_op)
    /// to observe the rejection as a value.
    pub fn begin_op(&self) -> u64 {
        match self.try_begin_op() {
            Ok(e) => e,
            Err(rej) => std::panic::panic_any(rej),
        }
    }

    /// Fallible [`begin_op`](Self::begin_op): returns [`OpRejected`]
    /// instead of wedging (or panicking) when the epoch system has
    /// fail-stopped.
    ///
    /// Hot-path contract: no cross-thread atomic RMW and no mutex —
    /// one relaxed health load, one relaxed load of the persister's
    /// behind flag, the SeqCst announce store + clock re-load of the
    /// Dekker handshake, and plain stores into the calling thread's own
    /// arena slot. Only while a background persister is behind does it
    /// wait (admission control, DESIGN.md §3.4.2).
    pub fn try_begin_op(&self) -> Result<u64, OpRejected> {
        // Relaxed: rejection only needs to be *eventually* observed;
        // the SeqCst handshake below governs epoch correctness.
        if self.health_code_relaxed() == HealthState::Failed as u8 {
            return Err(OpRejected {
                health: HealthState::Failed,
                cause: self.last_persist_error(),
            });
        }
        if self.is_disabled() {
            return Ok(self.clock.current());
        }
        if self.pipeline.behind.load(Ordering::Relaxed) {
            self.wait_for_persister();
        }
        let e = self.clock.register();
        // SAFETY: this thread owns its id's arena slot (a predecessor on
        // the id handed it over through the id free list's
        // Release/Acquire), and the handshake above pinned the clock at
        // `e` while our slot announces `e` — so a sealer of epoch `e`
        // (which requires the clock to read `e+1` and the scan to pass
        // our slot) cannot run concurrently; generation `e % BUF_GENS`
        // is exclusively ours.
        unsafe {
            let buf = self.arenas.owner_buf(e);
            let (pm, rm) = (buf.persist.len(), buf.retire.len());
            let op = self.arenas.owner_op();
            debug_assert_eq!(op.op_epoch, EMPTY_EPOCH, "begin_op inside an operation");
            op.op_epoch = e;
            op.persist_mark = pm;
            op.retire_mark = rm;
        }
        Ok(e)
    }

    /// Schedules the operation's tracked writes for background
    /// persistence and deregisters the thread.
    ///
    /// Hot-path contract: one plain store into the owner's arena slot
    /// plus the Release announce store — no RMW, no mutex.
    pub fn end_op(&self) {
        if self.is_disabled() {
            return;
        }
        // SAFETY: the op context cell is only ever touched by its owner
        // thread (the sealer reads buffers, never op contexts).
        unsafe {
            self.arenas.owner_op().op_epoch = EMPTY_EPOCH;
        }
        self.clock.deregister();
    }

    /// Deregisters the thread and discards everything the current
    /// operation tracked (used to restart in a newer epoch after an
    /// [`OLD_SEE_NEW`](super::OLD_SEE_NEW) abort).
    pub fn abort_op(&self) {
        if self.is_disabled() {
            return;
        }
        // SAFETY: owner thread; while our announce slot still carries
        // the op's epoch `e`, no sealer can take generation
        // `e % BUF_GENS` (the scan waits for this slot), so the buffer
        // is exclusively ours to truncate.
        unsafe {
            let op = self.arenas.owner_op();
            if op.op_epoch != EMPTY_EPOCH {
                let (pm, rm) = (op.persist_mark, op.retire_mark);
                let e = op.op_epoch;
                op.op_epoch = EMPTY_EPOCH;
                let buf = self.arenas.owner_buf(e);
                buf.persist.truncate(pm);
                buf.retire.truncate(rm);
            }
        }
        // Release for the same reason as end_op: deregistration can
        // only be observed late, never early.
        self.clock.deregister();
    }

    // ----- epoch advancement ----------------------------------------------

    /// Performs one epoch transition `e → e+1`: waits for operations to
    /// leave the epochs before `e`, releases `e−1` for its frontier
    /// publish, and opens `e+1`.
    ///
    /// Normally driven by an [`EpochTicker`](crate::EpochTicker);
    /// callable directly for tests and deterministic experiments.
    ///
    /// With a persister attached (and health `Ok`) the advance seals
    /// nothing and writes nothing back: the persister's step
    /// ([`persist_next_batch`](Self::persist_next_batch)) seals every
    /// closed epoch, writes it back while the next epoch runs, and
    /// publishes it once this advance has released it. The advance's
    /// only stall is structural (`PipelineQueue::may_open`). Without a
    /// persister, or once health has degraded, the advance runs that
    /// step itself until it is idle, before the clock bump: the fully
    /// synchronous mode.
    pub fn advance(&self) {
        if self.is_disabled() {
            return;
        }
        let _g = self.advance_lock.lock();
        let t0 = std::time::Instant::now();
        let e = self.clock.current();

        // 1. Wait for stragglers in epochs < e: every closed epoch is
        //    quiescent from here on.
        self.clock.wait_for_stragglers(e);

        // 2. Release e−1 and wait until e+1 may open; 3. synchronous (or
        //    Degraded): seal and drain every closed epoch here, oldest
        //    first (persist, then frontier, then clock).
        if self.release_and_wait(e) == Driver::Inline {
            while self.persist_next_batch() {}
        }

        // 4. Open the next epoch, then wake the persister to seal e. The
        //    queue lock orders the notify after any persister check of
        //    the queue that read the old clock.
        self.clock.open(e + 1);
        {
            let _q = self.pipeline.lock();
            self.pipeline.batch_ready.notify_one();
        }

        self.stats().advances.fetch_add(1, Ordering::Relaxed);
        let obs = self.obs();
        obs.shard()
            .hist
            .advance_ns
            .record(t0.elapsed().as_nanos() as u64);
        obs.event(EventKind::EpochAdvance, e + 1, self.persisted_frontier());
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::fresh;
    use super::*;
    use std::sync::Arc;

    #[test]
    fn epochs_advance_and_frontier_follows() {
        let es = fresh();
        assert_eq!(es.current_epoch(), EPOCH_START);
        assert_eq!(es.persisted_frontier(), EPOCH_START - 1);
        es.advance();
        assert_eq!(es.current_epoch(), EPOCH_START + 1);
        // The first advance flushes epoch EPOCH_START−1 (empty): the
        // frontier trails the clock by exactly two, per the paper's
        // "crash in epoch e recovers to the end of epoch e−2".
        assert_eq!(es.persisted_frontier(), EPOCH_START - 1);
        es.advance();
        assert_eq!(es.current_epoch(), EPOCH_START + 2);
        assert_eq!(es.persisted_frontier(), EPOCH_START);
    }

    #[test]
    fn op_bracketing_tracks_epoch() {
        let es = fresh();
        let e = es.begin_op();
        assert_eq!(e, EPOCH_START);
        es.end_op();
        es.advance();
        let e2 = es.begin_op();
        assert_eq!(e2, EPOCH_START + 1);
        es.end_op();
    }

    #[test]
    fn advance_waits_for_inflight_ops() {
        use std::sync::atomic::AtomicBool;
        let es = fresh();
        let release = Arc::new(AtomicBool::new(false));
        let advanced = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            // Worker begins an op in EPOCH_START and stalls.
            let es2 = Arc::clone(&es);
            let release2 = Arc::clone(&release);
            let w = s.spawn(move || {
                let _e = es2.begin_op();
                while !release2.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                es2.end_op();
            });
            // Let the worker register.
            std::thread::sleep(std::time::Duration::from_millis(20));
            // First advance (to EPOCH_START+1) does not need the worker.
            es.advance();
            // Second advance must wait for the worker to leave EPOCH_START.
            let es3 = Arc::clone(&es);
            let advanced2 = Arc::clone(&advanced);
            let a = s.spawn(move || {
                es3.advance();
                advanced2.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(
                !advanced.load(Ordering::SeqCst),
                "advance must block on the in-flight operation"
            );
            release.store(true, Ordering::SeqCst);
            a.join().unwrap();
            w.join().unwrap();
        });
        assert!(advanced.load(Ordering::SeqCst));
    }
}
