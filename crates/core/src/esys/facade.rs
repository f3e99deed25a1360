//! The public [`EpochSys`] facade: the Table 2 API surface, unchanged
//! from the pre-decomposition monolith, composed out of the layered
//! parts ([`clock`](super::clock), [`tracking`](super::tracking),
//! [`account`](super::account), [`pipeline`](super::pipeline),
//! [`health`](super::health)).
//!
//! This module holds the struct itself, its constructors (format and
//! the recovery hook `build`), the simple introspection accessors, and
//! the Table 2 memory-management and transactional-accessor methods
//! (`p_new`/`p_track`/`p_retire`, `get_epoch`/`set_epoch`/
//! `classify_update`/`p_set`/`p_get` — Listing 1 lines 10–29 and
//! 51–52). Operation bracketing and epoch advancement live with the
//! clock; write-back lives with the pipeline; the health ladder lives
//! with health — each next to the state it governs.

use crate::config::EpochConfig;
use crate::error::RetireError;
use htm_sim::rng::AtomicSplitMix64;
use htm_sim::sync::Mutex;
use htm_sim::{MemAccess, TxResult};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{mark_deleted, AllocStats, Header, PAlloc, CLASS_WORDS, HDR_EPOCH, HDR_WORDS};
use std::sync::atomic::{AtomicU64, AtomicU8};
use std::sync::{Arc, Mutex as StdMutex};

use super::account::Accounting;
use super::clock::{EpochClock, EMPTY_EPOCH, EPOCH_START};
use super::health::EpochStats;
use super::pipeline::Pipeline;
use super::tracking::{payload, ThreadArenas};
use crate::error::{HealthState, PersistError};
use crate::obs::Obs;

/// Explicit HTM abort code raised when an operation in an old epoch
/// encounters a block modified in a newer epoch (`OldSeeNewException`,
/// Listing 1 line 23). The operation must `abort_op` and re-register.
pub const OLD_SEE_NEW: u8 = 0xA1;

/// Root slot holding the format magic. `pub(crate)` because recovery
/// reads the same root layout `format` writes — one definition keeps
/// the two from drifting.
pub(crate) const ROOT_MAGIC: u64 = 0;
/// Root slot holding the persisted epoch frontier `R`.
pub(crate) const ROOT_FRONTIER: u64 = 1;
/// Value of the [`ROOT_MAGIC`] slot on a formatted heap.
pub(crate) const EPOCH_MAGIC: u64 = 0xEB0C_BD47_0001_A11C;

/// What an updater must do with an existing block (Listing 1 lines 20–29).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateKind {
    /// Block belongs to the operation's epoch: update payload in place.
    InPlace,
    /// Block belongs to an older epoch: install a (preallocated)
    /// replacement and retire the old block after commit.
    Replace,
}

/// The buffered-durability epoch system (Table 2 API).
pub struct EpochSys {
    heap: Arc<NvmHeap>,
    pub(super) alloc: PAlloc,
    /// Clock + frontier mirror + announce array (the Dekker state).
    pub(super) clock: EpochClock,
    /// Per-thread single-writer tracking arenas.
    pub(super) arenas: ThreadArenas,
    /// Striped buffered-word account.
    pub(super) account: Accounting,
    /// Serializes sealers (`advance`, `seal_quiescent`).
    pub(super) advance_lock: Mutex<()>,
    /// Serializes batch write-back so frontier publishes stay in epoch
    /// order even with multiple persisters (or a persister racing an
    /// inline drain).
    pub(super) persist_lock: Mutex<()>,
    pub(super) pipeline: Pipeline,
    /// eADR detected: tracking and advancement are unnecessary (§4.3).
    disabled: bool,
    config: EpochConfig,
    stats: EpochStats,
    obs: Obs,
    /// The persist-retry backoff jitter stream (fixed seed: jitter only
    /// decorrelates contending persisters, it carries no experiment
    /// semantics).
    pub(super) backoff_rng: AtomicSplitMix64,
    /// Runtime health ladder (`HealthState` code): a one-way ratchet
    /// `Ok → Degraded → Failed` advanced only by
    /// [`escalate_health`](EpochSys::escalate_health).
    pub(super) health: AtomicU8,
    /// The persist failure that drove the last health downgrade.
    pub(super) last_persist_error: StdMutex<Option<PersistError>>,
}

impl EpochSys {
    /// Formats a fresh heap: writes the magic and initial frontier, and
    /// returns a system whose active epoch is [`EPOCH_START`].
    pub fn format(heap: Arc<NvmHeap>, config: EpochConfig) -> Arc<EpochSys> {
        let alloc = PAlloc::new(Arc::clone(&heap));
        let disabled = heap.config().eadr;
        heap.write(heap.root(ROOT_MAGIC), EPOCH_MAGIC);
        heap.write(heap.root(ROOT_FRONTIER), EPOCH_START - 1);
        heap.persist_range(heap.root(ROOT_MAGIC), 2);
        heap.fence();
        Arc::new(Self::build(
            heap,
            alloc,
            config,
            EPOCH_START,
            EPOCH_START - 1,
            disabled,
        ))
    }

    pub(crate) fn build(
        heap: Arc<NvmHeap>,
        alloc: PAlloc,
        config: EpochConfig,
        clock: u64,
        frontier: u64,
        disabled: bool,
    ) -> EpochSys {
        let obs = Obs::for_config(&config);
        EpochSys {
            heap,
            alloc,
            clock: EpochClock::new(clock, frontier),
            arenas: ThreadArenas::new(),
            account: Accounting::new(),
            advance_lock: Mutex::new(()),
            persist_lock: Mutex::new(()),
            // At rest the last advance sealed and released clock − 2.
            pipeline: Pipeline::new(clock - 2),
            disabled,
            config,
            stats: EpochStats::default(),
            obs,
            backoff_rng: AtomicSplitMix64::new(0x9E37_79B9_7F4A_7C15),
            health: AtomicU8::new(HealthState::Ok as u8),
            last_persist_error: StdMutex::new(None),
        }
    }

    /// The underlying heap.
    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    /// The persistent allocator (for direct space accounting).
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    pub fn config(&self) -> &EpochConfig {
        &self.config
    }

    pub fn stats(&self) -> &EpochStats {
        &self.stats
    }

    /// Lifecycle instrumentation: latency histograms and the flight
    /// recorder (see [`crate::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Words tracked for background persistence and not yet flushed.
    ///
    /// Aggregated from the per-thread stripes: exact whenever the
    /// closing epoch has quiesced (in particular at every seal
    /// boundary), approximate by at most the current epoch's in-flight
    /// tracking otherwise — `esys/account.rs` documents the bound.
    pub fn buffered_words(&self) -> u64 {
        self.account.buffered()
    }

    /// `true` when running on eADR (persistent cache): tracking disabled.
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// The current active epoch.
    pub fn current_epoch(&self) -> u64 {
        self.clock.current()
    }

    /// All epochs `≤` this value are durable.
    pub fn persisted_frontier(&self) -> u64 {
        self.clock.frontier()
    }

    /// The epoch the calling thread has announced, or [`EMPTY_EPOCH`]
    /// when it has no operation in flight (diagnostic; the op-lifecycle
    /// tests assert the bracket never leaks an announcement).
    pub fn announced_epoch(&self) -> u64 {
        self.clock.announced()
    }

    // ----- Table 2: memory management ------------------------------------

    /// Allocates an NVM block able to hold `payload_words` of payload.
    /// The block carries `INVALID_EPOCH` until [`EpochSys::set_epoch`]
    /// claims it inside a transaction; recovery reclaims unclaimed blocks.
    ///
    /// The allocator flushes its metadata, so calling this inside a
    /// hardware transaction aborts it — preallocate (Listing 1 line 10).
    ///
    /// If the allocator panics (heap exhaustion), the current operation
    /// is aborted before the panic propagates, so the thread's epoch
    /// announcement is cleared and [`EpochSys::advance`] — which waits
    /// for every announced operation — cannot deadlock on a thread that
    /// died mid-operation.
    pub fn p_new(&self, payload_words: u64) -> NvmAddr {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.alloc.alloc_for_payload(payload_words)
        })) {
            Ok(blk) => blk,
            Err(payload) => {
                self.abort_op();
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Tracks `blk` for persistence in the current operation's epoch.
    /// Call after the transaction that published the block commits
    /// (Listing 1 line 52).
    ///
    /// Hot-path contract: header reads, a push into the owner's own
    /// arena buffer, a store to the owner's own accounting stripe, and
    /// plain dirty-line marks — no cross-thread RMW, no mutex.
    pub fn p_track(&self, blk: NvmAddr) {
        if self.disabled {
            return;
        }
        let words = match Header::state(&self.heap, blk) {
            Some((_, class)) => CLASS_WORDS[class],
            None => 0,
        };
        // SAFETY: owner thread; the op announced epoch `e`, which
        // blocks any seal of generation `e % BUF_GENS` until we
        // deregister (see the tracking module's protocol docs).
        unsafe {
            let e = self.arenas.owner_op().op_epoch;
            debug_assert_ne!(e, EMPTY_EPOCH, "p_track outside an operation");
            self.arenas.owner_buf(e).persist.push((blk, words));
        }
        self.account.add_local(words);
        // Make the block's lines visible to the eviction injector.
        let mut w = 0;
        while w < words {
            self.heap.mark_dirty(blk.offset(w));
            w += nvm_sim::WORDS_PER_LINE;
        }
    }

    /// Marks `blk` deleted in the current operation's epoch and schedules
    /// it for reclamation once the deletion is durable (Listing 1
    /// line 51). The block stays readable until then, so a crash that
    /// discards this epoch can resurrect it.
    /// Panics with a typed [`RetireError`] payload on a non-block
    /// address; use [`try_retire`](Self::try_retire) to observe the
    /// validation failure as a value.
    pub fn p_retire(&self, blk: NvmAddr) {
        if let Err(e) = self.try_retire(blk) {
            std::panic::panic_any(e);
        }
    }

    /// Fallible [`p_retire`](Self::p_retire): validates that `blk`
    /// carries a live block header and returns [`RetireError`] instead
    /// of panicking when it does not.
    pub fn try_retire(&self, blk: NvmAddr) -> Result<(), RetireError> {
        let Some((_, class)) = Header::state(&self.heap, blk) else {
            return Err(RetireError::NotABlock(blk));
        };
        if self.disabled {
            self.alloc.free(blk);
            return Ok(());
        }
        // SAFETY: same owner/announce argument as `p_track`.
        unsafe {
            let e = self.arenas.owner_op().op_epoch;
            debug_assert_ne!(e, EMPTY_EPOCH, "p_retire outside an operation");
            mark_deleted(&self.heap, blk, class, e);
            self.arenas.owner_buf(e).retire.push(blk);
        }
        self.account.add_local(HDR_WORDS);
        Ok(())
    }

    /// Immediately reclaims a block that was never published (e.g. a
    /// preallocated block discarded at shutdown). Flushes, so it aborts
    /// an enclosing transaction.
    pub fn p_delete(&self, blk: NvmAddr) {
        self.alloc.free(blk);
    }

    // ----- Table 2: transactional block accessors -------------------------

    /// Transactionally reads the epoch a block was tracked in.
    pub fn get_epoch<'e>(&'e self, m: &mut dyn MemAccess<'e>, blk: NvmAddr) -> TxResult<u64> {
        m.load(self.heap.word(blk.offset(HDR_EPOCH)))
    }

    /// Transactionally claims a block for `epoch` (Listing 1 line 17).
    /// Must happen before the operation's linearization point so that
    /// concurrent readers can classify the block.
    pub fn set_epoch<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        blk: NvmAddr,
        epoch: u64,
    ) -> TxResult<()> {
        m.store(self.heap.word(blk.offset(HDR_EPOCH)), epoch)
    }

    /// The Listing 1 lines 20–29 decision: given an existing block and
    /// the operation's epoch, either update in place (same epoch),
    /// replace out-of-place (older epoch), or abort with [`OLD_SEE_NEW`]
    /// (newer epoch — BDL forbids an old operation overwriting newer
    /// state).
    pub fn classify_update<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        blk: NvmAddr,
        op_epoch: u64,
    ) -> TxResult<UpdateKind> {
        let be = self.get_epoch(m, blk)?;
        if be > op_epoch {
            Err(m.abort(OLD_SEE_NEW))
        } else if be < op_epoch {
            Ok(UpdateKind::Replace)
        } else {
            Ok(UpdateKind::InPlace)
        }
    }

    /// Transactionally writes payload word `idx` of `blk` (in-place
    /// update, Listing 1 line 29). The new value is persisted with the
    /// block's epoch buffer.
    pub fn p_set<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        blk: NvmAddr,
        idx: u64,
        val: u64,
    ) -> TxResult<()> {
        m.store(self.heap.word(payload(blk, idx)), val)
    }

    /// Transactionally reads payload word `idx` of `blk`.
    pub fn p_get<'e>(&'e self, m: &mut dyn MemAccess<'e>, blk: NvmAddr, idx: u64) -> TxResult<u64> {
        m.load(self.heap.word(payload(blk, idx)))
    }

    /// The raw payload word atomic, for non-transactional initialization
    /// of still-private blocks.
    pub fn payload_word(&self, blk: NvmAddr, idx: u64) -> &AtomicU64 {
        self.heap.word(payload(blk, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::fresh;
    use super::*;
    use nvm_sim::NvmConfig;
    use std::sync::atomic::Ordering;

    #[test]
    fn tracked_block_becomes_durable_after_two_advances() {
        let es = fresh();
        let e = es.begin_op();
        let blk = es.p_new(2);
        es.payload_word(blk, 0).store(0xFEED, Ordering::Release);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();

        // Not yet durable: only the allocation record is on media.
        let img = es.heap().crash();
        assert_eq!(img.word(payload(blk, 0)), 0);

        es.advance();
        es.advance();
        let img = es.heap().crash();
        assert_eq!(img.word(payload(blk, 0)), 0xFEED);
        assert_eq!(img.word(blk.offset(HDR_EPOCH)), e);
    }

    #[test]
    fn classify_update_matches_listing1() {
        use htm_sim::{Htm, HtmConfig};
        let es = fresh();
        let htm = Htm::new(HtmConfig::for_tests());

        let e = es.begin_op();
        let blk = es.p_new(1);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();

        // Same epoch: in place.
        let es2 = Arc::clone(&es);
        let r = htm.attempt(|t| es2.classify_update(t, blk, e));
        assert_eq!(r.unwrap(), UpdateKind::InPlace);

        // Later op epoch: replace.
        let r = htm.attempt(|t| es2.classify_update(t, blk, e + 1));
        assert_eq!(r.unwrap(), UpdateKind::Replace);

        // Older op epoch: OldSeeNewException.
        let r = htm.attempt(|t| es2.classify_update(t, blk, e - 1));
        assert_eq!(r.unwrap_err(), htm_sim::AbortCause::Explicit(OLD_SEE_NEW));
    }

    #[test]
    fn retired_block_is_reclaimed_after_durability() {
        let es = fresh();
        // Publish a block in epoch 2.
        let e = es.begin_op();
        let blk = es.p_new(1);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();
        es.advance(); // epoch 3; blk's epoch (2) flushes at the next advance

        // Replace it in epoch 3.
        let e2 = es.begin_op();
        assert_eq!(e2, e + 1);
        let blk2 = es.p_new(1);
        Header::set_epoch(es.heap(), blk2, e2);
        es.p_track(blk2);
        es.p_retire(blk);
        es.end_op();

        let live_before = es.alloc_stats().live_blocks[0];
        es.advance(); // flushes epoch 2 (blk's creation)
        es.advance(); // flushes epoch 3 (blk2 + blk's retirement), reclaims blk
        assert_eq!(es.alloc_stats().live_blocks[0], live_before - 1);
        assert_eq!(es.stats().snapshot().blocks_reclaimed, 1);
    }

    #[test]
    fn eadr_disables_tracking() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20).with_eadr(true)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        assert!(es.is_disabled());
        let e = es.begin_op();
        let blk = es.p_new(1);
        es.payload_word(blk, 0).store(77, Ordering::Release);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();
        // Durable immediately: eADR crash preserves the volatile image.
        let img = es.heap().crash();
        assert_eq!(img.word(payload(blk, 0)), 77);
    }

    #[test]
    fn allocator_panic_inside_op_does_not_stall_advance() {
        // Exhaust a tiny heap through p_new while registered in an op:
        // the panic must leave the announcement cleared so advance()
        // still completes (the ticker must never deadlock on a thread
        // that died mid-operation).
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(1 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _e = es.begin_op();
            loop {
                let blk = es.p_new(500); // 4 KiB blocks: exhausts fast
                es.p_track(blk);
            }
        }));
        assert!(r.is_err(), "exhaustion must surface as a panic");
        // The dead operation's announcement is gone: advance completes.
        es.advance();
        es.advance();
    }

    #[test]
    fn concurrent_ops_and_advances_smoke() {
        let es = fresh();
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let workers = 4;
        let ops_per_worker = 1500u64;
        std::thread::scope(|s| {
            for w in 0..workers as u64 {
                let es = Arc::clone(&es);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut prev: Option<NvmAddr> = None;
                    for i in 0..ops_per_worker {
                        // Force epoch boundaries mid-run so replaced
                        // blocks actually land in older epochs and get
                        // retired — otherwise a fast enough run fits in
                        // one epoch and the reclamation assertions race
                        // the 1 ms ticker below.
                        if i % 300 == 299 {
                            es.advance();
                        }
                        let e = es.begin_op();
                        let blk = es.p_new(2);
                        es.payload_word(blk, 0).store(e + w, Ordering::Release);
                        Header::set_epoch(es.heap(), blk, e);
                        es.p_track(blk);
                        // Retire the previous block so space is recycled.
                        if let Some(p) = prev.take() {
                            if Header::epoch(es.heap(), p) < e {
                                es.p_retire(p);
                            }
                        }
                        prev = Some(blk);
                        es.end_op();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            let es2 = Arc::clone(&es);
            let done2 = Arc::clone(&done);
            s.spawn(move || {
                while done2.load(Ordering::SeqCst) < workers {
                    es2.advance();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                es2.advance();
                es2.advance();
            });
        });
        let s = es.stats().snapshot();
        assert!(s.advances >= 2);
        assert!(s.blocks_persisted > 0);
        assert!(s.blocks_reclaimed > 0);
    }

    /// `try_retire` surfaces a bogus address as a value; `p_retire`
    /// panics with the same typed payload instead of a bare `expect`.
    #[test]
    fn retire_of_non_block_is_a_typed_error() {
        let es = fresh();
        es.begin_op();
        let bogus = NvmAddr(3); // inside the root area, never a block
        assert_eq!(
            es.try_retire(bogus),
            Err(crate::RetireError::NotABlock(bogus))
        );
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            es.p_retire(bogus);
        }))
        .expect_err("p_retire must panic on a non-block");
        assert!(payload.downcast_ref::<crate::RetireError>().is_some());
        es.abort_op();
    }
}
