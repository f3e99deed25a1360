//! Runtime health and fault machinery: the activity counters every
//! layer reports into and the one-way `Ok → Degraded → Failed` ladder
//! (§5 runtime faults — graceful degradation instead of wedging).
//!
//! Ordering notes: the health code is ratcheted with a SeqCst CAS loop
//! (transitions are rare and must be totally ordered against the
//! persist path's freeze check); the hot-path read in `try_begin_op`
//! is Relaxed because rejection only needs to be *eventually*
//! observed. All stats counters are Relaxed — they are monotone
//! telemetry, never control flow.

use crate::error::{HealthState, PersistError};
use crate::obs::EventKind;
use std::sync::atomic::Ordering;

use super::facade::EpochSys;

htm_sim::counters! {
    /// Volatile counters describing epoch-system activity. Read through
    /// [`EpochStats::snapshot`], like the HTM and NVM stats types.
    pub struct EpochStats;
    /// Aggregated view of [`EpochStats`].
    pub struct EpochStatsSnapshot {
        /// Completed epoch advances.
        advances,
        /// Blocks flushed by background persistence.
        blocks_persisted,
        /// Words covered by those flushes (buffered-bytes-per-epoch model,
        /// §5.1).
        words_persisted,
        /// Retired blocks physically reclaimed.
        blocks_reclaimed,
        /// Advances that found `EpochConfig::pipeline_depth` batches in
        /// flight and stalled the clock until the persister caught up.
        pipeline_stalls,
        /// Epochs the persister sealed before their closing advance
        /// ([`EpochSys::seal_quiescent`]), so that advance only released them.
        early_seals,
        /// Batch write-back attempts retried after a transient
        /// [`DeviceError`](nvm_sim::DeviceError).
        persist_retries,
        /// Ranged flushes saved by merging word-contiguous blocks in a
        /// batch's flush plan (each merge retires one `persist_range` call;
        /// the device still sees every line).
        coalesced_flushes,
        /// Health-ladder downgrades (`Ok → Degraded` and
        /// `Degraded → Failed` each count once).
        degradations,
    }
}

impl EpochStats {
    /// Aggregates the counters into an owned snapshot.
    pub fn snapshot(&self) -> EpochStatsSnapshot {
        let mut t = EpochStatsSnapshot::default();
        self.add_to(&mut t);
        t
    }
}

impl EpochSys {
    // ----- runtime health -------------------------------------------------

    /// Current position on the `Ok → Degraded → Failed` health ladder
    /// (see [`HealthState`] for the transition rules).
    pub fn health(&self) -> HealthState {
        HealthState::from_code(self.health.load(Ordering::SeqCst))
    }

    /// The raw health code, read Relaxed — the begin-op fast path,
    /// where eventual observation suffices.
    pub(super) fn health_code_relaxed(&self) -> u8 {
        self.health.load(Ordering::Relaxed)
    }

    /// The typed persist failure behind the most recent health
    /// downgrade, if any.
    pub fn last_persist_error(&self) -> Option<PersistError> {
        *self
            .last_persist_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Ratchets the health ladder up to `to` (never down), recording
    /// the persist failure `cause`, counting the degradation and emitting a
    /// [`DegradedToSync`](EventKind::DegradedToSync) event. Waiters on
    /// either pipeline condvar are woken so nobody keeps waiting for a
    /// background persister that just lost its job (every wait loop
    /// re-checks the pipelined predicate).
    pub(crate) fn escalate_health(&self, to: HealthState, cause: PersistError) {
        let mut cur = self.health.load(Ordering::SeqCst);
        loop {
            if cur >= to as u8 {
                return; // already at or past `to`: ratchet only moves up
            }
            match self
                .health
                .compare_exchange(cur, to as u8, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        *self
            .last_persist_error
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(cause);
        self.stats().degradations.fetch_add(1, Ordering::Relaxed);
        self.obs()
            .event(EventKind::DegradedToSync, to as u64, cause.epoch);
        self.pipeline.batch_ready.notify_all();
        self.pipeline.batch_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::fresh;
    use super::super::EPOCH_START;
    use crate::config::EpochConfig;
    use nvm_sim::{DeviceError, DeviceFaults, DeviceOpKind, NvmConfig, NvmHeap};
    use persist_alloc::Header;
    use std::sync::Arc;

    /// The degradation ladder, end to end: a batch exhausting its retry
    /// budget ratchets `Ok → Degraded` (durable prefix untouched, typed
    /// error published, batch re-queued — not lost), a second
    /// exhaustion ratchets `Degraded → Failed` (queue frozen), and a
    /// healed device still cannot un-fail the one-way ratchet.
    #[test]
    fn retry_exhaustion_degrades_then_fails_without_losing_prefix() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let es = crate::EpochSys::format(
            Arc::clone(&heap),
            EpochConfig::manual().with_persist_retries(2),
        );
        es.attach_persister(); // hand-driven pipelined mode
        for _ in 0..2 {
            let e = es.begin_op();
            let blk = es.p_new(1);
            Header::set_epoch(es.heap(), blk, e);
            es.p_track(blk);
            es.end_op();
            es.advance();
        }
        assert!(es.persist_next_batch(), "healthy device: first batch ok");
        let f0 = es.persisted_frontier();
        assert_eq!(es.health(), crate::HealthState::Ok);

        // A device that fails every write-back: the second batch burns
        // its whole budget (1 initial + 2 retries) and degrades.
        heap.arm_device_faults(Arc::new(DeviceFaults::new(7).with_writeback_failures(1000)));
        assert!(!es.persist_next_batch());
        assert_eq!(es.health(), crate::HealthState::Degraded);
        assert_eq!(es.persisted_frontier(), f0, "durable prefix untouched");
        assert_eq!(
            es.batches_in_flight(),
            1,
            "failed batch re-queued, not lost"
        );
        let err = es.last_persist_error().expect("typed error published");
        assert_eq!(err.attempts, 3);
        let snap = es.stats().snapshot();
        assert_eq!(snap.persist_retries, 2);
        assert_eq!(snap.degradations, 1);

        // Exhaustion while already degraded: fail-stop, queue frozen.
        assert!(!es.persist_next_batch());
        assert_eq!(es.health(), crate::HealthState::Failed);
        heap.disarm_device_faults();
        assert!(
            !es.persist_next_batch(),
            "Failed freezes the queue even with a healed device"
        );
        assert_eq!(es.persisted_frontier(), f0);
        es.detach_persister();
    }

    /// Degraded (not Failed) keeps the system fully usable: the
    /// re-queued batch drains inline once the transient fault clears,
    /// and the frontier catches back up to clock − 2.
    #[test]
    fn degraded_system_recovers_durability_inline() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let es = crate::EpochSys::format(
            Arc::clone(&heap),
            EpochConfig::manual().with_persist_retries(1),
        );
        es.attach_persister();
        es.advance();
        heap.arm_device_faults(Arc::new(DeviceFaults::new(9).with_writeback_failures(1000)));
        assert!(!es.persist_next_batch());
        assert_eq!(es.health(), crate::HealthState::Degraded);
        heap.disarm_device_faults();
        // Degraded ⇒ pipelined() is false ⇒ advances drain inline,
        // including the re-queued batch, in epoch order.
        es.advance();
        es.advance();
        assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
        assert_eq!(es.batches_in_flight(), 0);
        assert_eq!(es.health(), crate::HealthState::Degraded, "ratchet holds");
        es.detach_persister();
    }

    /// `Failed` poisons `begin_op` with a typed, downcastable payload
    /// and `try_begin_op` with a typed error — never a wedge.
    #[test]
    fn failed_system_rejects_new_ops_with_typed_error() {
        let es = fresh();
        es.begin_op();
        es.end_op(); // ops work while healthy
        let cause = crate::PersistError {
            epoch: EPOCH_START,
            attempts: 1,
            cause: DeviceError {
                op: DeviceOpKind::Writeback,
                seq: 0,
            },
        };
        es.escalate_health(crate::HealthState::Failed, cause);
        let rej = es.try_begin_op().expect_err("Failed must reject");
        assert_eq!(rej.health, crate::HealthState::Failed);
        assert_eq!(rej.cause.map(|c| c.epoch), Some(EPOCH_START));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| es.begin_op()))
            .expect_err("begin_op must unwind on a failed system");
        let rej = payload
            .downcast_ref::<crate::OpRejected>()
            .expect("panic payload must downcast to OpRejected");
        assert_eq!(rej.health, crate::HealthState::Failed);
        // The announcement slot stayed clean: nothing was registered.
        assert_eq!(es.announced_epoch(), super::super::EMPTY_EPOCH);
    }
}
