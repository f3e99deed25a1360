//! The background epoch-advancing thread ("a background thread increments
//! the value of a global clock every few milliseconds", §3) and the
//! background [`Persister`] that writes sealed epoch batches back to
//! media off the advance critical path.

use crate::error::HealthState;
use crate::esys::{Driver, EpochSys};
use crate::worker::{StopFlag, Worker};
use nvm_sim::CrashTriggered;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Owns the background thread that advances epochs every
/// [`EpochConfig::epoch_len`](crate::EpochConfig). Stops (and joins) on
/// drop.
pub struct EpochTicker {
    worker: Worker,
}

impl EpochTicker {
    /// Spawns the advancer. With sub-millisecond epoch lengths (the
    /// paper's 1 µs sweep points) the thread spins instead of sleeping.
    ///
    /// Falls back to an inert ticker with a logged warning if the OS
    /// cannot spawn the thread (resource exhaustion) — epochs must then
    /// be advanced manually, which degrades latency but loses nothing.
    pub fn spawn(esys: Arc<EpochSys>) -> EpochTicker {
        let worker = Worker::spawn(
            "epoch ticker",
            "falling back to manual epoch advancement",
            move |stop| {
                let len = esys.config().epoch_len;
                loop {
                    let stopped = if len >= Duration::from_millis(1) {
                        stop.sleep_or_stop(len)
                    } else {
                        let t = Instant::now();
                        while t.elapsed() < len {
                            std::hint::spin_loop();
                        }
                        stop.is_set()
                    };
                    if stopped {
                        break;
                    }
                    esys.advance();
                }
            },
        );
        EpochTicker { worker }
    }

    /// Stops the ticker and waits for it to exit.
    pub fn stop(mut self) {
        self.worker.stop();
    }
}

/// Owns the background write-back thread of the persist pipeline.
///
/// While it is attached, [`EpochSys::advance`](crate::EpochSys::advance)
/// only releases closed epochs, and this thread runs the persister's
/// step ([`EpochSys::persist_next_batch`]): it seals each closed epoch
/// as soon as its last operation ends, writes it back while the next
/// epoch runs, and fences, publishes and reclaims it once released.
/// Same stop/join discipline as [`EpochTicker`]; it drains released
/// batches before exiting, so a clean shutdown leaves the frontier at
/// `clock − 2`.
pub struct Persister {
    worker: Worker,
}

impl Persister {
    /// Spawns the write-back thread and attaches it to the epoch system
    /// (advances switch to release-only immediately). Panics if a
    /// persister is attached already.
    ///
    /// Falls back to no worker at all with a logged warning if the OS
    /// cannot spawn the thread — nothing stays attached and the system
    /// simply stays in synchronous inline-persist mode, which is slower
    /// but loses nothing.
    pub fn spawn(esys: Arc<EpochSys>) -> Persister {
        esys.attach(Driver::Thread);
        let es = Arc::clone(&esys);
        let mut worker = Worker::spawn(
            "persister",
            "persisting inline on the advancing thread",
            move |stop| coordinator(&es, stop),
        );
        if worker.is_inert() {
            esys.detach_persister();
            return Persister { worker };
        }
        // The coordinator parks on condvars, not on the stop flag's sleep.
        worker.set_wake(move || esys.notify_persister());
        Persister { worker }
    }

    /// Stops the persister after it drains the queue, and joins it.
    pub fn stop(mut self) {
        self.worker.stop();
    }
}

/// How long the coordinator sleeps when its next action is idle; the
/// next advance wakes it sooner.
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// First re-try interval while an operation of the closed epoch keeps
/// its seal waiting (an idle action with a straggler); doubles up to
/// [`IDLE_WAIT`]. Operations last microseconds, so the first re-try
/// usually succeeds.
const STRAGGLER_POLL: Duration = Duration::from_micros(50);

/// The coordinator body: run the persister's step until it is idle,
/// then wait as its next action says, until stopped.
fn coordinator(esys: &EpochSys, stop: &StopFlag) {
    // Once `stop` is observed, one more round runs before exiting: an
    // advance may have released its final epoch between our idle step
    // and the caller setting the flag, and the queue mutex makes that
    // release visible to any step that starts after `stop` is set.
    let mut draining = false;
    let mut poll = STRAGGLER_POLL;
    loop {
        // A fault-plan crash point may fire *inside* a write-back (the
        // whole point of the in-flight-batch crash tests).
        // CrashTriggered models machine death: the worker detaches and
        // vanishes, leaving the frontier wherever the last completed
        // batch put it. Any other panic is a real bug — re-raise it.
        match catch_unwind(AssertUnwindSafe(|| esys.persist_next_batch())) {
            Ok(true) => poll = STRAGGLER_POLL,
            // Degraded or failed: the health ratchet is one-way, so the
            // thread retires for good and inline advances own the queue.
            Ok(false) if draining || esys.health() != HealthState::Ok => break,
            Ok(false) if stop.is_set() => draining = true,
            Ok(false) => {
                poll = if esys.wait_for_work(IDLE_WAIT, poll) {
                    (poll * 2).min(IDLE_WAIT)
                } else {
                    STRAGGLER_POLL
                };
            }
            Err(payload) => {
                esys.detach_persister();
                if payload.downcast_ref::<CrashTriggered>().is_some() {
                    return;
                }
                std::panic::resume_unwind(payload);
            }
        }
    }
    // `break` requires an idle step *after* stop (or a health downgrade
    // that retires the worker): drained.
    esys.detach_persister();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochConfig;
    use nvm_sim::{NvmConfig, NvmHeap};

    #[test]
    fn ticker_advances_epochs() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(2 << 20)));
        let es = EpochSys::format(
            heap,
            EpochConfig::manual().with_epoch_len(Duration::from_millis(2)),
        );
        let before = es.current_epoch();
        let ticker = EpochTicker::spawn(Arc::clone(&es));
        std::thread::sleep(Duration::from_millis(60));
        ticker.stop();
        let after = es.current_epoch();
        assert!(
            after >= before + 5,
            "expected several epoch advances, got {before} -> {after}"
        );
    }

    #[test]
    fn persister_drains_on_stop_leaving_frontier_caught_up() {
        use persist_alloc::Header;

        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        let persister = Persister::spawn(Arc::clone(&es));

        // A few operations interleaved with advances: every batch goes
        // through the background worker.
        for _ in 0..6 {
            let e = es.begin_op();
            let blk = es.p_new(1);
            Header::set_epoch(es.heap(), blk, e);
            es.p_track(blk);
            es.end_op();
            es.advance();
        }
        // Two more advances release the last op's epoch and its successor.
        es.advance();
        es.advance();
        persister.stop(); // joins after draining the queue
        assert_eq!(
            es.persisted_frontier(),
            es.current_epoch() - 2,
            "clean shutdown leaves no sealed batch behind"
        );
        assert_eq!(
            es.batches_in_flight(),
            1,
            "only the unreleased clock − 1 epoch, sealed and written back early"
        );
        assert!(es.stats().snapshot().blocks_persisted >= 6);
    }

    #[test]
    fn ticker_and_persister_together_keep_frontier_moving() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let es = EpochSys::format(
            heap,
            EpochConfig::manual().with_epoch_len(Duration::from_millis(2)),
        );
        let persister = Persister::spawn(Arc::clone(&es));
        let ticker = EpochTicker::spawn(Arc::clone(&es));
        let f0 = es.persisted_frontier();
        std::thread::sleep(Duration::from_millis(80));
        ticker.stop();
        persister.stop();
        assert!(
            es.persisted_frontier() >= f0 + 5,
            "background pipeline must move the durable frontier"
        );
        assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
    }
}
