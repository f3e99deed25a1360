//! The one background-worker mechanism behind
//! [`EpochTicker`](crate::EpochTicker), [`Persister`](crate::Persister)
//! and [`Sampler`](crate::Sampler): a named thread with a stop flag,
//! joined on `stop()`/drop.
//!
//! A thread the OS refuses to spawn (resource exhaustion) is not an
//! error the owners propagate: the worker comes back *inert* — no
//! thread, nothing to join — after one stderr line, and each owner
//! documents what the system does without it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest single sleep of [`StopFlag::sleep_or_stop`]: bounds how long
/// `stop()`/drop waits for a worker whose period is seconds or hours.
const SLICE: Duration = Duration::from_millis(20);

/// The worker threads' view of their owner's stop request.
pub(crate) struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    pub(crate) fn is_set(&self) -> bool {
        // Relaxed: the flag publishes no data; the join in
        // `Worker::stop` is the synchronization point.
        self.0.load(Ordering::Relaxed)
    }

    /// Sleeps for `period` in slices of at most 20 ms, returning early
    /// once stop is requested. Returns whether it was.
    pub(crate) fn sleep_or_stop(&self, period: Duration) -> bool {
        let t = Instant::now();
        while t.elapsed() < period && !self.is_set() {
            std::thread::sleep(SLICE.min(period - t.elapsed().min(period)));
        }
        self.is_set()
    }
}

/// Owns one background thread and its stop flag. Stopping (explicitly
/// or by drop) sets the flag, runs the wake hook, and joins the thread.
pub(crate) struct Worker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Unblocks threads parked on something other than
    /// [`StopFlag::sleep_or_stop`] (the persister's condvars).
    wake: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Worker {
    /// Spawns `body` on a thread named `bdhtm-<role>`. If the OS cannot
    /// spawn it, logs `fallback` (what the system does instead) and
    /// returns an inert worker.
    pub(crate) fn spawn(
        role: &str,
        fallback: &str,
        body: impl FnOnce(&StopFlag) + Send + 'static,
    ) -> Worker {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = StopFlag(Arc::clone(&stop));
        #[cfg(test)]
        let refused = tests::FAIL_SPAWNS.with(|f| f.get());
        #[cfg(not(test))]
        let refused = false;
        let spawned = if refused {
            Err(std::io::Error::other("injected spawn failure"))
        } else {
            std::thread::Builder::new()
                .name(format!("bdhtm-{}", role.replace(' ', "-")))
                .spawn(move || body(&flag))
        };
        let handle = spawned
            .map_err(|error| eprintln!("bdhtm: failed to spawn {role}: {error}; {fallback}"))
            .ok();
        Worker {
            stop,
            handle,
            wake: None,
        }
    }

    /// Whether no thread is running (the spawn failed, or `stop` ran).
    pub(crate) fn is_inert(&self) -> bool {
        self.handle.is_none()
    }

    /// Installs the hook `stop` runs between setting the flag and
    /// joining.
    pub(crate) fn set_wake(&mut self, wake: impl Fn() + Send + Sync + 'static) {
        self.wake = Some(Box::new(wake));
    }

    /// Requests stop and joins the thread. Idempotent; a no-op on an
    /// inert worker. A worker thread's panic is not re-raised here —
    /// this also runs from `Drop`, which must not panic.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(wake) = &self.wake {
            wake();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        EpochConfig, EpochSys, EpochTicker, MetricsRegistry, Persister, Sampler, EPOCH_START,
    };
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::cell::Cell;

    thread_local! {
        /// While set, `Worker::spawn` on this thread fails as if the OS
        /// were out of threads — the only way to reach the inert path
        /// in a test.
        pub(super) static FAIL_SPAWNS: Cell<bool> = const { Cell::new(false) };
    }

    fn with_failing_spawns<T>(f: impl FnOnce() -> T) -> T {
        FAIL_SPAWNS.with(|c| c.set(true));
        let out = f();
        FAIL_SPAWNS.with(|c| c.set(false));
        out
    }

    fn esys(config: EpochConfig) -> Arc<EpochSys> {
        EpochSys::format(
            Arc::new(NvmHeap::new(NvmConfig::for_tests(2 << 20))),
            config,
        )
    }

    /// `stop()` must not wait out the period: each of the two periodic
    /// workers, set to tick once an hour, stops within a few sleep
    /// slices.
    #[test]
    fn stop_does_not_wait_for_an_hour_long_period() {
        let hour = Duration::from_secs(3600);
        let es = esys(EpochConfig::manual().with_epoch_len(hour));
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));

        let ticker = EpochTicker::spawn(Arc::clone(&es));
        let sampler = Sampler::spawn(reg, hour, |_, _, _| {});
        std::thread::sleep(SLICE); // let both reach their sleep
        let t = Instant::now();
        ticker.stop();
        sampler.stop();
        assert!(t.elapsed() < 10 * SLICE, "two stops took {:?}", t.elapsed());
        assert_eq!(es.current_epoch(), EPOCH_START, "no tick was due");
    }

    #[test]
    fn inert_ticker_leaves_manual_advancement_working() {
        let es = esys(EpochConfig::manual().with_epoch_len(Duration::from_millis(1)));
        let ticker = with_failing_spawns(|| EpochTicker::spawn(Arc::clone(&es)));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(es.current_epoch(), EPOCH_START, "nothing ticks");
        es.advance();
        assert_eq!(es.current_epoch(), EPOCH_START + 1);
        ticker.stop(); // nothing to join
        es.advance();
        assert_eq!(es.current_epoch(), EPOCH_START + 2);
    }

    #[test]
    fn inert_persister_leaves_the_system_persisting_inline() {
        let es = esys(EpochConfig::manual());
        let persister = with_failing_spawns(|| Persister::spawn(Arc::clone(&es)));
        es.advance();
        es.advance();
        assert_eq!(
            (es.persisted_frontier(), es.batches_in_flight()),
            (EPOCH_START, 0),
            "every advance drained its own batch"
        );
        drop(persister);
        es.advance();
        assert_eq!(es.persisted_frontier(), EPOCH_START + 1);
    }

    #[test]
    fn inert_sampler_stops_cleanly() {
        let es = esys(EpochConfig::manual());
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));
        let sampler = with_failing_spawns(|| {
            Sampler::spawn(reg, Duration::from_millis(1), |_, _, _| {
                panic!("an inert sampler has no thread to call its sink")
            })
        });
        drop(sampler);
    }
}
