//! The one background-worker mechanism behind
//! [`EpochTicker`](crate::EpochTicker), [`Persister`](crate::Persister),
//! [`Watchdog`](crate::Watchdog) and [`Sampler`](crate::Sampler): named
//! threads sharing a stop flag, joined on `stop()`/drop.
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

/// Owns a group of background threads that share one stop flag.
/// Stopping (explicitly or by drop) sets the flag, runs the wake hook,
/// and joins every thread.
pub(crate) struct Worker {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
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
        let mut worker = Worker {
            stop: Arc::new(AtomicBool::new(false)),
            handles: Vec::new(),
            wake: None,
        };
        let name = format!("bdhtm-{}", role.replace(' ', "-"));
        if let Err(error) = worker.add_thread(name, body) {
            eprintln!("bdhtm: failed to spawn {role}: {error}; {fallback}");
        }
        worker
    }

    /// Adds a thread to the group. The error is the caller's to report:
    /// a group that is merely narrower than asked for keeps running.
    pub(crate) fn add_thread(
        &mut self,
        name: String,
        body: impl FnOnce(&StopFlag) + Send + 'static,
    ) -> std::io::Result<()> {
        #[cfg(test)]
        {
            if tests::FAIL_SPAWNS.with(|f| f.get()) {
                return Err(std::io::Error::other("injected spawn failure"));
            }
        }
        let stop = StopFlag(Arc::clone(&self.stop));
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(&stop))?;
        self.handles.push(handle);
        Ok(())
    }

    /// Whether no thread is running (the spawn failed, or `stop` ran).
    pub(crate) fn is_inert(&self) -> bool {
        self.handles.is_empty()
    }

    /// Installs the hook `stop` runs between setting the flag and
    /// joining.
    pub(crate) fn set_wake(&mut self, wake: impl Fn() + Send + Sync + 'static) {
        self.wake = Some(Box::new(wake));
    }

    /// Requests stop and joins every thread. Idempotent; a no-op on an
    /// inert worker. A worker thread's panic is not re-raised here —
    /// this also runs from `Drop`, which must not panic.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(wake) = &self.wake {
            wake();
        }
        for h in self.handles.drain(..) {
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
        EpochConfig, EpochSys, EpochTicker, MetricsRegistry, Persister, Sampler, Watchdog,
        EPOCH_START,
    };
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::cell::Cell;

    thread_local! {
        /// While set, `add_thread` on this thread fails as if the OS
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

    /// `stop()` must not wait out the period: each of the three
    /// periodic workers, set to tick once an hour, stops within a few
    /// sleep slices.
    #[test]
    fn stop_does_not_wait_for_an_hour_long_period() {
        let hour = Duration::from_secs(3600);
        let es = esys(
            EpochConfig::manual()
                .with_epoch_len(hour)
                .with_watchdog_period(hour),
        );
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));

        let ticker = EpochTicker::spawn(Arc::clone(&es));
        let watchdog = Watchdog::spawn(Arc::clone(&es));
        let sampler = Sampler::spawn(reg, hour, |_, _, _| {});
        std::thread::sleep(SLICE); // let all three reach their sleep
        let t = Instant::now();
        ticker.stop();
        watchdog.stop();
        sampler.stop();
        assert!(
            t.elapsed() < 10 * SLICE,
            "three stops took {:?}",
            t.elapsed()
        );
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
        assert_eq!(es.persist_pool_workers(), 0, "nothing stays attached");
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
    fn inert_watchdog_and_sampler_stop_cleanly() {
        let es = esys(EpochConfig::manual());
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));
        let (watchdog, sampler) = with_failing_spawns(|| {
            (
                Watchdog::spawn(Arc::clone(&es)),
                Sampler::spawn(reg, Duration::from_millis(1), |_, _, _| {
                    panic!("an inert sampler has no thread to call its sink")
                }),
            )
        });
        watchdog.stop();
        drop(sampler);
    }
}
