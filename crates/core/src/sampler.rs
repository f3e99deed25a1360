//! The background metrics sampler: a sibling of the epoch ticker and
//! the persister that turns end-of-run metrics blobs into time series.
//!
//! A [`Sampler`] owns a thread that snapshots a [`MetricsRegistry`] on
//! a fixed interval, computes the delta against the previous snapshot
//! ([`MetricsReport::since`]), and hands each delta to a caller-supplied
//! sink. The bench harness streams the deltas as JSON-lines
//! (`--metrics-series`, one [`series_line`](crate::obs::series_line)
//! per sample), which is what lets a run show *when* durability lag
//! spiked or the health ladder ratcheted, not just that it happened.
//!
//! Sampling is read-only and off every hot path: each tick folds the
//! registry's histogram shards and counters exactly like an end-of-run
//! report does, on the sampler's own thread.

use crate::obs::{MetricsRegistry, MetricsReport};
use crate::worker::Worker;
use std::time::{Duration, Instant};

/// Owns the background sampling thread. Stops (and joins) on drop; the
/// final partial interval is always flushed, so even a run shorter than
/// one interval produces at least one sample.
pub struct Sampler {
    worker: Worker,
}

impl Sampler {
    /// Spawns the sampler. Falls back to an inert sampler with a logged
    /// warning if the OS cannot spawn the thread — the run simply
    /// produces no series, which degrades observability but nothing
    /// else.
    pub fn spawn(
        registry: MetricsRegistry,
        interval: Duration,
        mut sink: impl FnMut(u64, u64, &MetricsReport) + Send + 'static,
    ) -> Sampler {
        let interval = interval.max(Duration::from_millis(1));
        // Baseline on the caller's thread, before the worker exists:
        // every event after spawn() returns lands in some delta, even
        // ones racing the worker's startup.
        let origin = Instant::now();
        let mut baseline = registry.report();
        let worker = Worker::spawn(
            "metrics sampler",
            "metrics series disabled for this run",
            move |stop| {
                let mut seq = 0u64;
                loop {
                    let stopping = stop.sleep_or_stop(interval);
                    let now = registry.report();
                    let delta = now.since(&baseline);
                    sink(origin.elapsed().as_nanos() as u64, seq, &delta);
                    baseline = now;
                    seq += 1;
                    if stopping {
                        break;
                    }
                }
            },
        );
        Sampler { worker }
    }

    /// Stops the sampler, flushes the final partial interval, and joins.
    pub fn stop(mut self) {
        self.worker.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EpochConfig;
    use crate::esys::EpochSys;
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};

    #[test]
    fn sampler_emits_deltas_and_flushes_on_stop() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));

        let lines: Arc<Mutex<Vec<(u64, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let lines2 = Arc::clone(&lines);
        let sampler = Sampler::spawn(reg, Duration::from_millis(10), move |t_ns, seq, delta| {
            let advances = delta.epoch.map(|e| e.advances).unwrap_or(0);
            lines2.lock().unwrap().push((t_ns, seq, advances));
        });

        es.advance();
        es.advance();
        std::thread::sleep(Duration::from_millis(35));
        es.advance();
        sampler.stop();

        let lines = lines.lock().unwrap();
        assert!(!lines.is_empty(), "stop must flush at least one sample");
        // Sequence numbers are dense and timestamps monotone.
        for (i, &(_, seq, _)) in lines.iter().enumerate() {
            assert_eq!(seq, i as u64);
        }
        assert!(lines.windows(2).all(|w| w[0].0 <= w[1].0));
        // Deltas, not totals: advances across all samples sum to the
        // true count instead of each sample repeating it.
        let total: u64 = lines.iter().map(|&(_, _, a)| a).sum();
        assert_eq!(total, es.stats().snapshot().advances);
    }

    #[test]
    fn short_run_still_produces_a_sample() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(2 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        let mut reg = MetricsRegistry::new();
        reg.attach_esys(Arc::clone(&es));
        let n = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let sampler = Sampler::spawn(reg, Duration::from_secs(3600), move |_, _, _| {
            n2.fetch_add(1, Ordering::Relaxed);
        });
        sampler.stop(); // stop long before the interval elapses
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }
}
