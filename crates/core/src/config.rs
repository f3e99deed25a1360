//! Epoch-system configuration.

use crate::watchdog::WatchdogPolicy;
use std::time::Duration;

/// Width of the per-worker write-back telemetry (the obs
/// `persist_worker_words` gauge) and the ceiling on
/// [`EpochConfig::persist_workers`]. Workers beyond the ceiling are
/// clamped; telemetry slot 0 is the coordinator / inline-drain column.
pub const MAX_PERSIST_WORKERS: usize = 8;

/// Configuration of an [`EpochSys`](crate::EpochSys).
#[derive(Clone, Debug)]
pub struct EpochConfig {
    /// Target epoch length. The paper's default is 50 ms; §5.1 sweeps
    /// 1 µs – 10 s and finds 10–100 ms a robust choice. Only consumed by
    /// [`EpochTicker`](crate::EpochTicker); with manual advancement it is
    /// informational.
    pub epoch_len: Duration,
    /// Bound on the buffered (tracked-but-not-yet-flushed) word set.
    /// When non-zero, a thread entering [`EpochSys::begin_op`](crate::EpochSys::begin_op)
    /// (crate::EpochSys::begin_op) while the set exceeds the bound first
    /// helps advance the epoch, so dirty-set growth stays bounded even
    /// if the background ticker stalls. `0` disables backpressure.
    pub max_buffered_words: u64,
    /// Maximum sealed [`EpochBatch`](crate::EpochBatch)es in flight
    /// (queued or being written back) when a
    /// [`Persister`](crate::Persister) is attached. When the pipeline is
    /// full, [`EpochSys::advance`](crate::EpochSys::advance) stalls the
    /// *clock* — never the persister — until a batch completes, so the
    /// durable frontier can lag the clock by at most
    /// `pipeline_depth + 2`. Values below 1 behave as 1.
    pub pipeline_depth: usize,
    /// Write-back workers in the persister pool spawned by
    /// [`Persister::spawn`](crate::Persister::spawn): one coordinator
    /// draining the batch queue plus `persist_workers − 1` chunk
    /// workers the coordinator fans each batch's flush plan out to.
    /// `0` (the default) sizes the pool automatically from
    /// [`std::thread::available_parallelism`] (half the cores);
    /// see [`effective_persist_workers`](Self::effective_persist_workers).
    /// `1` reproduces the single serial persister. Capped at
    /// [`MAX_PERSIST_WORKERS`]. Parallelism is strictly within one
    /// batch — frontier publishes stay in epoch order at any setting.
    pub persist_workers: usize,
    /// Write-back retries per flush-plan chunk when the device returns
    /// a transient [`DeviceError`](nvm_sim::DeviceError). Each chunk
    /// (the whole plan, when serial) is attempted `1 + persist_retries`
    /// times with exponential backoff; any chunk exhausting its budget
    /// re-queues the whole batch and degrades the system (see
    /// [`HealthState`](crate::HealthState)). `0` means no retries.
    pub persist_retries: u32,
    /// Sampling period of an attached
    /// [`Watchdog`](crate::Watchdog): progress must be observable
    /// between two consecutive samples or the watchdog fires. Only
    /// consumed by [`Watchdog::spawn`](crate::Watchdog::spawn).
    pub watchdog_period: Duration,
    /// Escalation ceiling of an attached watchdog: consecutive firings
    /// escalate log → degrade → fail-stop, capped at this policy.
    pub watchdog_policy: WatchdogPolicy,
    /// Flight-recorder capacity, events per thread. The default
    /// ([`RING_SLOTS`](crate::obs::RING_SLOTS)) suits postmortem dumps;
    /// trace-export runs (`--trace-out`) raise it so the exported
    /// timeline covers the whole measured window instead of its last
    /// instants. Values below 1 behave as 1.
    pub flight_slots: usize,
}

impl Default for EpochConfig {
    fn default() -> Self {
        Self {
            epoch_len: Duration::from_millis(50),
            max_buffered_words: 0,
            pipeline_depth: 2,
            persist_workers: 0,
            persist_retries: 5,
            watchdog_period: Duration::from_millis(100),
            watchdog_policy: WatchdogPolicy::Degrade,
            flight_slots: crate::obs::RING_SLOTS,
        }
    }
}

impl EpochConfig {
    /// Configuration for tests that advance epochs by hand.
    pub fn manual() -> Self {
        Self::default()
    }

    /// Sets the epoch length (Fig. 7 / Fig. 8 sweeps).
    pub fn with_epoch_len(mut self, len: Duration) -> Self {
        self.epoch_len = len;
        self
    }

    /// Bounds the buffered word set (0 = unbounded): threads beginning an
    /// operation above the bound help advance the epoch first.
    pub fn with_max_buffered_words(mut self, words: u64) -> Self {
        self.max_buffered_words = words;
        self
    }

    /// Bounds the persist pipeline: at most `depth` sealed batches may
    /// be in flight before `advance` stalls the clock.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Sets the persister-pool width (see
    /// [`EpochConfig::persist_workers`]; 0 = auto).
    pub fn with_persist_workers(mut self, workers: usize) -> Self {
        self.persist_workers = workers;
        self
    }

    /// The pool width [`Persister::spawn`](crate::Persister::spawn)
    /// actually uses: `persist_workers` clamped to
    /// `1..=MAX_PERSIST_WORKERS`, with `0` resolved to half the
    /// machine's available parallelism.
    pub fn effective_persist_workers(&self) -> usize {
        let n = if self.persist_workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get() / 2)
                .unwrap_or(1)
        } else {
            self.persist_workers
        };
        n.clamp(1, MAX_PERSIST_WORKERS)
    }

    /// Sets the per-chunk write-back retry budget (see
    /// [`EpochConfig::persist_retries`]).
    pub fn with_persist_retries(mut self, retries: u32) -> Self {
        self.persist_retries = retries;
        self
    }

    /// Sets the watchdog sampling period (see
    /// [`EpochConfig::watchdog_period`]).
    pub fn with_watchdog_period(mut self, period: Duration) -> Self {
        self.watchdog_period = period;
        self
    }

    /// Sets the watchdog escalation ceiling (see
    /// [`EpochConfig::watchdog_policy`]).
    pub fn with_watchdog_policy(mut self, policy: WatchdogPolicy) -> Self {
        self.watchdog_policy = policy;
        self
    }

    /// Sets the flight-recorder capacity in events per thread (see
    /// [`EpochConfig::flight_slots`]).
    pub fn with_flight_slots(mut self, slots: usize) -> Self {
        self.flight_slots = slots;
        self
    }
}
