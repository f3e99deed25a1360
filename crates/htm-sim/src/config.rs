//! Configuration of the simulated best-effort HTM.

/// Tunable parameters of the simulated HTM implementation.
///
/// Defaults model a TSX-era Intel core: a 32 KiB 8-way L1D bounds the
/// speculative write set (512 lines), and the read set is tracked less
/// precisely in a larger structure (we model the paper's "L1 plus a
/// Bloom-filter summary of evicted lines" as a generous flat cap).
#[derive(Clone, Debug)]
pub struct HtmConfig {
    /// Maximum number of distinct cache lines a transaction may write
    /// before aborting with [`AbortCause::Capacity`](crate::AbortCause).
    pub write_capacity_lines: usize,
    /// Maximum number of (possibly duplicated) tracked reads before a
    /// capacity abort. TSX read sets are summarized imprecisely; we use a
    /// flat bound on tracked read entries.
    pub read_capacity_entries: usize,
    /// Probability (per transaction begin) of a spurious abort, modeling
    /// timer interrupts, page faults and other transient TSX events.
    pub spurious_abort_prob: f64,
    /// Probability (per transaction begin) of an `ABORTED_MEMTYPE`-style
    /// abort, reproducing the anomaly reported in §4.1 of the paper.
    /// The paper observed these mainly at low thread counts on one of its
    /// two machines; the probability here is applied unconditionally and
    /// can be set per experiment.
    pub memtype_abort_prob: f64,
    /// Retries inside [`Htm::run`](crate::Htm::run) before taking the
    /// global fallback lock.
    pub max_retries: u32,
    /// Seed of the begin-time abort injector (0 selects a fixed default
    /// seed). The injector is a seeded SplitMix64 stream owned by the
    /// `Htm` instance: each begin takes one draw while any of the four
    /// injection probabilities is non-zero, so the same seed replays the
    /// same abort schedule whichever threads drive it — the foundation
    /// of the fault-injection harness.
    pub abort_inject_seed: u64,
    /// Probability (per begin) of an injected
    /// [`AbortCause::Conflict`](crate::AbortCause) abort.
    pub conflict_abort_prob: f64,
    /// Probability (per begin) of an injected
    /// [`AbortCause::Capacity`](crate::AbortCause) abort.
    /// Capacity aborts are never retried more than once by
    /// [`Htm::run`](crate::Htm::run), so this steers work onto the
    /// fallback path quickly.
    pub capacity_abort_prob: f64,
    /// Base busy-wait spins between retries, doubled after each abort
    /// (exponential backoff, capped at 10 doublings). 0 = retry
    /// immediately, the behaviour before backoff existed.
    pub backoff_spins: u32,
}

impl Default for HtmConfig {
    fn default() -> Self {
        Self {
            write_capacity_lines: 512,
            read_capacity_entries: 1 << 16,
            spurious_abort_prob: 0.0,
            memtype_abort_prob: 0.0,
            max_retries: 16,
            abort_inject_seed: 0,
            conflict_abort_prob: 0.0,
            capacity_abort_prob: 0.0,
            backoff_spins: 0,
        }
    }
}

impl HtmConfig {
    /// A configuration with abort injection disabled and small tables,
    /// suitable for unit tests.
    pub fn for_tests() -> Self {
        Self::default()
    }

    /// Configuration reproducing the paper's troubled machine, where up to
    /// half of low-thread-count transactions aborted with MEMTYPE (§4.1).
    pub fn with_memtype_anomaly(mut self, prob: f64) -> Self {
        self.memtype_abort_prob = prob;
        self
    }

    /// Sets the spurious-abort probability.
    pub fn with_spurious(mut self, prob: f64) -> Self {
        self.spurious_abort_prob = prob;
        self
    }

    /// Seeds the abort injector: `seed` fixes the schedule (0 selects
    /// the default seed), and the three probabilities select the abort
    /// mix (spurious / conflict / capacity, each per transaction begin).
    pub fn with_abort_injection(
        mut self,
        seed: u64,
        spurious: f64,
        conflict: f64,
        capacity: f64,
    ) -> Self {
        self.abort_inject_seed = seed;
        self.spurious_abort_prob = spurious;
        self.conflict_abort_prob = conflict;
        self.capacity_abort_prob = capacity;
        self
    }

    /// Sets the retry budget of [`Htm::run`](crate::Htm::run).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the base exponential-backoff spin count between retries.
    pub fn with_backoff(mut self, spins: u32) -> Self {
        self.backoff_spins = spins;
        self
    }
}
