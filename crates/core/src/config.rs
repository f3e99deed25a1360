//! Epoch-system configuration.

use std::time::Duration;

/// Configuration of an [`EpochSys`](crate::EpochSys).
#[derive(Clone, Debug)]
pub struct EpochConfig {
    /// Target epoch length. The paper's default is 50 ms; §5.1 sweeps
    /// 1 µs – 10 s and finds 10–100 ms a robust choice. Only consumed by
    /// [`EpochTicker`](crate::EpochTicker); with manual advancement it is
    /// informational.
    pub epoch_len: Duration,
    /// Write-back retries per batch write-back when the device returns
    /// a transient [`DeviceError`](nvm_sim::DeviceError). The flush
    /// plan is attempted `1 + persist_retries` times with exponential
    /// backoff; exhausting the budget re-queues the whole batch and
    /// degrades the system (see [`HealthState`](crate::HealthState)).
    /// `0` means no retries.
    pub persist_retries: u32,
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
            persist_retries: 5,
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

    /// Accepts only `0`, the unbounded buffered set: the `begin_op`
    /// backpressure bound this used to set has been removed. Kept with
    /// its signature because the repo benchmark (`benchmark/run.rs`)
    /// still calls it; it goes once a benchmark-harness change drops
    /// that call.
    ///
    /// # Panics
    ///
    /// If `words` is not `0`.
    pub fn with_max_buffered_words(self, words: u64) -> Self {
        assert!(
            words == 0,
            "buffered-words backpressure was removed; only 0 (unbounded) is supported, got {words}"
        );
        self
    }

    /// Accepts any `depth ≥ 1` and changes nothing: the pipeline-depth
    /// bound this used to set has been removed. The persister seals
    /// every epoch, and the only stall left is structural (an advance
    /// may not reuse the arena generation of an unsealed epoch).
    /// Kept with its signature because the repo benchmark
    /// (`benchmark/run.rs`) still calls it; it goes once a
    /// benchmark-harness change drops that call.
    ///
    /// # Panics
    ///
    /// If `depth` is `0`, which never was a valid depth.
    pub fn with_pipeline_depth(self, depth: usize) -> Self {
        assert!(
            depth >= 1,
            "the pipeline-depth bound was removed; depth must still be at least 1, got {depth}"
        );
        self
    }

    /// Accepts only `0` or `1`, the single background persister: the
    /// persister pool this used to size has been removed. Kept with its
    /// signature because the repo benchmark (`benchmark/run.rs`) still
    /// calls it; it goes once a benchmark-harness change drops that
    /// call.
    ///
    /// # Panics
    ///
    /// If `workers` is above `1`.
    pub fn with_persist_workers(self, workers: usize) -> Self {
        assert!(
            workers <= 1,
            "the persister pool was removed; only one persist worker is supported, got {workers}"
        );
        self
    }

    /// Sets the write-back retry budget (see
    /// [`EpochConfig::persist_retries`]).
    pub fn with_persist_retries(mut self, retries: u32) -> Self {
        self.persist_retries = retries;
        self
    }

    /// Sets the flight-recorder capacity in events per thread (see
    /// [`EpochConfig::flight_slots`]).
    pub fn with_flight_slots(mut self, slots: usize) -> Self {
        self.flight_slots = slots;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::EpochConfig;

    #[test]
    fn kept_shims_accept_the_supported_values() {
        let _ = EpochConfig::manual()
            .with_persist_workers(0)
            .with_persist_workers(1)
            .with_max_buffered_words(0)
            .with_pipeline_depth(1)
            .with_pipeline_depth(2);
    }

    #[test]
    #[should_panic(expected = "pipeline-depth bound was removed")]
    fn pipeline_depth_zero_panics() {
        let _ = EpochConfig::manual().with_pipeline_depth(0);
    }

    #[test]
    #[should_panic(expected = "persister pool was removed")]
    fn persist_workers_above_one_panics() {
        let _ = EpochConfig::manual().with_persist_workers(2);
    }

    #[test]
    #[should_panic(expected = "buffered-words backpressure was removed")]
    fn nonzero_buffered_word_bound_panics() {
        let _ = EpochConfig::manual().with_max_buffered_words(256);
    }
}
