//! NVM simulation parameters.

/// Configuration of a simulated NVM device.
#[derive(Clone, Debug)]
pub struct NvmConfig {
    /// Heap capacity in bytes (rounded up to a whole number of lines).
    pub capacity_bytes: usize,
    /// Persistent cache (Intel eADR): the volatile image survives crashes
    /// and `clwb` becomes a non-aborting hint.
    pub eadr: bool,
    /// Extra latency charged to each media-touching read, in ns. On
    /// Optane, reads are ~3x DRAM latency; we charge this on every
    /// [`NvmHeap::read`](crate::NvmHeap::read) as an average-case model.
    pub read_ns: u64,
    /// Extra latency charged when a cache line is written back to media
    /// (`clwb` retirement), in ns. Optane write latency is ~10x DRAM.
    pub writeback_ns: u64,
    /// Latency of a draining fence (`sfence` after `clwb`s), in ns.
    pub fence_ns: u64,
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self::for_tests(64 << 20)
    }
}

impl NvmConfig {
    /// Zero-latency configuration for unit tests: full failure-model
    /// semantics, no time dilation.
    pub fn for_tests(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            eadr: false,
            read_ns: 0,
            writeback_ns: 0,
            fence_ns: 0,
        }
    }

    /// Optane-like cost ratios (first-generation DCPMM, per the PerMA /
    /// Gugnani et al. characterizations cited in the paper): ~300 ns
    /// media reads, ~10x-DRAM write-backs, ~500 ns drain fences.
    pub fn optane(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            eadr: false,
            read_ns: 250,
            writeback_ns: 700,
            fence_ns: 500,
        }
    }

    /// The same device with a persistent cache (eADR platform).
    pub fn optane_eadr(capacity_bytes: usize) -> Self {
        Self {
            eadr: true,
            ..Self::optane(capacity_bytes)
        }
    }

    /// Enables eADR mode.
    pub fn with_eadr(mut self, eadr: bool) -> Self {
        self.eadr = eadr;
        self
    }
}
