//! Sharded NVM traffic counters: the data behind the paper's write-
//! amplification and bandwidth discussion (§5.1) and the space figures.

use htm_sim::sync::CachePadded;
use htm_sim::{max_threads, thread_id};
use std::sync::atomic::{AtomicU64, Ordering};

htm_sim::counters! {
    /// One thread's traffic counters.
    struct ShardCounters;
    /// Aggregated NVM traffic.
    pub struct NvmStatsSnapshot {
        /// Word reads from the heap.
        reads,
        /// Word writes to the heap (volatile image).
        writes,
        /// Word compare-and-swaps on the heap.
        cas_ops,
        /// `clwb` instructions retired (eADR hints included).
        flushes,
        /// Cache lines actually copied to media.
        lines_written_back,
        /// Distinct 256 B XPLines charged (write-combining model).
        xplines_touched,
        /// Draining fences.
        fences,
        /// Lines written back by simulated cache eviction.
        evicted_lines,
    }
}

#[derive(Default)]
struct Shard {
    counters: ShardCounters,
    /// Last XPLine this thread wrote back, for coalescing accounting.
    last_xpline: AtomicU64,
}

/// Lets the `record_*` sites name a counter as `shard.reads`.
impl std::ops::Deref for Shard {
    type Target = ShardCounters;

    fn deref(&self) -> &ShardCounters {
        &self.counters
    }
}

/// Per-thread sharded NVM traffic counters.
pub struct NvmStats {
    shards: Box<[CachePadded<Shard>]>,
}

impl Default for NvmStats {
    fn default() -> Self {
        Self::new()
    }
}

impl NvmStats {
    pub fn new() -> Self {
        let shards = (0..max_threads())
            .map(|_| CachePadded::new(Shard::default()))
            .collect::<Vec<_>>();
        Self {
            shards: shards.into_boxed_slice(),
        }
    }

    #[inline]
    fn me(&self) -> &Shard {
        &self.shards[thread_id()]
    }

    #[inline]
    pub(crate) fn record_read(&self) {
        self.me().reads.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_write(&self) {
        self.me().writes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_cas(&self) {
        self.me().cas_ops.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_fence(&self) {
        self.me().fences.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_eviction(&self, lines: u64) {
        self.me().evicted_lines.fetch_add(lines, Ordering::Relaxed);
    }

    /// Records one line written back to media. `xpline` is the 256 B media
    /// block the line belongs to; a write-back lands in a *new* XPLine
    /// (from this thread's point of view) only when it differs from the
    /// previous one, modelling the on-DIMM write-combining buffer that
    /// makes sequential flushes cheap and scattered flushes amplified.
    #[inline]
    pub(crate) fn record_writeback(&self, xpline: u64) {
        let s = self.me();
        s.flushes.fetch_add(1, Ordering::Relaxed);
        s.lines_written_back.fetch_add(1, Ordering::Relaxed);
        // +1 so xpline 0 is distinguishable from the initial sentinel.
        if s.last_xpline.swap(xpline + 1, Ordering::Relaxed) != xpline + 1 {
            s.xplines_touched.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Aggregates all shards.
    pub fn snapshot(&self) -> NvmStatsSnapshot {
        let mut t = NvmStatsSnapshot::default();
        for s in self.shards.iter() {
            s.add_to(&mut t);
        }
        t
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.counters.reset();
            s.last_xpline.store(0, Ordering::Relaxed);
        }
    }
}

impl NvmStatsSnapshot {
    /// Bytes actually transferred to the media, at XPLine granularity —
    /// the quantity Optane wear and bandwidth are governed by.
    pub fn media_bytes(&self) -> u64 {
        self.xplines_touched * 256
    }

    /// Write amplification: media bytes per byte of line payload flushed.
    pub fn write_amplification(&self) -> f64 {
        let logical = self.lines_written_back * 64;
        if logical == 0 {
            return 1.0;
        }
        self.media_bytes() as f64 / logical as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_saturates_across_reset() {
        let st = NvmStats::new();
        st.record_write();
        st.record_writeback(3);
        let before = st.snapshot();
        st.reset();
        st.record_write();
        let d = st.snapshot().since(&before);
        assert_eq!(d.writes, 0);
        assert_eq!(d.flushes, 0);
        assert_eq!(d.xplines_touched, 0);
    }
}
