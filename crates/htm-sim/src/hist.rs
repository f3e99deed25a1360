//! Log₂-bucketed, per-thread-sharded histograms — the latency/size
//! distribution primitive behind `bdhtm-core`'s observability layer.
//!
//! A [`LogHistogram`] records `u64` samples (nanoseconds, block counts,
//! spin counts — the unit is the caller's) into 65 power-of-two buckets:
//! bucket 0 holds the value 0 and bucket `i ≥ 1` holds
//! `[2^(i−1), 2^i − 1]`. Recording costs a handful of *relaxed* stores
//! to a shard only the calling thread writes, so it is safe to put on
//! operation hot paths: no locks, no contended cache lines, no fences.
//!
//! Shards are allocated lazily on a thread's first record, so a
//! histogram costs one pointer per potential thread until a thread
//! actually uses it — important for harnesses (the fault sweep) that
//! build thousands of short-lived instrumented systems.
//!
//! Quantiles reported by [`HistSnapshot::quantile`] are upper bounds of
//! the containing bucket (clamped to the observed max): with log₂
//! buckets the reported p99 is within 2x of the true p99, which is the
//! resolution regime latency work cares about (orders, not digits).

use crate::tid::{thread_id, MAX_THREADS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of buckets: value 0, plus one per bit of a `u64`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket a value falls into: 0 → 0, otherwise `bits(v)`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (its reported upper bound).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

struct Shard {
    buckets: [AtomicU64; HIST_BUCKETS],
    // No separate count: it is always the bucket total. Keeping a second
    // counter would let a concurrent snapshot (the metrics sampler) see
    // the two out of sync mid-record; deriving it makes every snapshot's
    // `count == Σ buckets` hold by construction.
    sum: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A concurrent log₂ histogram. Each thread records into its own
/// lazily-allocated shard (separate heap allocations, so no false
/// sharing); [`LogHistogram::snapshot`] folds all shards.
pub struct LogHistogram {
    shards: Box<[OnceLock<Box<Shard>>]>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            shards: (0..MAX_THREADS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Records one sample. Relaxed per-thread writes only.
    #[inline]
    pub fn record(&self, value: u64) {
        let s = self.shards[thread_id()].get_or_init(|| Box::new(Shard::new()));
        s.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records `n` samples of the same value in one shot (bulk folding,
    /// e.g. one durability-lag bin's commits). Equivalent to
    /// `n` calls to [`record`](Self::record) except that `sum` saturates
    /// instead of wrapping if `value * n` overflows a `u64`.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let s = self.shards[thread_id()].get_or_init(|| Box::new(Shard::new()));
        s.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        s.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Aggregates every shard into an owned snapshot. Safe to call
    /// concurrently with recorders: `count` is derived from the bucket
    /// totals, so it can never disagree with them, even mid-record.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut t = HistSnapshot::default();
        for slot in self.shards.iter() {
            if let Some(s) = slot.get() {
                t.sum += s.sum.load(Ordering::Relaxed);
                t.max = t.max.max(s.max.load(Ordering::Relaxed));
                for (i, b) in s.buckets.iter().enumerate() {
                    t.buckets[i] += b.load(Ordering::Relaxed);
                }
            }
        }
        t.count = t.buckets.iter().sum();
        t
    }

    /// Zeroes every allocated shard (between benchmark phases).
    pub fn reset(&self) {
        for slot in self.shards.iter() {
            if let Some(s) = slot.get() {
                s.sum.store(0, Ordering::Relaxed);
                s.max.store(0, Ordering::Relaxed);
                for b in s.buckets.iter() {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Aggregated view of a [`LogHistogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all sample values (for the mean).
    pub sum: u64,
    /// Largest sample observed.
    pub max: u64,
    /// Bucket counts: `buckets[0]` holds zeros, `buckets[i]` holds
    /// `[2^(i−1), 2^i − 1]`.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The value at quantile `q ∈ [0, 1]`, reported as the upper bound
    /// of the containing log₂ bucket, clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Difference of two snapshots (self − earlier), saturating per
    /// field so a reset between snapshots cannot underflow. The delta's
    /// `count` is the delta buckets' total, keeping `count == Σ buckets`
    /// an invariant of deltas too (a plain count subtraction would break
    /// it when a reset saturated some buckets but not the count).
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut d = HistSnapshot {
            count: 0,
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: [0; HIST_BUCKETS],
        };
        for i in 0..HIST_BUCKETS {
            d.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        d.count = d.buckets.iter().sum();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Each bucket's upper bound lands back in its own bucket.
        for i in 1..64 {
            assert_eq!(bucket_of(bucket_upper(i)), i, "bucket {i}");
            assert_eq!(bucket_of(bucket_upper(i) + 1), i + 1, "bucket {i}+1");
        }
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = LogHistogram::new();
        // 90 fast samples (value 10, bucket [8,15]) + 10 slow (1000).
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 10 + 10 * 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.p50(), 15, "p50 is the upper bound of [8,15]");
        assert_eq!(s.quantile(0.90), 15);
        // p95/p99 land in the slow bucket [512,1023], clamped to max.
        assert_eq!(s.p95(), 1000);
        assert_eq!(s.p99(), 1000);
        assert_eq!(s.quantile(0.0), 15, "rank clamps to the first sample");
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_and_zero_samples() {
        let h = LogHistogram::new();
        assert_eq!(h.snapshot().p99(), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.p50(), 0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for _ in 0..7 {
            a.record(300);
        }
        b.record_n(300, 7);
        b.record_n(300, 0); // no-op
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.count, sb.count);
        assert_eq!(sa.sum, sb.sum);
        assert_eq!(sa.max, sb.max);
        assert_eq!(sa.buckets, sb.buckets);
    }

    #[test]
    fn since_saturates_across_reset() {
        let h = LogHistogram::new();
        h.record(100);
        h.record(100);
        let before = h.snapshot();
        h.reset();
        h.record(100);
        let after = h.snapshot();
        let d = after.since(&before);
        assert_eq!(d.count, 0, "must saturate, not underflow");
        assert_eq!(d.sum, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let threads = 4;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per {
                        h.record(t * 1000 + i % 64);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, threads * per);
    }
}
