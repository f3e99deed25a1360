//! Per-op commit→durable span collection, the source of the
//! `durability_lag_ns` histogram: each committing thread counts its
//! commit into a time bin of its op's epoch; when that epoch's batch
//! publishes the frontier, `complete_batch` folds `t_publish − t_bin`
//! for every counted commit into the histogram.

use htm_sim::{max_threads, thread_id, LogHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Epoch generations a lag shard distinguishes. Must exceed the worst
/// frontier lag of a healthy system (`pipeline_depth + 2`, default 4)
/// so a slot is never reused before its epoch publishes; reuse beyond
/// that (deep Degraded stalls, a FailStop-pinned frontier) is detected
/// by the epoch tag and counted as dropped spans, never mis-folded.
const LAG_GENS: usize = 8;

/// Time bins per thread per epoch. Together they span at least four
/// epoch lengths from the thread's first commit in the epoch; commits
/// later than that (a clock stalled behind a full pipeline) share the
/// last bin.
const LAG_BINS: usize = 256;

/// Lag-slot epoch tag meaning "never used".
const LAG_EMPTY: u64 = u64::MAX;

/// One epoch's commit counts for one thread, binned by commit time. The
/// owning thread is the only writer; the publisher (whoever runs
/// `complete_batch` for this epoch) only reads. All fields are atomics
/// so the one pathological race — an owner recycling the slot for epoch
/// `e + LAG_GENS` while the publisher still folds epoch `e` — is a
/// coherence question, not UB; the publisher's tag check bounds the
/// damage to miscounting a handful of spans in an already-failed run.
struct LagSlot {
    /// The epoch whose commits this slot holds ([`LAG_EMPTY`] = unused).
    epoch: AtomicU64,
    /// The owner's first commit time in `epoch`, nanoseconds since the
    /// `Obs` origin: where bin 0 starts.
    first_ns: AtomicU64,
    /// Commits per bin; bin `i` starts at `first_ns + i · bin width`.
    bins: [AtomicU64; LAG_BINS],
}

type LagShard = [LagSlot; LAG_GENS];

/// The tracker. A commit is attributed to the *start* of its bin, so a
/// folded lag is never below the true one and exceeds it by less than
/// one bin width (a power of two in `[epoch_len/64, epoch_len/32)`).
///
/// Why the publisher may read the owner's relaxed stores: every commit
/// in epoch `r` happens-before the seal of `r` (the op's Release
/// deregister is observed by the sealer's SeqCst straggler scan),
/// which happens-before the publish (batch hand-off through the
/// pipeline mutex). Slot *reuse* is the only access outside that
/// ordering, and the epoch tag guards it.
pub(super) struct LagTracker {
    shards: Box<[OnceLock<Box<LagShard>>]>,
    /// log₂ of the bin width in nanoseconds.
    bin_shift: u32,
    /// Spans whose epoch was recycled before it ever published
    /// (frontier pinned by FailStop, or lag beyond [`LAG_GENS`]). These
    /// ops committed but their durability was never observed — counting
    /// them as zero or infinite lag would both lie, so they are counted
    /// here and surfaced as `derived.lag_spans_dropped`.
    dropped: AtomicU64,
}

impl LagTracker {
    /// A tracker whose bins resolve `epoch_len / 64` or finer up to a
    /// factor of two (bounded so bin offsets cannot overflow).
    pub(super) fn new(epoch_len: Duration) -> Self {
        let width = (epoch_len.as_nanos() / 64).clamp(1, 1 << 40) as u64;
        LagTracker {
            shards: (0..max_threads()).map(|_| OnceLock::new()).collect(),
            bin_shift: width.next_power_of_two().trailing_zeros(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Counts one commit at `t_ns` for `epoch` on the calling thread.
    /// `frontier` is the durable frontier at the time of the call; it
    /// decides whether a recycled slot's old spans were published
    /// (already folded) or lost (count as dropped).
    #[inline]
    pub(super) fn record_commit(&self, epoch: u64, t_ns: u64, frontier: u64) {
        let shard = self.shards[thread_id()].get_or_init(|| {
            Box::new(std::array::from_fn(|_| LagSlot {
                epoch: AtomicU64::new(LAG_EMPTY),
                first_ns: AtomicU64::new(0),
                bins: std::array::from_fn(|_| AtomicU64::new(0)),
            }))
        });
        let slot = &shard[(epoch % LAG_GENS as u64) as usize];
        let tag = slot.epoch.load(Ordering::Relaxed);
        if tag != epoch {
            let mut lost = 0;
            for bin in &slot.bins {
                lost += bin.load(Ordering::Relaxed);
                bin.store(0, Ordering::Relaxed);
            }
            if tag != LAG_EMPTY && tag > frontier {
                self.dropped.fetch_add(lost, Ordering::Relaxed);
            }
            slot.first_ns.store(t_ns, Ordering::Relaxed);
            // Release: a publisher that acquires the new tag must also
            // see the cleared bins, not the old epoch's.
            slot.epoch.store(epoch, Ordering::Release);
        }
        let since_first = t_ns.saturating_sub(slot.first_ns.load(Ordering::Relaxed));
        let bin = &slot.bins[((since_first >> self.bin_shift) as usize).min(LAG_BINS - 1)];
        // Owner-only counter: a plain load + store, no RMW.
        bin.store(bin.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Folds every thread's spans for `epoch` into `hist` as
    /// `now_ns − bin start`. Called by `complete_batch` with the publish
    /// timestamp, before the frontier mirror moves. Returns the number
    /// of spans folded.
    pub(super) fn fold_epoch(&self, epoch: u64, now_ns: u64, hist: &LogHistogram) -> u64 {
        let mut folded = 0u64;
        for shard in self.shards.iter().filter_map(|s| s.get()) {
            let slot = &shard[(epoch % LAG_GENS as u64) as usize];
            if slot.epoch.load(Ordering::Acquire) != epoch {
                continue;
            }
            let first_ns = slot.first_ns.load(Ordering::Relaxed);
            for (i, bin) in slot.bins.iter().enumerate() {
                let n = bin.load(Ordering::Relaxed);
                let bin_start = first_ns + ((i as u64) << self.bin_shift);
                hist.record_n(now_ns.saturating_sub(bin_start), n);
                folded += n;
            }
        }
        folded
    }

    pub(super) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPOCH_LEN: Duration = Duration::from_millis(50);

    #[test]
    fn lag_spans_fold_into_the_histogram_on_publish() {
        let (lag, hist) = (LagTracker::new(EPOCH_LEN), LogHistogram::new());
        lag.record_commit(2, 1_000, 0);
        lag.record_commit(2, 2_000, 0);
        lag.record_commit(3, 3_000, 0); // a later epoch, different slot
        assert_eq!(lag.fold_epoch(2, 10_000, &hist), 2, "exactly epoch 2's");
        assert_eq!(hist.snapshot().count, 2);
        assert_eq!(lag.dropped(), 0);
        assert_eq!(lag.fold_epoch(3, 10_000, &hist), 1, "epoch 3 is its own");
    }

    #[test]
    fn lag_slot_recycled_before_publish_counts_dropped() {
        let (lag, hist) = (LagTracker::new(EPOCH_LEN), LogHistogram::new());
        // Epoch 2 commits, never publishes (frontier stays 0), and the
        // owner reuses the slot LAG_GENS epochs later — the span must be
        // counted as dropped, not silently lost or mis-folded.
        lag.record_commit(2, 1_000, 0);
        lag.record_commit(2 + LAG_GENS as u64, 2_000, 0);
        assert_eq!(lag.dropped(), 1);
        // The recycling epoch's own span is intact.
        assert_eq!(lag.fold_epoch(2 + LAG_GENS as u64, 3_000, &hist), 1);
    }

    #[test]
    fn lag_slot_recycled_after_publish_is_not_dropped() {
        let (lag, hist) = (LagTracker::new(EPOCH_LEN), LogHistogram::new());
        lag.record_commit(2, 1_000, 0);
        assert_eq!(lag.fold_epoch(2, 2_000, &hist), 1);
        // Frontier has passed epoch 2 by the time the slot recycles:
        // the publisher already folded it, so nothing was dropped.
        lag.record_commit(2 + LAG_GENS as u64, 3_000, 5);
        assert_eq!(lag.dropped(), 0);
    }

    /// The traffic of a `BENCHMARK.json` write workload: ten thousand
    /// commits spread over one epoch. Every one must reach the histogram
    /// at (nearly) its own lag — not all at one averaged timestamp.
    #[test]
    fn a_busy_epoch_keeps_its_lag_distribution() {
        let (lag, hist) = (LagTracker::new(EPOCH_LEN), LogHistogram::new());
        let (n, step_ns, publish_ns) = (10_000u64, 5_000u64, 60_000_000u64);
        let commit_ns = |i: u64| 1_000_000 + i * step_ns; // spans 50 ms
        for i in 0..n {
            lag.record_commit(2, commit_ns(i), 0);
        }
        assert_eq!(lag.fold_epoch(2, publish_ns, &hist), n);
        let snap = hist.snapshot();
        assert_eq!(snap.count, n, "every commit folds exactly once");
        let buckets = snap.buckets.iter().filter(|&&c| c != 0).count();
        assert!(buckets > 1, "lags of 9–59 ms must not share one bucket");
        // Attributed to its bin's start, a commit's lag is never under-
        // reported and is over-reported by less than one bin width.
        let true_sum: u64 = (0..n).map(|i| publish_ns - commit_ns(i)).sum();
        let width = 1u64 << lag.bin_shift;
        assert!(width < EPOCH_LEN.as_nanos() as u64 / 32);
        assert!(snap.sum >= true_sum);
        assert!(snap.sum < true_sum + n * width);
        assert_eq!(snap.max, publish_ns - commit_ns(0));
    }

    #[test]
    fn commits_past_the_binned_span_share_the_last_bin() {
        let (lag, hist) = (LagTracker::new(EPOCH_LEN), LogHistogram::new());
        let span = (LAG_BINS as u64) << lag.bin_shift;
        lag.record_commit(2, 0, 0);
        lag.record_commit(2, 3 * span, 0);
        assert_eq!(lag.fold_epoch(2, 4 * span, &hist), 2);
        let snap = hist.snapshot();
        assert_eq!(snap.max, 4 * span, "the first commit at its own time");
        // The late one counts from the last bin's start: over-reported,
        // never under-reported.
        let last_bin_start = span - (1 << lag.bin_shift);
        assert_eq!(snap.sum, 4 * span + (4 * span - last_bin_start));
    }
}
