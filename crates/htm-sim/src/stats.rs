//! Sharded commit/abort statistics — the data source for Fig. 2 of the
//! paper (HTM commit and abort-cause breakdown) — and
//! [`counters!`](crate::counters), the one declaration the workspace's
//! other counter sets are generated from.

use crate::tid::PerThread;
use crate::txn::AbortCause;
use std::sync::atomic::{AtomicU64, Ordering};

const N_CAUSES: usize = AbortCause::COUNT;

/// Declares a set of monotone `u64` counters once. From the field list
/// it generates the atomics struct (`pub(crate)` fields, so increment
/// sites name them directly) with `add_to` and `reset`, and the snapshot
/// struct with the same `pub` field names, the saturating `since`, the
/// `FIELDS` name list and the `fields()` name/value view that reports,
/// `metrics_check` and the round-trip tests walk. A counter added here
/// cannot be left out of any of them.
#[macro_export]
macro_rules! counters {
    (
        $(#[$am:meta])* $avis:vis struct $atomics:ident;
        $(#[$sm:meta])* $svis:vis struct $snap:ident {
            $($(#[$fm:meta])* $f:ident,)*
        }
    ) => {
        $(#[$am])*
        #[derive(Default)]
        $avis struct $atomics {
            $(pub(crate) $f: ::std::sync::atomic::AtomicU64,)*
        }

        impl $atomics {
            /// Adds every counter into `t` (one shard's share of a snapshot).
            pub(crate) fn add_to(&self, t: &mut $snap) {
                $(t.$f += self.$f.load(::std::sync::atomic::Ordering::Relaxed);)*
            }

            /// Zeroes every counter (between benchmark phases).
            pub fn reset(&self) {
                $(self.$f.store(0, ::std::sync::atomic::Ordering::Relaxed);)*
            }
        }

        $(#[$sm])*
        #[derive(Clone, Copy, Default, Debug)]
        $svis struct $snap {
            $($(#[$fm])* pub $f: u64,)*
        }

        impl $snap {
            /// Counter names, in declaration (and report) order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($f)),*];

            /// Every counter as `(name, value)`, in [`FIELDS`](Self::FIELDS) order.
            pub fn fields(&self) -> [(&'static str, u64); $snap::FIELDS.len()] {
                [$((stringify!($f), self.$f)),*]
            }

            /// Difference of two snapshots (self - earlier). Saturating per
            /// field: a `reset()` between the two snapshots yields zeros
            /// instead of a debug-build underflow panic.
            pub fn since(&self, e: &$snap) -> $snap {
                $snap {
                    $($f: self.$f.saturating_sub(e.$f),)*
                }
            }
        }
    };
}

#[derive(Default)]
struct Shard {
    commits: AtomicU64,
    fallbacks: AtomicU64,
    aborts: [AtomicU64; N_CAUSES],
}

/// Per-thread sharded counters of transaction outcomes.
#[derive(Default)]
pub struct HtmStats {
    shards: PerThread<Shard>,
}

impl HtmStats {
    #[inline]
    pub(crate) fn record_commit(&self) {
        self.shards.mine().commits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_abort(&self, cause: AbortCause) {
        self.shards.mine().aborts[cause.index()].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_fallback(&self) {
        self.shards.mine().fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregates all shards into a snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for shard in self.shards.iter() {
            s.commits += shard.commits.load(Ordering::Relaxed);
            s.fallbacks += shard.fallbacks.load(Ordering::Relaxed);
            for (i, a) in shard.aborts.iter().enumerate() {
                s.aborts[i] += a.load(Ordering::Relaxed);
            }
        }
        s
    }

    /// Resets every counter to zero (between benchmark phases).
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.commits.store(0, Ordering::Relaxed);
            shard.fallbacks.store(0, Ordering::Relaxed);
            for a in shard.aborts.iter() {
                a.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Aggregated view of [`HtmStats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct StatsSnapshot {
    /// Successfully committed transactions.
    pub commits: u64,
    /// Operations that fell back to the global lock.
    pub fallbacks: u64,
    /// Abort counts indexed by [`AbortCause::index`].
    pub aborts: [u64; N_CAUSES],
}

impl StatsSnapshot {
    /// Scalar counter names (the per-cause `aborts` array is reported
    /// under [`AbortCause::label`] keys instead).
    pub const FIELDS: &'static [&'static str] = &["commits", "fallbacks"];

    /// The scalar counters as `(name, value)`, the view every
    /// [`counters!`](crate::counters) snapshot also has.
    pub fn fields(&self) -> [(&'static str, u64); 2] {
        [("commits", self.commits), ("fallbacks", self.fallbacks)]
    }

    /// Total transaction attempts (commits + aborts).
    pub fn attempts(&self) -> u64 {
        self.commits + self.total_aborts()
    }

    /// Total aborts across all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborts attributed to a specific cause.
    pub fn aborts_of(&self, cause: AbortCause) -> u64 {
        self.aborts[cause.index()]
    }

    /// Fraction of attempts that committed, in `[0, 1]`.
    pub fn commit_ratio(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            return 1.0;
        }
        self.commits as f64 / attempts as f64
    }

    /// Difference of two snapshots (self - earlier), for measuring a phase.
    /// Saturating per field: a `reset()` between the two snapshots yields
    /// zeros instead of a debug-build underflow panic.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut s = *self;
        s.commits = s.commits.saturating_sub(earlier.commits);
        s.fallbacks = s.fallbacks.saturating_sub(earlier.fallbacks);
        for i in 0..N_CAUSES {
            s.aborts[i] = s.aborts[i].saturating_sub(earlier.aborts[i]);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates() {
        let st = HtmStats::default();
        st.record_commit();
        st.record_commit();
        st.record_abort(AbortCause::Conflict);
        st.record_fallback();
        let s = st.snapshot();
        assert_eq!(s.commits, 2);
        assert_eq!(s.total_aborts(), 1);
        assert_eq!(s.aborts_of(AbortCause::Conflict), 1);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.attempts(), 3);
        assert!((s.commit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let st = HtmStats::default();
        st.record_commit();
        st.reset();
        assert_eq!(st.snapshot().attempts(), 0);
    }

    #[test]
    fn since_saturates_across_reset() {
        let st = HtmStats::default();
        st.record_commit();
        st.record_abort(AbortCause::Conflict);
        let before = st.snapshot();
        st.reset();
        st.record_commit();
        let d = st.snapshot().since(&before);
        assert_eq!(d.commits, 0);
        assert_eq!(d.total_aborts(), 0);
    }
}
