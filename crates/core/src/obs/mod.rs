//! Observability for the BDL stack, one mechanism per file:
//!
//! * `flight` — the lifecycle event vocabulary and the lock-free
//!   per-thread ring buffer of recent events ([`FlightRecorder`]);
//! * `lag` — per-op commit→durable spans, folded into the
//!   `durability_lag_ns` histogram when their epoch publishes;
//! * `report` — [`MetricsRegistry`] / [`MetricsReport`]: one snapshot
//!   call that folds HTM, NVM, epoch, allocator and histogram data into
//!   a stable, versioned JSON document;
//! * `json` — the writer behind every JSON artifact and [`JsonValue`],
//!   the parser the round-trip tests and `metrics_check` read them with.
//!
//! This file holds [`Obs`], the bundle every [`EpochSys`](crate::EpochSys)
//! carries. Each vocabulary is declared exactly once and everything
//! else iterates the declaration: counters by `htm_sim::counters!`,
//! events by the `events!` table in `flight.rs`, histograms by the
//! `histograms!` table below (DESIGN.md §6).
//!
//! The paper's argument is quantitative — Fig. 2's abort-cause
//! breakdown, §5.1's write amplification, Fig. 7's epoch-length
//! sensitivity — so everything on the hot path costs only relaxed
//! per-thread writes, and the pinned fault-sweep digest and bench
//! throughput are unaffected by the instrumentation.

mod flight;
mod json;
pub(crate) mod lag;
mod report;

pub(crate) use flight::{abort_cause, health_label, Arg, Track};
pub use flight::{EventKind, FlightEvent, FlightRecorder, ABORT_RESTART, ABORT_UNWIND, RING_SLOTS};
pub use json::JsonValue;
pub(crate) use json::JsonWriter;
pub use report::{
    series_line, DerivedGauges, MetricsRegistry, MetricsReport, NamedHist, METRICS_SCHEMA,
    METRICS_SERIES_SCHEMA, METRICS_VERSION,
};

use crate::config::EpochConfig;
use htm_sim::LogHistogram;
use lag::LagTracker;
use std::time::Instant;

/// Declares [`Obs`] and its histograms: per row, the field the
/// recording site names, its accessor, and its `(name, unit)` identity
/// in [`Obs::HISTOGRAMS`] and [`Obs::histograms`], which the report
/// walks — so a new histogram is one row here plus its `record` call.
macro_rules! histograms {
    ($($(#[$doc:meta])* $name:ident: $unit:literal,)*) => {
        /// Instrumentation carried by every [`EpochSys`](crate::EpochSys):
        /// latency/size histograms, the durability-lag tracker, and the
        /// flight recorder. All four `BdlKv` structures inherit it through
        /// `run_op`; the epoch ticker and the persist pipeline feed it
        /// from inside the epoch system itself. The recorder
        /// and the lag tracker share one `origin` instant, so flight-event
        /// timestamps and lag spans live on the same timeline (what makes
        /// the exported trace's lag arrows line up with the op tracks).
        pub struct Obs {
            origin: Instant,
            recorder: FlightRecorder,
            lag: LagTracker,
            $(pub(crate) $name: LogHistogram,)*
        }

        impl Obs {
            /// `(name, unit)` of every histogram an epoch system reports.
            pub const HISTOGRAMS: &'static [(&'static str, &'static str)] =
                &[$((stringify!($name), $unit)),*];

            /// Every histogram, in [`HISTOGRAMS`](Self::HISTOGRAMS) order.
            pub(crate) fn histograms(&self) -> impl Iterator<Item = &LogHistogram> {
                [$(&self.$name),*].into_iter()
            }

            /// An `Obs` sized by `config`: flight-ring capacity from
            /// `flight_slots`, lag-bin width from `epoch_len`.
            pub(crate) fn for_config(config: &EpochConfig) -> Self {
                let origin = Instant::now();
                Obs {
                    origin,
                    recorder: FlightRecorder::with_slots(origin, config.flight_slots),
                    lag: LagTracker::new(config.epoch_len),
                    $($name: LogHistogram::new(),)*
                }
            }

            $($(#[$doc])*
            pub fn $name(&self) -> &LogHistogram {
                &self.$name
            })*
        }
    };
}

histograms! {
    /// End-to-end `run_op` latency, nanoseconds.
    op_latency_ns: "ns",
    /// Registration restarts per completed operation.
    op_restarts: "restarts",
    /// `advance` duration, nanoseconds.
    advance_ns: "ns",
    /// Tracked blocks flushed per sealed batch.
    persist_batch_blocks: "blocks",
    /// Persister time per sealed batch, nanoseconds: write-back,
    /// publish and reclamation, summed when the write-back ran before
    /// the batch's release (`advance_ns` no longer contains this work
    /// when a persister is attached).
    batch_persist_ns: "ns",
    /// Per-op commit→durable latency, nanoseconds: the time from an
    /// operation's commit to the frontier publish that made its epoch
    /// durable — the buffered-durability window the paper trades
    /// against throughput.
    durability_lag_ns: "ns",
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    pub fn new() -> Self {
        Self::for_config(&EpochConfig::default())
    }

    /// Records one lifecycle event (see [`EventKind`] for payloads).
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        self.recorder.record(kind, a, b);
    }

    /// Nanoseconds since this `Obs` was built: the timeline every flight
    /// event and lag span is stamped on.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records one lifecycle event stamped `t_ns` (a [`now_ns`](Self::now_ns)
    /// reading the caller also uses for something else).
    #[inline]
    pub(crate) fn event_at(&self, t_ns: u64, kind: EventKind, a: u64, b: u64) {
        self.recorder.record_at(t_ns, kind, a, b);
    }

    /// Records an op commit: the `OpCommit` flight event *and* the
    /// durability-lag span stamp, from one clock reading so the two
    /// timelines agree. Returns that reading, which `run_op` also turns
    /// into the op's latency sample. `frontier` is the durable frontier
    /// at call time (recycled-slot accounting; see `lag.rs`).
    #[inline]
    pub(crate) fn commit_event(&self, epoch: u64, restarts: u64, frontier: u64) -> u64 {
        let t_ns = self.now_ns();
        self.recorder
            .record_at(t_ns, EventKind::OpCommit, epoch, restarts);
        self.lag.record_commit(epoch, t_ns, frontier);
        t_ns
    }

    /// Folds every commit span of `epoch` into the `durability_lag_ns`
    /// histogram, stamped against now. Called by `complete_batch` when
    /// the batch closing `epoch` has fully persisted.
    pub(crate) fn fold_epoch_lag(&self, epoch: u64) -> u64 {
        self.lag
            .fold_epoch(epoch, self.now_ns(), &self.durability_lag_ns)
    }

    /// The last `max` lifecycle events across all threads.
    pub fn dump(&self, max: usize) -> Vec<FlightEvent> {
        self.recorder.dump(max)
    }

    /// Flight-recorder events lost to ring wrap across all threads.
    pub fn flight_events_dropped(&self) -> u64 {
        self.recorder.events_dropped()
    }

    /// Commit→durable spans that could never be folded because their
    /// epoch's slot was recycled before the epoch published (FailStop
    /// frontier pin or frontier lag beyond the tracker's window).
    pub fn lag_spans_dropped(&self) -> u64 {
        self.lag.dropped()
    }
}
