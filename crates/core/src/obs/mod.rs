//! Observability for the BDL stack, one mechanism per file:
//!
//! * `flight` — the lifecycle event vocabulary and the lock-free ring
//!   of a thread's recent events;
//! * `lag` — per-op commit→durable spans, folded into the
//!   `durability_lag_ns` histogram when their epoch publishes;
//! * `report` — [`MetricsRegistry`] / [`MetricsReport`]: one snapshot
//!   call that folds HTM, NVM, epoch, allocator and histogram data into
//!   a stable, versioned JSON document;
//! * `json` — the writer behind every JSON artifact and [`JsonValue`],
//!   the parser the round-trip tests and `metrics_check` read them with.
//!
//! This file holds [`Obs`], the bundle every [`EpochSys`](crate::EpochSys)
//! carries, and its per-thread shards. Each vocabulary is declared
//! exactly once and everything else iterates the declaration: counters by `htm_sim::counters!`,
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
pub use flight::{EventKind, FlightEvent, ABORT_RESTART, ABORT_UNWIND, RING_SLOTS};
pub use json::JsonValue;
pub(crate) use json::JsonWriter;
pub use report::{
    series_line, DerivedGauges, MetricsRegistry, MetricsReport, NamedHist, METRICS_SCHEMA,
    METRICS_SERIES_SCHEMA, METRICS_VERSION,
};

use crate::config::EpochConfig;
use flight::Ring;
use htm_sim::{HistShard, HistSnapshot};
use lag::{LagBins, LagTracker};
use std::sync::OnceLock;
use std::time::Instant;

/// Declares the histograms of an [`Obs`]: per row, the shard field the
/// recording site names, the accessor, and the `(name, unit)` identity
/// in [`Obs::HISTOGRAMS`], which the report walks — so a new histogram
/// is one row here plus its `record` call.
macro_rules! histograms {
    ($($(#[$doc:meta])* $name:ident: $unit:literal,)*) => {
        /// One thread's shard of every histogram.
        #[derive(Default)]
        pub(crate) struct Hists {
            $(pub(crate) $name: HistShard,)*
        }

        impl Hists {
            /// Every shard, in [`Obs::HISTOGRAMS`] order.
            fn all(&self) -> [&HistShard; Obs::HISTOGRAMS.len()] {
                [$(&self.$name),*]
            }
        }

        impl Obs {
            /// `(name, unit)` of every histogram an epoch system reports.
            pub const HISTOGRAMS: &'static [(&'static str, &'static str)] =
                &[$((stringify!($name), $unit)),*];

            $($(#[$doc])*
            pub fn $name(&self) -> ObsHist<'_> {
                ObsHist { obs: self, pick: |h| &h.$name }
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

/// Instrumentation carried by every [`EpochSys`](crate::EpochSys):
/// latency/size histograms, durability-lag spans and the flight
/// recorder. All four `BdlKv` structures inherit it through `run_op`;
/// the epoch ticker and the persist pipeline feed it from inside the
/// epoch system itself. Flight-event timestamps and lag spans count
/// from one `origin` instant, so they live on the same timeline (what
/// makes the exported trace's lag arrows line up with the op tracks).
pub struct Obs {
    origin: Instant,
    /// Flight-ring capacity of each shard.
    flight_slots: usize,
    lag: LagTracker,
    shards: htm_sim::PerThread<OnceLock<Box<ObsShard>>>,
}

/// One thread's observability state: its flight ring, its lag bins and
/// one shard of each histogram. Every part keeps
/// [`HistShard`]'s one-writer contract: the owning thread writes it
/// with relaxed loads and stores and no read-modify-write, a thread
/// that inherits a recycled id inherits the shard, and readers (dumps,
/// reports, the lag fold) may run concurrently.
pub(crate) struct ObsShard {
    pub(crate) ring: Ring,
    lag: LagBins,
    pub(crate) hist: Hists,
}

/// One histogram of an [`Obs`], as its named accessor returns it.
#[derive(Clone, Copy)]
pub struct ObsHist<'a> {
    obs: &'a Obs,
    pick: fn(&Hists) -> &HistShard,
}

impl ObsHist<'_> {
    /// This histogram, folded across every thread's shard.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::default();
        for shard in self.obs.shards() {
            (self.pick)(&shard.hist).fold_into(&mut snap);
        }
        snap
    }
}

impl Obs {
    /// An `Obs` sized by `config`: flight-ring capacity from
    /// `flight_slots`, lag-bin width from `epoch_len`.
    pub(crate) fn for_config(config: &EpochConfig) -> Self {
        Obs {
            origin: Instant::now(),
            flight_slots: config.flight_slots,
            lag: LagTracker::new(config.epoch_len),
            shards: Default::default(),
        }
    }

    /// The calling thread's shard, built on its first record.
    #[inline]
    pub(crate) fn shard(&self) -> &ObsShard {
        self.shards.mine().get_or_init(|| {
            Box::new(ObsShard {
                ring: Ring::new(self.flight_slots),
                lag: LagBins::default(),
                hist: Hists::default(),
            })
        })
    }

    /// Every shard built so far.
    fn shards(&self) -> impl Iterator<Item = &ObsShard> {
        self.shards.iter().filter_map(|s| s.get().map(|b| &**b))
    }

    /// Records one lifecycle event (see [`EventKind`] for payloads).
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        self.shard().ring.record_at(self.now_ns(), kind, a, b);
    }

    /// Nanoseconds since this `Obs` was built: the timeline every flight
    /// event and lag span is stamped on.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records an op commit on the committing thread's `shard`: the
    /// `OpCommit` flight event, the durability-lag span, and the op's
    /// latency (since `t0`, the reading the op began at) and restart
    /// samples, from one clock reading so the timelines agree.
    /// `frontier` is the durable frontier at call time (recycled-slot
    /// accounting; see `lag.rs`).
    #[inline]
    pub(crate) fn record_commit(
        &self,
        shard: &ObsShard,
        epoch: u64,
        restarts: u64,
        frontier: u64,
        t0: u64,
    ) {
        let t_ns = self.now_ns();
        shard
            .ring
            .record_at(t_ns, EventKind::OpCommit, epoch, restarts);
        self.lag.record_commit(&shard.lag, epoch, t_ns, frontier);
        shard.hist.op_latency_ns.record(t_ns - t0);
        shard.hist.op_restarts.record(restarts);
    }

    /// Folds every commit span of `epoch` into the calling thread's
    /// `durability_lag_ns` shard, stamped against now. Called by
    /// `complete_batch` when the batch closing `epoch` has fully
    /// persisted.
    pub(crate) fn fold_epoch_lag(&self, epoch: u64) -> u64 {
        let hist = &self.shard().hist.durability_lag_ns;
        let all = self.shards().map(|s| &s.lag);
        self.lag.fold_epoch(all, epoch, self.now_ns(), hist)
    }

    /// Every histogram folded across every shard in one walk, in
    /// [`HISTOGRAMS`](Self::HISTOGRAMS) order.
    pub(crate) fn histograms(&self) -> [HistSnapshot; Obs::HISTOGRAMS.len()] {
        let mut snaps = [HistSnapshot::default(); Obs::HISTOGRAMS.len()];
        for shard in self.shards() {
            for (snap, hist) in snaps.iter_mut().zip(shard.hist.all()) {
                hist.fold_into(snap);
            }
        }
        snaps
    }

    /// The last `max` lifecycle events across all threads.
    pub fn dump(&self, max: usize) -> Vec<FlightEvent> {
        let rings = self.shards.iter().enumerate();
        let rings = rings.filter_map(|(tid, s)| Some((tid, &s.get()?.ring)));
        flight::dump(rings, max)
    }

    /// Flight-recorder events lost to ring wrap across all threads. A
    /// non-zero value means [`dump`](Self::dump) (and any trace exported
    /// from it) is missing that many older events.
    pub fn flight_events_dropped(&self) -> u64 {
        self.shards().map(|s| s.ring.dropped()).sum()
    }

    /// Commit→durable spans that could never be folded because their
    /// epoch's slot was recycled before the epoch published (FailStop
    /// frontier pin or frontier lag beyond the tracker's window).
    pub fn lag_spans_dropped(&self) -> u64 {
        self.lag.dropped()
    }
}
