//! The unified metrics report: [`MetricsRegistry`] snapshots every
//! attached stats source into one [`MetricsReport`], which serializes
//! to the versioned `bdhtm-metrics` JSON schema (DESIGN.md §6). The
//! counter sections are written by walking each snapshot's `fields()`
//! view, the histograms by walking [`Obs::HISTOGRAMS`].

use super::json::{json_f64, JsonWriter};
use super::Obs;
use crate::error::HealthState;
use crate::esys::{EpochStatsSnapshot, EpochSys};
use htm_sim::{HistSnapshot, Htm, StatsSnapshot};
use nvm_sim::{NvmHeap, NvmStatsSnapshot};
use persist_alloc::AllocStats;
use std::sync::Arc;

/// Derived point-in-time gauges of the epoch system.
#[derive(Clone, Copy, Debug)]
pub struct DerivedGauges {
    pub current_epoch: u64,
    pub persisted_frontier: u64,
    /// `current_epoch − persisted_frontier`: 2 in steady state; growth
    /// means the ticker is falling behind (Fig. 7's failure mode).
    pub frontier_lag: u64,
    /// Words tracked for background persistence and not yet flushed.
    pub buffered_words: u64,
    /// Position on the runtime health ladder (see [`HealthState`]).
    pub health: HealthState,
    /// Commit→durable latency quantiles (ns), from `durability_lag_ns`.
    pub durability_lag_p50: u64,
    pub durability_lag_p99: u64,
    pub durability_lag_max: u64,
    /// Commit spans whose epoch never published (see
    /// [`Obs::lag_spans_dropped`]).
    pub lag_spans_dropped: u64,
    /// Flight-recorder events lost to ring wrap (see
    /// [`Obs::flight_events_dropped`]).
    pub flight_events_dropped: u64,
}

/// A histogram snapshot with its identity in the report schema.
#[derive(Clone, Copy, Debug)]
pub struct NamedHist {
    pub name: &'static str,
    pub unit: &'static str,
    pub snap: HistSnapshot,
}

/// Aggregates the stack's stats sources into one [`MetricsReport`].
/// Attach whatever the program actually built — absent sources simply
/// drop out of the report.
#[derive(Default, Clone)]
pub struct MetricsRegistry {
    esys: Option<Arc<EpochSys>>,
    htm: Option<Arc<Htm>>,
    heap: Option<Arc<NvmHeap>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an epoch system: contributes epoch stats, derived
    /// gauges, allocator stats, NVM traffic (via its heap), and the
    /// lifecycle histograms.
    pub fn attach_esys(&mut self, esys: Arc<EpochSys>) {
        self.esys = Some(esys);
    }

    /// Attaches an HTM domain: contributes commit/abort stats and the
    /// backoff-wait histogram.
    pub fn attach_htm(&mut self, htm: Arc<Htm>) {
        self.htm = Some(htm);
    }

    /// Attaches a bare heap (for programs with NVM traffic but no epoch
    /// system, e.g. the MwCAS benchmark). Ignored when an epoch system
    /// is attached — the report uses the epoch system's heap.
    pub fn attach_heap(&mut self, heap: Arc<NvmHeap>) {
        self.heap = Some(heap);
    }

    /// Snapshots every attached source.
    pub fn report(&self) -> MetricsReport {
        let mut histograms = Vec::new();
        if let Some(htm) = &self.htm {
            histograms.push(NamedHist {
                name: "htm_backoff_spins",
                unit: "spins",
                snap: htm.backoff_hist().snapshot(),
            });
        }
        let mut nvm = self.heap.as_ref().map(|h| h.stats().snapshot());
        let mut epoch = None;
        let mut alloc = None;
        let mut derived = None;
        if let Some(esys) = &self.esys {
            nvm = Some(esys.heap().stats().snapshot());
            epoch = Some(esys.stats().snapshot());
            alloc = Some(esys.alloc_stats());
            let current_epoch = esys.current_epoch();
            let persisted_frontier = esys.persisted_frontier();
            let obs = esys.obs();
            for (&(name, unit), hist) in Obs::HISTOGRAMS.iter().zip(obs.histograms()) {
                let snap = hist.snapshot();
                histograms.push(NamedHist { name, unit, snap });
            }
            // The lag gauges quote the very snapshot the report carries.
            let lag = histograms
                .iter()
                .find(|h| h.name == "durability_lag_ns")
                .expect("declared in Obs::HISTOGRAMS")
                .snap;
            derived = Some(DerivedGauges {
                current_epoch,
                persisted_frontier,
                frontier_lag: current_epoch.saturating_sub(persisted_frontier),
                buffered_words: esys.buffered_words(),
                health: esys.health(),
                durability_lag_p50: lag.p50(),
                durability_lag_p99: lag.p99(),
                durability_lag_max: lag.max,
                lag_spans_dropped: obs.lag_spans_dropped(),
                flight_events_dropped: obs.flight_events_dropped(),
            });
        }
        MetricsReport {
            htm: self.htm.as_ref().map(|h| h.stats().snapshot()),
            nvm,
            epoch,
            alloc,
            derived,
            histograms,
        }
    }
}

/// One coherent snapshot of every attached stats source. Serialize with
/// [`MetricsReport::to_json`]; the schema is documented in DESIGN.md §6.
pub struct MetricsReport {
    pub htm: Option<StatsSnapshot>,
    pub nvm: Option<NvmStatsSnapshot>,
    pub epoch: Option<EpochStatsSnapshot>,
    pub alloc: Option<AllocStats>,
    pub derived: Option<DerivedGauges>,
    pub histograms: Vec<NamedHist>,
}

/// Schema identifier emitted in every report.
pub const METRICS_SCHEMA: &str = "bdhtm-metrics";
/// Schema identifier of the time-series stream a
/// [`Sampler`](crate::Sampler) emits: one JSON object per line, each
/// wrapping a delta [`MetricsReport`] (see [`series_line`]).
pub const METRICS_SERIES_SCHEMA: &str = "bdhtm-metrics-series";
/// Schema version; bump when a key changes meaning or disappears.
/// Consumers (`metrics_check`) accept exactly this version.
pub const METRICS_VERSION: u64 = 7;

/// Opens the object under `key` with one member per counter.
fn counter_section(w: &mut JsonWriter, key: &str, fields: &[(&'static str, u64)]) {
    w.key(key).open('{');
    for &(name, value) in fields {
        w.field(name, value);
    }
}

/// `now − then` where both reports carry the section, else `now`.
fn delta<T: Copy>(now: Option<T>, then: Option<T>, since: fn(&T, &T) -> T) -> Option<T> {
    match (now, then) {
        (Some(now), Some(then)) => Some(since(&now, &then)),
        _ => now,
    }
}

impl MetricsReport {
    /// Serializes the report to the versioned `bdhtm-metrics` JSON
    /// schema (DESIGN.md §6). Sections whose source was not attached
    /// are omitted entirely rather than emitted empty.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        self.write_json(&mut w);
        w.finish()
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.open('{').field_str("schema", METRICS_SCHEMA);
        w.field("version", METRICS_VERSION);
        if let Some(h) = &self.htm {
            counter_section(w, "htm", &h.fields());
            w.field("attempts", h.attempts());
            w.field("commit_ratio", json_f64(h.commit_ratio()));
            w.key("aborts").open('{');
            for (i, &n) in h.aborts.iter().enumerate() {
                w.field(htm_sim::AbortCause::label(i), n);
            }
            w.close('}').close('}');
        }
        if let Some(n) = &self.nvm {
            counter_section(w, "nvm", &n.fields());
            w.field("media_bytes", n.media_bytes());
            w.field("write_amplification", json_f64(n.write_amplification()));
            w.close('}');
        }
        if let Some(e) = &self.epoch {
            counter_section(w, "epoch", &e.fields());
            w.close('}');
        }
        if let Some(a) = &self.alloc {
            w.key("alloc").open('{');
            w.field_arr("live_blocks", a.live_blocks);
            w.field("bytes_in_use", a.bytes_in_use()).close('}');
        }
        if let Some(d) = &self.derived {
            w.key("derived").open('{');
            w.field("current_epoch", d.current_epoch);
            w.field("persisted_frontier", d.persisted_frontier);
            w.field("frontier_lag", d.frontier_lag);
            w.field("buffered_words", d.buffered_words);
            w.field_str("health", d.health.as_str());
            w.field("durability_lag_p50", d.durability_lag_p50);
            w.field("durability_lag_p99", d.durability_lag_p99);
            w.field("durability_lag_max", d.durability_lag_max);
            w.field("lag_spans_dropped", d.lag_spans_dropped);
            w.field("flight_events_dropped", d.flight_events_dropped);
            w.close('}');
        }
        w.key("histograms").open('{');
        for h in &self.histograms {
            w.key(h.name).open('{').field_str("unit", h.unit);
            w.field("count", h.snap.count).field("sum", h.snap.sum);
            w.field("max", h.snap.max);
            w.field("mean", json_f64(h.snap.mean()));
            w.field("p50", h.snap.p50()).field("p95", h.snap.p95());
            w.field("p99", h.snap.p99()).key("buckets").open('[');
            for (i, &n) in h.snap.buckets.iter().enumerate() {
                if n != 0 {
                    w.open('[').val(i).val(n).close(']');
                }
            }
            w.close(']').close('}');
        }
        w.close('}').close('}');
    }

    /// The delta between two reports of the same registry: monotonic
    /// counters and histograms subtract (saturating, like the
    /// per-source `since` methods they build on); point-in-time gauges
    /// (`alloc`, `derived`) keep this report's values. The
    /// [`Sampler`](crate::Sampler) emits exactly these deltas, so each
    /// series line describes one interval instead of a growing total.
    pub fn since(&self, earlier: &MetricsReport) -> MetricsReport {
        MetricsReport {
            htm: delta(self.htm, earlier.htm, StatsSnapshot::since),
            nvm: delta(self.nvm, earlier.nvm, NvmStatsSnapshot::since),
            epoch: delta(self.epoch, earlier.epoch, EpochStatsSnapshot::since),
            alloc: self.alloc,
            derived: self.derived,
            histograms: self
                .histograms
                .iter()
                .map(|h| NamedHist {
                    snap: match earlier.histograms.iter().find(|e| e.name == h.name) {
                        Some(e) => h.snap.since(&e.snap),
                        None => h.snap,
                    },
                    ..*h
                })
                .collect(),
        }
    }
}

/// Serializes one line of the `bdhtm-metrics-series` JSON-lines stream:
/// the sample's timestamp (ns since the sampler started), its sequence
/// number, and the interval's delta report.
pub fn series_line(t_ns: u64, seq: u64, delta: &MetricsReport) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.open('{').field_str("schema", METRICS_SERIES_SCHEMA);
    w.field("version", METRICS_VERSION);
    w.field("t_ns", t_ns).field("seq", seq).key("delta");
    delta.write_json(&mut w);
    w.close('}');
    w.finish()
}
