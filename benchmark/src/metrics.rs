//! Turns what a run measured into the named metrics of BENCHMARK.json.

use crate::run::{recovery_median, RunData};
use crate::stats::{cv, median, quantile, Hist};
use crate::workload::Kind;
use htm_sim::AbortCause;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The eight end-to-end metrics (`--trace 0`).
pub fn end_to_end(data: &mut RunData) -> Vec<Metric> {
    let w = &mut data.window;
    let mut rates: Vec<f64> = w.slices.iter().map(|s| s.ops as f64 / s.secs).collect();
    let mut p50: Vec<f64> = w.hists.iter_mut().map(|h| h.quantile(0.50)).collect();
    let mut p90: Vec<f64> = w.hists.iter_mut().map(|h| h.quantile(0.90)).collect();
    let mut per_record: Vec<f64> = w.slices.iter().map(|s| s.nvm_bytes_per_record).collect();
    // Slices the window never reached (key space exhausted) have no samples.
    p50.truncate(w.slices.len());
    p90.truncate(w.slices.len());
    let media = data.after.nvm.since(&data.before.nvm).media_bytes();
    let mut setups: Vec<f64> = data.setups.iter().map(|s| s.total_s).collect();
    vec![
        metric("setup_s", median(&mut setups), "s"),
        metric("ops_per_s", median(&mut rates), "1/s"),
        metric("op_p50_ns", median(&mut p50), "ns"),
        metric("op_p90_ns", median(&mut p90), "ns"),
        metric(
            "durability_lag_p90_ms",
            quantile(&mut w.lag.lags_ms, 0.90),
            "ms",
        ),
        metric(
            "media_bytes_per_op",
            media as f64 / w.ops.max(1) as f64,
            "B/op",
        ),
        metric("nvm_bytes_per_record", median(&mut per_record), "B/record"),
        metric(
            "recovery_ms",
            recovery_median(&data.recoveries, |t| t.total_ms()),
            "ms",
        ),
    ]
}

/// The per-layer metrics a traced run can read off its own counters
/// (`--trace 1`); the probes in `probes.rs` add the rest.
pub fn per_layer(data: &mut RunData) -> Vec<Metric> {
    let w = &mut data.window;
    let ops = w.ops.max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let htm = data.after.htm.since(&data.before.htm);
    let nvm = data.after.nvm.since(&data.before.nvm);
    let epoch = data.after.epoch.since(&data.before.epoch);
    let obs = &data.at_crash.obs;
    let times = &data.recoveries;

    let mut all = Hist::new();
    for h in &w.hists {
        all.merge(h);
    }
    let rates = |traced: bool| -> Vec<f64> {
        w.slices
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ops as f64 / s.secs)
            .collect()
    };
    let (mut untraced, mut traced) = (rates(false), rates(true));
    let slice_cv = cv(&untraced);
    let overhead = match (median(&mut traced), median(&mut untraced)) {
        (t, u) if t > 0.0 && u > 0.0 => 1.0 - t / u,
        _ => 0.0,
    };
    let setup = |f: fn(&crate::run::SetupTimes) -> f64| {
        median(&mut data.setups.iter().map(f).collect::<Vec<_>>())
    };

    let mut out = vec![
        // htm-sim: → ops_per_s / op_p50_ns on spash-read-dram; aborts
        // and fallbacks → op_p90_ns.
        metric("htm-sim.commits_per_op", per_op(htm.commits), "1/op"),
        metric("htm-sim.aborts_per_op", per_op(htm.total_aborts()), "1/op"),
        metric(
            "htm-sim.conflict_aborts_per_op",
            per_op(htm.aborts_of(AbortCause::Conflict)),
            "1/op",
        ),
        metric(
            "htm-sim.capacity_aborts_per_op",
            per_op(htm.aborts_of(AbortCause::Capacity)),
            "1/op",
        ),
        metric("htm-sim.fallbacks_per_op", per_op(htm.fallbacks), "1/op"),
        metric("htm-sim.commit_ratio", htm.commit_ratio(), "ratio"),
        // nvm-sim: → ops_per_s / op_p50_ns on the Optane workloads;
        // xplines_per_op → media_bytes_per_op.
        metric("nvm-sim.reads_per_op", per_op(nvm.reads), "1/op"),
        metric("nvm-sim.writes_per_op", per_op(nvm.writes), "1/op"),
        metric("nvm-sim.flushes_per_op", per_op(nvm.flushes), "1/op"),
        metric("nvm-sim.fences_per_op", per_op(nvm.fences), "1/op"),
        metric(
            "nvm-sim.lines_written_back_per_op",
            per_op(nvm.lines_written_back),
            "1/op",
        ),
        metric(
            "nvm-sim.xplines_per_op",
            per_op(nvm.xplines_touched),
            "1/op",
        ),
        metric(
            "nvm-sim.write_amplification",
            nvm.write_amplification(),
            "ratio",
        ),
        // persist-alloc: → nvm_bytes_per_record.
        metric(
            "persist-alloc.live_blocks",
            data.at_crash.live_blocks as f64,
            "count",
        ),
        metric(
            "persist-alloc.bytes_in_use",
            data.at_crash.bytes_in_use as f64,
            "B",
        ),
        // esys: → durability_lag_p90_ms and media_bytes_per_op on the
        // Optane workloads, and ops_per_s there through the second core.
        metric("esys.advances", epoch.advances as f64, "count"),
        metric(
            "esys.blocks_persisted_per_op",
            per_op(epoch.blocks_persisted),
            "1/op",
        ),
        metric(
            "esys.words_persisted_per_op",
            per_op(epoch.words_persisted),
            "1/op",
        ),
        metric(
            "esys.coalesced_flushes_per_op",
            per_op(epoch.coalesced_flushes),
            "1/op",
        ),
        metric(
            "esys.blocks_reclaimed_per_op",
            per_op(epoch.blocks_reclaimed),
            "1/op",
        ),
        metric(
            "esys.pipeline_stalls",
            epoch.pipeline_stalls as f64,
            "count",
        ),
        metric(
            "esys.batch_persist_mean_us",
            obs.batch_persist_mean_us,
            "us",
        ),
        metric("esys.batch_blocks_mean", obs.batch_blocks_mean, "count"),
        metric(
            "esys.persist_busy_frac",
            obs.batch_persist_busy_ns as f64 / 1e9 / (w.secs + data.drain_s).max(1e-9),
            "ratio",
        ),
        // op / obs: → op_p90_ns; the cost of obs itself → spash-read-dram.
        metric("op.restarts_per_op", obs.restarts_per_op, "1/op"),
        metric("obs.op_latency_p50_ns", obs.op_latency_p50_ns as f64, "ns"),
        metric(
            "obs.flight_events_dropped",
            obs.flight_events_dropped as f64,
            "count",
        ),
        metric(
            "obs.lag_spans_dropped",
            obs.lag_spans_dropped as f64,
            "count",
        ),
        // recovery: → recovery_ms, on veb-load-recover above all.
        metric(
            "recovery.scan_ms",
            recovery_median(times, |t| t.scan_ms),
            "ms",
        ),
        metric(
            "recovery.rebuild_ms",
            recovery_median(times, |t| t.rebuild_ms),
            "ms",
        ),
        metric(
            "recovery.validate_ms",
            recovery_median(times, |t| t.validate_ms),
            "ms",
        ),
        metric(
            "recovery.live_records",
            recovery_median(times, |t| t.live_records as f64),
            "count",
        ),
        // The structure under test: → op_p50_ns / op_p90_ns.
        metric(
            "veb.dram_bytes_per_record",
            data.at_crash.dram_bytes.unwrap_or(0) as f64 / data.at_crash.live_records.max(1) as f64,
            "B/record",
        ),
        // The harness itself.
        metric("bench.slice_cv", slice_cv, "ratio"),
        metric("bench.setup_prefault_s", setup(|s| s.prefault_s), "s"),
        metric("bench.setup_prefill_s", setup(|s| s.prefill_s), "s"),
        metric("bench.setup_warmup_s", setup(|s| s.warmup_s), "s"),
        metric("bench.drain_s", data.drain_s, "s"),
        metric("bench.op_p99_ns", all.quantile(0.99), "ns"),
        metric("bench.op_p999_ns", all.quantile(0.999), "ns"),
        metric(
            "bench.durability_lag_p50_ms",
            quantile(&mut w.lag.lags_ms, 0.50),
            "ms",
        ),
        metric(
            "bench.durability_lag_p99_ms",
            quantile(&mut w.lag.lags_ms, 0.99),
            "ms",
        ),
        metric("trace.overhead_frac", overhead, "ratio"),
    ];
    // In the traced run the histograms are per kind of operation.
    for (kind, p50, p99) in [
        (Kind::Get, "structure.get_p50_ns", "structure.get_p99_ns"),
        (
            Kind::Insert,
            "structure.insert_p50_ns",
            "structure.insert_p99_ns",
        ),
        (
            Kind::Remove,
            "structure.remove_p50_ns",
            "structure.remove_p99_ns",
        ),
    ] {
        let h = &mut w.hists[kind as usize];
        out.push(metric(p50, h.quantile(0.50), "ns"));
        out.push(metric(p99, h.quantile(0.99), "ns"));
    }
    out
}
