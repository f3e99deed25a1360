//! End-to-end checks of the observability layer: one registry report
//! must be coherent across all attached sources, and its JSON form must
//! survive a round trip through the in-tree parser with every counter
//! intact. These are the same invariants `metrics_check` enforces on
//! report files in CI.

use bd_htm::prelude::*;
use std::sync::Arc;

/// Runs a small mixed workload and returns the live substrate handles.
fn run_workload() -> (Arc<EpochSys>, Arc<Htm>) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
    let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::default());
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let map = BdhtHashMap::new(1 << 10, Arc::clone(&esys), Arc::clone(&htm));
    for k in 0..2_000u64 {
        map.insert(k, k + 1);
    }
    for k in 0..500u64 {
        map.remove(k * 4);
    }
    for k in 0..2_000u64 {
        let _ = map.get(k);
    }
    esys.advance();
    esys.advance();
    (esys, htm)
}

fn full_report() -> MetricsReport {
    let (esys, htm) = run_workload();
    let mut registry = MetricsRegistry::new();
    registry.attach_esys(esys);
    registry.attach_htm(htm);
    registry.report()
}

#[test]
fn report_is_coherent_across_sources() {
    let report = full_report();

    let h = report.htm.expect("htm attached");
    let total_aborts: u64 = h.aborts.iter().sum();
    assert_eq!(
        h.attempts(),
        h.commits + total_aborts,
        "every attempt must be a commit or a classified abort"
    );
    assert!(h.commits > 0, "the workload must have committed");

    let d = report.derived.expect("esys attached");
    assert!(d.persisted_frontier <= d.current_epoch);
    assert_eq!(d.frontier_lag, d.current_epoch - d.persisted_frontier);

    let e = report.epoch.expect("esys attached");
    assert!(e.advances >= 2, "the test advanced twice");

    // Operation latency histogram: every run_op records exactly once.
    let op_lat = report
        .histograms
        .iter()
        .find(|h| h.name == "op_latency_ns")
        .expect("op latency histogram present");
    assert!(op_lat.snap.count >= 2_500, "one sample per completed op");
    assert!(op_lat.snap.p50() <= op_lat.snap.p95());
    assert!(op_lat.snap.p95() <= op_lat.snap.p99());
    assert!(op_lat.snap.p99() <= op_lat.snap.max);
}

#[test]
fn json_round_trips_through_the_parser() {
    let report = full_report();
    let json = report.to_json();
    let doc = JsonValue::parse(&json).expect("report JSON must parse");

    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("bdhtm-metrics")
    );
    assert_eq!(
        doc.get("version").and_then(|v| v.as_u64()),
        Some(bd_htm::bdhtm_core::METRICS_VERSION)
    );
    // One schema version: dropping or re-meaning a key bumps it, and
    // `metrics_check` accepts nothing else.
    assert_eq!(bd_htm::bdhtm_core::METRICS_VERSION, 9);

    // Every declared counter of every section survives serialization
    // exactly, under its own name.
    let h = report.htm.unwrap();
    let n = report.nvm.unwrap();
    let e = report.epoch.unwrap();
    let sections: [(&str, &[(&str, u64)]); 3] = [
        ("htm", &h.fields()),
        ("nvm", &n.fields()),
        ("epoch", &e.fields()),
    ];
    for (section, fields) in sections {
        let json = doc.get(section).expect("section present");
        assert!(!fields.is_empty());
        for &(name, value) in fields {
            assert_eq!(
                json.get(name).and_then(|v| v.as_u64()),
                Some(value),
                "{section}.{name}"
            );
        }
    }
    assert!(
        e.advances >= 2 && n.writes > 0,
        "the walk compared live values"
    );

    // The derived members of the counter sections.
    let htm = doc.get("htm").unwrap();
    assert_eq!(
        htm.get("attempts").and_then(|v| v.as_u64()),
        Some(h.attempts())
    );
    let conflict = htm
        .get("aborts")
        .and_then(|a| a.get("conflict"))
        .and_then(|v| v.as_u64());
    assert_eq!(conflict, Some(h.aborts_of(AbortCause::Conflict)));
    let nvm = doc.get("nvm").unwrap();
    assert_eq!(
        nvm.get("media_bytes").and_then(|v| v.as_u64()),
        Some(n.media_bytes())
    );

    let d = report.derived.unwrap();
    let derived = doc.get("derived").expect("derived section");
    assert_eq!(
        derived.get("frontier_lag").and_then(|v| v.as_u64()),
        Some(d.frontier_lag)
    );

    // The health gauge.
    assert_eq!(
        derived.get("health").and_then(|v| v.as_str()),
        Some(d.health.as_str())
    );

    // Durability-lag quantiles, dropped-span and dropped-event gauges.
    assert_eq!(
        derived.get("durability_lag_p99").and_then(|v| v.as_u64()),
        Some(d.durability_lag_p99)
    );
    assert_eq!(
        derived.get("lag_spans_dropped").and_then(|v| v.as_u64()),
        Some(d.lag_spans_dropped)
    );
    assert_eq!(
        derived
            .get("flight_events_dropped")
            .and_then(|v| v.as_u64()),
        Some(d.flight_events_dropped)
    );

    // Every declared histogram is reported, under its declared unit.
    let hists = doc.get("histograms").expect("histograms section");
    for &(name, unit) in bd_htm::bdhtm_core::Obs::HISTOGRAMS {
        let unit_json = hists.get(name).and_then(|h| h.get("unit"));
        assert_eq!(unit_json.and_then(|u| u.as_str()), Some(unit), "{name}");
    }

    // Histogram bucket lists carry the full count.
    let op_lat = hists.get("op_latency_ns").expect("op latency histogram");
    let count = op_lat.get("count").and_then(|v| v.as_u64()).unwrap();
    let bucket_sum: u64 = op_lat
        .get("buckets")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|pair| pair.as_arr().unwrap()[1].as_u64().unwrap())
        .sum();
    assert_eq!(bucket_sum, count, "nonzero buckets must account for count");
}

#[test]
fn partial_registries_omit_absent_sections() {
    let (_esys, htm) = run_workload();
    let mut registry = MetricsRegistry::new();
    registry.attach_htm(htm);
    let json = registry.report().to_json();
    let doc = JsonValue::parse(&json).unwrap();
    assert!(doc.get("htm").is_some());
    assert!(doc.get("epoch").is_none(), "no esys attached");
    assert!(doc.get("derived").is_none(), "no esys attached");
    assert!(doc.get("nvm").is_none(), "no heap attached");
}

#[test]
fn flight_recorder_captures_the_lifecycle() {
    let (esys, _htm) = run_workload();
    let dump = esys.obs().dump(64);
    assert!(!dump.is_empty(), "the workload must leave flight events");
    // Commits and epoch advances both appear in a mixed run.
    assert!(dump.iter().any(|ev| ev.kind == EventKind::OpCommit));
    assert!(dump.iter().any(|ev| ev.kind == EventKind::EpochAdvance));
    // Events render to stable human-readable lines.
    let line = dump[0].render();
    assert!(
        line.contains("ns t"),
        "rendered line carries time and tid: {line}"
    );
}
