//! Validates the observability outputs of the experiment binaries:
//! parses them with the in-tree JSON reader, checks the schema headers,
//! and asserts the coherence invariants that hold for any correctly
//! assembled output. Used by ci.sh as the metrics smoke gate.
//!
//! ```sh
//! cargo run --release -q --example quickstart -- --metrics-json m.json
//! cargo run --release -p bench --bin metrics_check -- m.json
//! cargo run --release -p bench --bin metrics_check -- --series s.jsonl
//! cargo run --release -p bench --bin metrics_check -- --trace t.json
//! ```
//!
//! Exits 0 and prints a one-line summary on success; exits 1 with a
//! diagnostic on the first violated invariant.
//!
//! `--series` validates a `--metrics-series` JSON-lines stream: every
//! line must carry the series schema header, sequence numbers must be
//! dense from 0, timestamps monotone, and each embedded delta report
//! must satisfy the same invariants as a full report (deltas inherit
//! them: counts difference, the running max bounds the delta quantiles).
//!
//! `--trace` validates a `--trace-out` Chrome trace_event file: the
//! document must parse, every event must carry a known phase, complete
//! spans need durations, and durability-lag flow arrows must come in
//! matched start/finish pairs.

use bdhtm_core::obs::{JsonValue, Obs, METRICS_SCHEMA, METRICS_SERIES_SCHEMA, METRICS_VERSION};
use bdhtm_core::EpochStatsSnapshot;
use htm_sim::StatsSnapshot;
use nvm_sim::NvmStatsSnapshot;

fn fail(msg: &str) -> ! {
    eprintln!("metrics_check: {msg}");
    std::process::exit(1);
}

fn req<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key)
        .unwrap_or_else(|| fail(&format!("missing key {key:?}")))
}

fn req_u64(v: &JsonValue, key: &str) -> u64 {
    req(v, key)
        .as_u64()
        .unwrap_or_else(|| fail(&format!("key {key:?} is not a non-negative integer")))
}

fn check_hist(name: &str, h: &JsonValue) {
    let count = req_u64(h, "count");
    let max = req_u64(h, "max");
    let p50 = req_u64(h, "p50");
    let p95 = req_u64(h, "p95");
    let p99 = req_u64(h, "p99");
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        fail(&format!(
            "histogram {name}: quantiles not monotone (p50={p50} p95={p95} p99={p99} max={max})"
        ));
    }
    let bucket_total: u64 = req(h, "buckets")
        .as_arr()
        .unwrap_or_else(|| fail(&format!("histogram {name}: buckets is not an array")))
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .unwrap_or_else(|| fail(&format!("histogram {name}: bucket entry not a pair")));
            if pair.len() != 2 {
                fail(&format!("histogram {name}: bucket entry not a pair"));
            }
            pair[1]
                .as_u64()
                .unwrap_or_else(|| fail(&format!("histogram {name}: bucket count not an integer")))
        })
        .sum();
    if bucket_total != count {
        fail(&format!(
            "histogram {name}: bucket counts sum to {bucket_total}, count says {count}"
        ));
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn parse(text: &str) -> JsonValue {
    JsonValue::parse(text).unwrap_or_else(|e| fail(&format!("invalid JSON: {e}")))
}

/// The one schema version this checker understands is the one the
/// library emits.
fn check_version(doc: &JsonValue, ctx: &str) {
    let version = req_u64(doc, "version");
    if version != METRICS_VERSION {
        fail(&format!(
            "{ctx}version {version} is not the supported {METRICS_VERSION}"
        ));
    }
}

/// Runs every invariant check on an already-parsed report document
/// (a standalone `--metrics-json` file, or one embedded `delta` of a
/// series line). Returns the summary fragments.
fn check_report(doc: &JsonValue) -> Vec<String> {
    // Schema header.
    if req(doc, "schema").as_str() != Some(METRICS_SCHEMA) {
        fail(&format!("schema is not {METRICS_SCHEMA:?}"));
    }
    check_version(doc, "");

    // Every declared counter of every present section is a non-negative
    // integer under its own name.
    for (section, fields) in [
        ("htm", StatsSnapshot::FIELDS),
        ("nvm", NvmStatsSnapshot::FIELDS),
        ("epoch", EpochStatsSnapshot::FIELDS),
    ] {
        if let Some(s) = doc.get(section) {
            for field in fields {
                let _ = req_u64(s, field);
            }
        }
    }

    // HTM coherence: attempts = commits + sum of abort causes.
    let mut summary = Vec::new();
    if let Some(htm) = doc.get("htm") {
        let attempts = req_u64(htm, "attempts");
        let commits = req_u64(htm, "commits");
        let aborts: u64 = match req(htm, "aborts") {
            JsonValue::Obj(members) => members
                .iter()
                .map(|(cause, n)| {
                    n.as_u64()
                        .unwrap_or_else(|| fail(&format!("abort count {cause:?} not an integer")))
                })
                .sum(),
            _ => fail("htm.aborts is not an object"),
        };
        if attempts != commits + aborts {
            fail(&format!(
                "htm incoherent: attempts={attempts} != commits={commits} + aborts={aborts}"
            ));
        }
        summary.push(format!("htm attempts={attempts}"));
    }

    // Derived gauges: the frontier never passes the clock.
    if let Some(d) = doc.get("derived") {
        let current = req_u64(d, "current_epoch");
        let frontier = req_u64(d, "persisted_frontier");
        let lag = req_u64(d, "frontier_lag");
        if frontier > current {
            fail(&format!(
                "derived incoherent: persisted_frontier={frontier} > current_epoch={current}"
            ));
        }
        if lag != current - frontier {
            fail(&format!(
                "derived incoherent: frontier_lag={lag} != {current} - {frontier}"
            ));
        }
        summary.push(format!("frontier_lag={lag}"));
        // Lag gauges: quantiles monotone.
        let p50 = req_u64(d, "durability_lag_p50");
        let p99 = req_u64(d, "durability_lag_p99");
        let max = req_u64(d, "durability_lag_max");
        if !(p50 <= p99 && p99 <= max) {
            fail(&format!(
                "derived incoherent: durability lag quantiles not monotone \
                 (p50={p50} p99={p99} max={max})"
            ));
        }
        let _ = req_u64(d, "lag_spans_dropped");
        let _ = req_u64(d, "flight_events_dropped");
        summary.push(format!("lag_p99={p99}ns"));
    }

    // Histograms: monotone quantiles, bucket counts sum to count.
    match req(doc, "histograms") {
        JsonValue::Obj(members) => {
            for (name, h) in members {
                check_hist(name, h);
            }
            if let Err(e) = check_histogram_set(members, doc.get("derived").is_some()) {
                fail(&e);
            }
            summary.push(format!("{} histograms", members.len()));
        }
        _ => fail("histograms is not an object"),
    }

    summary
}

/// A report with an epoch system (one with a `derived` section)
/// carries exactly the histograms [`Obs::HISTOGRAMS`] declares, under
/// their units; a report without one carries none.
fn check_histogram_set(members: &[(String, JsonValue)], with_esys: bool) -> Result<(), String> {
    let mut got: Vec<(&str, &str)> = members
        .iter()
        .map(|(name, h)| {
            (
                name.as_str(),
                h.get("unit").and_then(JsonValue::as_str).unwrap_or(""),
            )
        })
        .collect();
    let mut want: Vec<(&str, &str)> = Obs::HISTOGRAMS
        .iter()
        .filter(|_| with_esys)
        .copied()
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!("histograms {got:?}, want {want:?}"))
    }
}

/// The `--series` gate: validates a sampler JSON-lines stream.
fn check_series(path: &str) {
    let text = read(path);
    let mut prev_t = 0u64;
    let mut n = 0u64;
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let doc = JsonValue::parse(line)
            .unwrap_or_else(|e| fail(&format!("line {}: invalid JSON: {e}", i + 1)));
        if req(&doc, "schema").as_str() != Some(METRICS_SERIES_SCHEMA) {
            fail(&format!(
                "line {}: schema is not {METRICS_SERIES_SCHEMA:?}",
                i + 1
            ));
        }
        check_version(&doc, &format!("line {}: ", i + 1));
        let seq = req_u64(&doc, "seq");
        if seq != i as u64 {
            fail(&format!(
                "line {}: seq {seq} not dense (expected {i})",
                i + 1
            ));
        }
        let t = req_u64(&doc, "t_ns");
        if t < prev_t {
            fail(&format!(
                "line {}: t_ns {t} goes backwards (previous {prev_t})",
                i + 1
            ));
        }
        prev_t = t;
        check_report(req(&doc, "delta"));
        n += 1;
    }
    if n == 0 {
        fail("series is empty: a run must emit at least its final flush sample");
    }
    println!(
        "metrics_check: series OK ({n} samples over {:.1} ms)",
        prev_t as f64 / 1e6
    );
}

/// The `--trace` gate: validates a Chrome trace_event export.
fn check_trace(path: &str) {
    let doc = parse(&read(path));
    let events = req(&doc, "traceEvents")
        .as_arr()
        .unwrap_or_else(|| fail("traceEvents is not an array"));
    if events.is_empty() {
        fail("trace has no events");
    }
    let mut spans = 0u64;
    let mut instants = 0u64;
    let mut flow_starts = 0u64;
    let mut flow_finishes = 0u64;
    for (i, e) in events.iter().enumerate() {
        let ph = req(e, "ph")
            .as_str()
            .unwrap_or_else(|| fail(&format!("event {i}: ph is not a string")));
        match ph {
            "X" => {
                spans += 1;
                if req(e, "dur").as_f64().is_none() {
                    fail(&format!("event {i}: complete span without a duration"));
                }
            }
            "i" => instants += 1,
            "s" => flow_starts += 1,
            "f" => flow_finishes += 1,
            "M" => {
                if req(e, "args")
                    .get("name")
                    .and_then(|n| n.as_str())
                    .is_none()
                {
                    fail(&format!("event {i}: metadata record without a name"));
                }
                continue; // metadata carries no timestamp
            }
            other => fail(&format!("event {i}: unknown phase {other:?}")),
        }
        if req(e, "ts").as_f64().is_none() {
            fail(&format!("event {i}: missing timestamp"));
        }
        let _ = req(e, "tid");
    }
    if flow_starts != flow_finishes {
        fail(&format!(
            "durability-lag arrows unbalanced: {flow_starts} starts, {flow_finishes} finishes"
        ));
    }
    let meta = req(&doc, "metadata");
    let dropped = req_u64(meta, "events_dropped");
    println!(
        "metrics_check: trace OK ({spans} spans, {instants} instants, \
         {flow_starts} lag arrows, {dropped} events dropped)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("--series"), Some(path)) => {
            check_series(path);
            return;
        }
        (Some("--trace"), Some(path)) => {
            check_trace(path);
            return;
        }
        (Some("--series" | "--trace"), None) => {
            fail("usage: metrics_check --series <series.jsonl> | --trace <trace.json>");
        }
        _ => {}
    }
    let Some(path) = args.first() else {
        fail("usage: metrics_check <report.json> | --series <s.jsonl> | --trace <t.json>");
    };
    let summary = check_report(&parse(&read(path)));
    println!("metrics_check: OK ({})", summary.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::{EpochConfig, EpochSys, MetricsRegistry};
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::sync::Arc;

    /// The `histograms` members of a report from a fresh epoch system.
    fn esys_histograms() -> Vec<(String, JsonValue)> {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(1 << 20)));
        let mut registry = MetricsRegistry::new();
        registry.attach_esys(EpochSys::format(heap, EpochConfig::manual()));
        let doc = JsonValue::parse(&registry.report().to_json()).unwrap();
        match doc.get("histograms") {
            Some(JsonValue::Obj(members)) => members.clone(),
            _ => panic!("report without a histograms object"),
        }
    }

    #[test]
    fn a_report_carries_exactly_the_declared_histograms() {
        let mut members = esys_histograms();
        assert_eq!(check_histogram_set(&members, true), Ok(()));
        assert!(check_histogram_set(&members, false).is_err());
        assert_eq!(check_histogram_set(&[], false), Ok(()));

        let extra = (String::from("undeclared_ns"), members[0].1.clone());
        members.push(extra);
        let err = check_histogram_set(&members, true).unwrap_err();
        assert!(err.contains("undeclared_ns"), "{err}");
        members.pop();
        members.pop();
        assert!(check_histogram_set(&members, true).is_err(), "one missing");
    }
}
