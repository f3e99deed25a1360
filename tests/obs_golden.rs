//! Byte-for-byte pins of the four observability renderings: flight-dump
//! lines, the Chrome trace, the metrics report and one series line.
//!
//! The goldens under `tests/golden/` were captured from the hand-written
//! renderers before the event, counter and histogram vocabularies became
//! single declarations; the derived renderers must reproduce them
//! exactly, so no consumer of a dump, trace or report sees a difference.

use bd_htm::bdhtm_core::obs::{
    DerivedGauges, NamedHist, ABORT_RESTART, ABORT_UNWIND, METRICS_VERSION,
};
use bd_htm::bdhtm_core::trace::{chrome_trace, TraceMeta};
use bd_htm::bdhtm_core::{series_line, EpochStatsSnapshot, HealthState, OLD_SEE_NEW};
use bd_htm::nvm_sim::NvmStatsSnapshot;
use bd_htm::persist_alloc::AllocStats;
use bd_htm::prelude::*;

fn ev(t_ns: u64, tid: usize, kind: EventKind, a: u64, b: u64) -> FlightEvent {
    FlightEvent {
        t_ns,
        tid,
        kind,
        a,
        b,
    }
}

/// Every [`EventKind`], every decoded payload (abort tag, crash-point
/// kind, health code) at each of its spellings, and the span-pairing
/// edge cases: a begin whose end was lost, a terminal whose begin was
/// lost, an op still open at the end, and one lag arrow.
fn events() -> Vec<FlightEvent> {
    use EventKind::*;
    vec![
        ev(1_000, 0, OpBegin, 2, 0),
        ev(1_500, 1, OpBegin, 2, 0),
        ev(2_250, 0, OpAbort, 2, ABORT_RESTART),
        ev(2_500, 0, OpBegin, 2, 0),
        ev(3_001, 1, OpAbort, 2, 1 + OLD_SEE_NEW as u64),
        ev(3_100, 0, OpCommit, 2, 1),
        ev(3_200, 1, OpBegin, 3, 0),
        ev(3_300, 1, OpAbort, 3, 1 + 0x07),
        ev(3_400, 2, OpAbort, 3, ABORT_UNWIND),
        ev(3_500, 2, OpBegin, 3, 0),
        ev(3_600, 2, OpBegin, 3, 0),
        ev(3_700, 2, OpPanicked, 3, 4),
        ev(4_000, 3, EpochAdvance, 3, 1),
        ev(4_100, 3, BatchSealed, 17, 96),
        ev(4_200, 3, PipelineStall, 2, 2),
        ev(5_000, 4, PersistRetry, 2, 1),
        ev(5_100, 4, PersistBatch, 17, 96),
        ev(5_999, 4, BatchPersisted, 2, 17),
        ev(6_000, 4, DegradedToSync, 1, 2),
        ev(6_100, 4, DegradedToSync, 2, u64::MAX),
        ev(6_150, 4, DegradedToSync, 300, 9),
        ev(6_300, 5, FaultInjected, 7, 0),
        ev(6_400, 5, FaultInjected, 8, 1),
        ev(6_500, 5, FaultInjected, 9, 2),
        ev(6_600, 5, FaultInjected, 10, 3),
        ev(6_700, 5, FaultInjected, 11, 4),
        ev(7_000, 0, OpBegin, 4, 0),
        ev(1_234_567_890_123, 12, OpCommit, 9, 0),
    ]
}

fn hist(count_at: &[(usize, u64)], sum: u64, max: u64) -> HistSnapshot {
    let mut snap = HistSnapshot {
        sum,
        max,
        ..HistSnapshot::default()
    };
    for &(bucket, n) in count_at {
        snap.buckets[bucket] = n;
        snap.count += n;
    }
    snap
}

/// A report with every section present and every field distinct, so a
/// swapped pair of keys or values cannot cancel out.
fn report() -> MetricsReport {
    let mut htm = bd_htm::htm_sim::StatsSnapshot {
        commits: 1_001,
        fallbacks: 3,
        ..Default::default()
    };
    for (i, n) in htm.aborts.iter_mut().enumerate() {
        *n = 10 + i as u64;
    }
    let mut alloc = AllocStats::default();
    for (i, n) in alloc.live_blocks.iter_mut().enumerate() {
        *n = 5 * i as i64 - 1;
    }
    MetricsReport {
        htm: Some(htm),
        nvm: Some(NvmStatsSnapshot {
            reads: 21,
            writes: 22,
            cas_ops: 23,
            flushes: 24,
            lines_written_back: 25,
            xplines_touched: 26,
            fences: 27,
            evicted_lines: 28,
        }),
        epoch: Some(EpochStatsSnapshot {
            advances: 31,
            blocks_persisted: 32,
            words_persisted: 33,
            blocks_reclaimed: 34,
            pipeline_stalls: 36,
            early_seals: 51,
            persist_retries: 37,
            coalesced_flushes: 38,
            degradations: 39,
        }),
        alloc: Some(alloc),
        derived: Some(DerivedGauges {
            current_epoch: 41,
            persisted_frontier: 39,
            frontier_lag: 2,
            buffered_words: 44,
            health: HealthState::Degraded,
            durability_lag_p50: 45,
            durability_lag_p99: 46,
            durability_lag_max: 47,
            lag_spans_dropped: 48,
            flight_events_dropped: 49,
        }),
        histograms: vec![
            NamedHist {
                name: "htm_backoff_spins",
                unit: "spins",
                snap: hist(&[(0, 4), (3, 2)], 11, 7),
            },
            NamedHist {
                name: "op_latency_ns",
                unit: "ns",
                snap: hist(&[(9, 100), (10, 50), (20, 1)], 1_234_567, 999_999),
            },
        ],
    }
}

fn assert_golden(name: &str, got: &str, want: &str) {
    assert!(
        got == want,
        "{name} drifted from tests/golden/{name}\n--- got\n{got}\n--- want\n{want}"
    );
}

#[test]
fn flight_dump_lines_match_the_golden() {
    let got: String = events().iter().map(|e| e.render() + "\n").collect();
    assert_golden("render.txt", &got, include_str!("golden/render.txt"));
}

#[test]
fn chrome_trace_matches_the_golden() {
    let meta = TraceMeta {
        events_dropped: 3,
        lag_spans_dropped: 1,
    };
    let got = chrome_trace(&events(), &meta);
    assert_golden(
        "chrome_trace.json",
        &got,
        include_str!("golden/chrome_trace.json"),
    );
}

#[test]
fn report_json_and_series_line_match_the_goldens() {
    assert_eq!(METRICS_VERSION, 7, "the goldens are version-7 documents");
    let full = report();
    assert_golden(
        "report.json",
        &(full.to_json() + "\n"),
        include_str!("golden/report.json"),
    );
    // A partial report (no esys attached) omits whole sections.
    let partial = MetricsReport {
        nvm: None,
        epoch: None,
        alloc: None,
        derived: None,
        ..report()
    };
    assert_golden(
        "report_partial.json",
        &(partial.to_json() + "\n"),
        include_str!("golden/report_partial.json"),
    );
    assert_golden(
        "series_line.json",
        &(series_line(123_456_789, 7, &full) + "\n"),
        include_str!("golden/series_line.json"),
    );
}
