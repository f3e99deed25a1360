//! End-to-end checks of the durability-lag spans (commit → frontier
//! publish) that feed the v3 `durability_lag_ns` histogram. Three modes
//! matter and each attributes lag differently:
//!
//! * **pipelined** — a background persister with real nvm-sim
//!   write-back latency: when the epoch closes right before the advance
//!   that releases it, every op committed into the batch shows lag at
//!   least as long as its write-back took; when the epoch after it runs
//!   longer than the write-back, the persister has written the batch
//!   back early and the frontier publishes as soon as it is released;
//! * **sync** — inline drains, zero device latency: lag collapses to
//!   roughly the advance cadence;
//! * **Degraded → Failed** — the fault ladder: the histogram plus the
//!   dropped-span gauge stay coherent with the number of commits even
//!   when the frontier freezes and spans can never fold.
//!
//! The map operations go through `run_op` (the only path that stamps
//! commit events), so these tests exercise exactly what a real
//! application sees in its metrics report.

use bd_htm::bdhtm_core::{HealthState, Persister, EPOCH_START};
use bd_htm::nvm_sim::DeviceFaults;
use bd_htm::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds the standard stack on a heap with the given config; manual
/// epoch control so the tests own the advance schedule.
fn stack(nc: NvmConfig, ec: EpochConfig) -> (Arc<NvmHeap>, Arc<EpochSys>, BdhtHashMap) {
    let heap = Arc::new(NvmHeap::new(nc));
    let esys = EpochSys::format(Arc::clone(&heap), ec);
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let map = BdhtHashMap::new(1 << 10, Arc::clone(&esys), htm);
    (heap, esys, map)
}

fn report_for(esys: &Arc<EpochSys>) -> MetricsReport {
    let mut registry = MetricsRegistry::new();
    registry.attach_esys(Arc::clone(esys));
    registry.report()
}

fn lag_hist(report: &MetricsReport) -> &HistSnapshot {
    &report
        .histograms
        .iter()
        .find(|h| h.name == "durability_lag_ns")
        .expect("durability_lag_ns histogram present")
        .snap
}

/// Pipelined mode, back-to-back advances: the persister grinds through
/// a 40-block batch at 0.5 ms of simulated write-back per line, and the
/// releasing advance follows the one that closed the epoch at once, so
/// the write-back lies between the commits and the publish. Every op
/// committed into that batch must show a commit→durable lag of at least
/// the batch duration — tens of milliseconds, not the microseconds the
/// commit itself took.
#[test]
fn pipelined_lag_covers_the_persist_batch_duration() {
    let mut nc = NvmConfig::for_tests(8 << 20);
    nc.writeback_ns = 500_000; // 0.5 ms per line: a 40-block batch ≳ 20 ms
    let (_heap, esys, map) = stack(nc, EpochConfig::manual());
    let persister = Persister::spawn(Arc::clone(&esys));

    let t0 = Instant::now();
    for k in 0..40u64 {
        assert!(map.insert(k, k + 1));
    }
    esys.advance();
    esys.advance(); // releases the 40-op batch before its write-back
    let target = esys.current_epoch();
    esys.advance_until(target); // blocks until the frontier publishes
    persister.stop();
    let elapsed = t0.elapsed().as_nanos() as u64;

    let report = report_for(&esys);
    let d = report.derived.expect("esys attached");
    let lag = lag_hist(&report);

    assert!(
        lag.count >= 40,
        "one span per published insert: {}",
        lag.count
    );
    assert!(
        d.durability_lag_max >= 10_000_000,
        "lag must cover the ≳20 ms write-back, got max {} ns",
        d.durability_lag_max
    );
    assert!(
        d.durability_lag_max <= elapsed,
        "no span can outlast the run ({} > {elapsed} ns)",
        d.durability_lag_max
    );
    assert!(d.durability_lag_p50 <= d.durability_lag_p99);
    assert!(d.durability_lag_p99 <= d.durability_lag_max);
    assert_eq!(d.lag_spans_dropped, 0, "every span published in order");
}

/// Waits until no line has been written back for `quiet` (bounded).
fn wait_for_quiet_write_back(heap: &NvmHeap, quiet: Duration) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = heap.stats().snapshot().lines_written_back;
    let mut since = Instant::now();
    while since.elapsed() < quiet {
        assert!(Instant::now() < deadline, "write-back never went quiet");
        std::thread::sleep(Duration::from_millis(1));
        let now = heap.stats().snapshot().lines_written_back;
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
}

/// Pipelined mode with an idle gap: the epoch after the 40-op batch
/// lasts longer than the batch's ≳ 20 ms write-back, so the persister
/// seals the batch before its release and writes it back inside the
/// gap. The releasing advance then leaves only the fence and the
/// frontier line: between it and the publish, exactly one line (the
/// frontier record) is written back.
#[test]
fn pipelined_release_after_an_idle_gap_publishes_at_once() {
    let mut nc = NvmConfig::for_tests(8 << 20);
    nc.writeback_ns = 500_000;
    let (heap, esys, map) = stack(nc, EpochConfig::manual());
    let persister = Persister::spawn(Arc::clone(&esys));

    for k in 0..40u64 {
        assert!(map.insert(k, k + 1));
    }
    let lines = heap.stats().snapshot().lines_written_back;
    esys.advance(); // closes EPOCH_START: the persister seals it early
    let t = Instant::now();
    while heap.stats().snapshot().lines_written_back == lines {
        assert!(t.elapsed() < Duration::from_secs(10), "no write-back");
        std::thread::sleep(Duration::from_millis(1));
    }
    wait_for_quiet_write_back(&heap, Duration::from_millis(20));
    assert_eq!(
        esys.persisted_frontier(),
        EPOCH_START - 1,
        "written back, but not released"
    );

    let lines = heap.stats().snapshot().lines_written_back;
    let t = Instant::now();
    esys.advance(); // releases EPOCH_START
    while esys.persisted_frontier() < EPOCH_START {
        assert!(t.elapsed() < Duration::from_secs(10), "never published");
        std::thread::yield_now();
    }
    let publish_lines = heap.stats().snapshot().lines_written_back - lines;
    persister.stop();
    assert_eq!(
        publish_lines, 1,
        "the release left write-back beyond the frontier line"
    );
    // EPOCH_START, and whichever empty epochs the persister sealed
    // before their release.
    assert!(esys.stats().snapshot().early_seals >= 1);
    let d = report_for(&esys).derived.expect("esys attached");
    assert_eq!(d.lag_spans_dropped, 0);
}

/// Sync mode: no persister, zero device latency, inline drains on every
/// advance. Lag exists (buffered durability still defers by two epochs)
/// but collapses to the advance cadence — bounded by the whole run's
/// wall time rather than any device stall.
#[test]
fn sync_mode_lag_collapses_to_the_advance_cadence() {
    let (_heap, esys, map) = stack(NvmConfig::for_tests(8 << 20), EpochConfig::manual());

    let t0 = Instant::now();
    let inserts = 64u64;
    for k in 0..inserts {
        assert!(map.insert(k, k));
        if k % 16 == 15 {
            esys.advance();
        }
    }
    esys.advance();
    esys.advance(); // publish everything committed above
    let elapsed = t0.elapsed().as_nanos() as u64;

    let report = report_for(&esys);
    let d = report.derived.expect("esys attached");
    let lag = lag_hist(&report);

    assert!(lag.count >= inserts, "every insert folded: {}", lag.count);
    assert!(
        d.durability_lag_max <= elapsed,
        "inline drains: lag bounded by the run itself ({} > {elapsed})",
        d.durability_lag_max
    );
    assert_eq!(d.lag_spans_dropped, 0);
}

/// The fault ladder: retry exhaustion ratchets Ok → Degraded → Failed.
/// Spans committed after the frontier freezes can never fold, yet the
/// accounting must stay coherent — folded spans plus dropped spans never
/// exceed commits — and the report must still serialize cleanly from
/// a Failed system.
#[test]
fn lag_accounting_stays_coherent_through_degraded_and_failed() {
    let (heap, esys, map) = stack(
        NvmConfig::for_tests(8 << 20),
        EpochConfig::manual().with_persist_retries(1),
    );
    esys.attach_persister(); // hand-driven pipelined mode

    let mut commits = 0u64;
    for k in 0..16u64 {
        assert!(map.insert(k, k));
        commits += 1;
        if k % 8 == 7 {
            esys.advance();
        }
    }
    assert!(esys.persist_next_batch(), "healthy device: first batch ok");
    assert_eq!(esys.health(), HealthState::Ok);

    // A device failing every write-back: the next batch burns its
    // budget and degrades; a second exhaustion fail-stops.
    heap.arm_device_faults(Arc::new(
        DeviceFaults::new(0xBD).with_writeback_failures(1000),
    ));
    assert!(!esys.persist_next_batch());
    assert_eq!(esys.health(), HealthState::Degraded);

    // Degraded still accepts commits — their spans park behind the
    // frozen frontier.
    for k in 100..108u64 {
        assert!(map.insert(k, k));
        commits += 1;
    }

    assert!(!esys.persist_next_batch());
    assert_eq!(esys.health(), HealthState::Failed);
    heap.disarm_device_faults();
    assert!(
        esys.try_begin_op().is_err(),
        "Failed rejects new ops, so no further spans are stamped"
    );

    let report = report_for(&esys);
    let d = report.derived.expect("esys attached");
    assert_eq!(d.health, HealthState::Failed);
    let lag = lag_hist(&report);
    assert!(
        lag.count + d.lag_spans_dropped <= commits,
        "folded ({}) + dropped ({}) spans must not exceed {commits} commits",
        lag.count,
        d.lag_spans_dropped
    );
    assert!(
        lag.count < commits,
        "spans parked behind the frozen frontier must not be counted durable"
    );

    // A Failed system still produces a parseable report.
    let doc = JsonValue::parse(&report.to_json()).expect("report JSON parses");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_u64()),
        Some(bd_htm::bdhtm_core::METRICS_VERSION)
    );
    assert_eq!(
        doc.get("derived")
            .and_then(|d| d.get("health"))
            .and_then(|v| v.as_str()),
        Some("failed")
    );
    esys.detach_persister();
}
