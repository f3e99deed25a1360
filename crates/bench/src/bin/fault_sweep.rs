//! Exhaustive crash-point sweep over the three BDL structure families,
//! reporting recovery success rates per fault mode.
//!
//! For each structure the driver enumerates every persist boundary the
//! seeded workload crosses, then replays the workload crashing at each
//! point (or an even stride of `--replays` of them), recovers, and
//! checks the BDL e−2 prefix property plus the structure's own
//! invariants. Modes layer adversity on top: torn write-backs at the
//! crash instant, a second crash inside recovery, and seeded HTM abort
//! injection that pushes every operation through the fallback path.
//!
//! ```sh
//! cargo run --release -p bench --bin fault_sweep            # all modes
//! FAULT_SEED=0xBDL cargo run --release -p bench --bin fault_sweep -- \
//!     --replays 200 --modes plain,torn,double,aborts
//! ```
//!
//! The sweep is deterministic in `FAULT_SEED` (or `--seed`): the same
//! seed reproduces the same workload, crash schedule, and verdicts.
//! Exits nonzero if any replay fails. On the *first* invariant failure
//! the flight-recorder tail of the failing replay is also exported as a
//! Perfetto trace (`--trace-out <path>`, default
//! `fault_sweep_trace.json`), so the failure ships with a timeline, not
//! just a text dump.

use bdhtm_core::trace::{chrome_trace, TraceMeta};
use fault::{
    pinned_digest, pinned_pipelined_digest, seed_from_env, sweep_all, sweep_runtime_all,
    RuntimeReport, SweepConfig, SweepReport, PINNED_PIPELINED_DIGEST, PINNED_SWEEP_DIGEST,
};
use htm_sim::HtmConfig;

fn usage() -> ! {
    eprintln!(
        "usage: fault_sweep [--seed N] [--ops N] [--replays N] \
         [--modes plain,torn,double,aborts,pipelined,pipelined-torn,runtime] \
         [--trace-out PATH] [--digest [--check]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut seed = seed_from_env(0xBD1_5EED);
    let mut ops = 240usize;
    let mut replays = 150u64;
    let mut digest = false;
    let mut check = false;
    let mut modes: Vec<String> = [
        "plain",
        "torn",
        "double",
        "aborts",
        "pipelined",
        "pipelined-torn",
        "runtime",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let common = bench::CommonArgs::parse();
    let trace_out = common
        .trace_out
        .clone()
        .unwrap_or_else(|| "fault_sweep_trace.json".to_string());

    let mut args = common.rest.iter().cloned();
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--ops" => ops = val().parse().unwrap_or_else(|_| usage()),
            "--replays" => replays = val().parse().unwrap_or_else(|_| usage()),
            "--modes" => modes = val().split(',').map(|s| s.trim().to_string()).collect(),
            "--digest" => digest = true,
            "--check" => check = true,
            _ => usage(),
        }
    }

    if digest {
        // Behavior-preservation mode: print the pinned-seed outcome
        // digests of the synchronous and the pipelined persist paths;
        // with --check, also compare each to its single recorded
        // constant (fault::digest) so CI reads one source of truth
        // instead of restating the hex in shell.
        let mut drifted = false;
        for (name, d, want) in [
            ("sync", pinned_digest(seed), PINNED_SWEEP_DIGEST),
            (
                "pipelined",
                pinned_pipelined_digest(seed),
                PINNED_PIPELINED_DIGEST,
            ),
        ] {
            println!("{name:<9} {d:#018x}");
            if check && d != want {
                eprintln!("pinned-seed {name} digest changed: got {d:#018x}, want {want:#018x}");
                drifted = true;
            }
        }
        if drifted {
            eprintln!("(a refactor altered crash-point schedules or recovery outcomes;");
            eprintln!(" if intentional, update the constant in fault::digest)");
            std::process::exit(1);
        }
        return;
    }

    let base = {
        let mut c = SweepConfig::quick(seed).with_max_replays(replays);
        c.ops = ops;
        c
    };
    println!("# Crash-point sweep: seed {seed:#x}, {ops} ops/run, <= {replays} replays/structure");
    println!(
        "{:<8} {:<14} {:>7} {:>8} {:>7} {:>7} {:>10}",
        "mode", "structure", "points", "replays", "fired", "double", "recovered"
    );

    let mut failed = false;
    let mut trace_written = false;
    for mode in &modes {
        // `runtime` keeps the machine alive and makes the *device*
        // unreliable instead: seeded transient write-back/fence faults
        // drive the persister's retry→degrade→fail-stop ladder across
        // all three structure families (see fault::runtime).
        if mode == "runtime" {
            for report in sweep_runtime_all(seed) {
                print_runtime_report(&report);
                if !report.passed() {
                    failed = true;
                    for f in report.failures.iter().take(5) {
                        eprintln!("  FAIL {f}");
                    }
                }
            }
            continue;
        }
        // `pipelined*` modes drive the background-persist crash sweep:
        // epoch advances only seal batches, write-backs and frontier
        // publishes happen on a deterministic stand-in for the
        // persister, and crashes land while batches are in flight.
        let mut cfg = match mode.as_str() {
            "plain" | "pipelined" => base.clone(),
            "torn" | "pipelined-torn" => base.clone().with_torn_writes(),
            "double" => base.clone().with_torn_writes().with_double_crash(),
            "aborts" => base.clone().with_htm(
                HtmConfig::for_tests()
                    .with_abort_injection(seed | 1, 0.10, 0.10, 0.02)
                    .with_max_retries(4),
            ),
            other => {
                eprintln!("unknown mode {other:?}");
                usage()
            }
        };
        cfg.pipelined = mode.starts_with("pipelined");
        for report in sweep_all(&cfg) {
            print_report(mode, &report);
            if !report.passed() {
                failed = true;
                for f in report.failures.iter().take(5) {
                    eprintln!("  FAIL {f}");
                }
                if report.failures.len() > 5 {
                    eprintln!("  ... and {} more", report.failures.len() - 5);
                }
                // The flight recorder of the first failing replay: the
                // last lifecycle events leading up to the crash point.
                if !report.flight_dump.is_empty() {
                    eprintln!(
                        "  flight recorder (last {} events before the first failure):",
                        report.flight_dump.len()
                    );
                    for line in &report.flight_dump {
                        eprintln!("    {line}");
                    }
                }
                // Export the first failure's timeline once per process:
                // open it in ui.perfetto.dev to see the crash in context.
                if !trace_written && !report.flight_events.is_empty() {
                    let json = chrome_trace(&report.flight_events, &TraceMeta::default());
                    match std::fs::write(&trace_out, &json) {
                        Ok(()) => {
                            trace_written = true;
                            eprintln!("  trace of the failing replay written to {trace_out}");
                        }
                        Err(e) => eprintln!("  cannot write trace to {trace_out}: {e}"),
                    }
                }
            }
        }
    }
    if failed {
        eprintln!("fault sweep FAILED");
        std::process::exit(1);
    }
    println!("# all replays recovered to the durable prefix");
}

fn print_report(mode: &str, r: &SweepReport) {
    let ok = r.replays - r.failures.len() as u64;
    println!(
        "{:<8} {:<14} {:>7} {:>8} {:>7} {:>7} {:>6}/{:<3}",
        mode, r.structure, r.points, r.replays, r.fired, r.double_crashes, ok, r.replays
    );
}

fn print_runtime_report(r: &RuntimeReport) {
    println!(
        "{:<8} {:<14} {:>9} {:>8} retries {:<5} degradations {:<3} health {}",
        "runtime",
        r.structure,
        r.scenario,
        if r.passed() { "ok" } else { "FAIL" },
        r.persist_retries,
        r.degradations,
        r.final_health
    );
}
