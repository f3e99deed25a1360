//! Ablation: where does PHTM-vEB's overhead relative to HTM-vEB come
//! from? (The DESIGN.md design-choice question behind Fig. 1; the paper
//! attributes most of it to NVM memory management for KV pairs.)
//!
//! Four configurations, single workload (uniform write-heavy):
//!   1. HTM-vEB — transient baseline.
//!   2. PHTM-vEB, free NVM — epoch system + allocator on a zero-latency
//!      heap: isolates the *mechanism* cost (allocation, tracking,
//!      out-of-place updates).
//!   3. PHTM-vEB, Optane model — adds the device cost model: isolates
//!      the *latency* contribution.
//!   4. PHTM-vEB, 1 µs epochs — pathologically short epochs: isolates
//!      epoch-churn cost (OldSeeNew restarts, constant flushing).
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_bdl
//! ```

use bench::*;
use htm_sim::{Htm, HtmConfig};
use nvm_sim::NvmConfig;
use std::sync::Arc;
use std::time::Duration;
use veb::{HtmVeb, PhtmVeb};
use ycsb_gen::Mix;

fn main() {
    let ubits = 26 - scale_down_bits();
    let threads = thread_counts();
    let w = workload(1 << ubits, None, Mix::write_heavy());
    // --metrics-json captures the last configuration run (1 µs epochs,
    // final thread count) — the epoch-churn extreme.
    let mut sink = MetricsSink::from_args();
    println!("# Ablation: PHTM-vEB overhead decomposition, universe 2^{ubits} (Mops/s)");
    header("configuration", &threads);

    // 1. Transient.
    let vals = series(&w, &threads, || {
        Point::plain(HtmVeb::new(ubits, Arc::new(Htm::new(HtmConfig::default()))))
    });
    row("HTM-vEB (transient)", &vals);

    // 2–4. PHTM-vEB variants.
    let (free, optane) = (
        NvmConfig::for_tests(HEAP_BYTES),
        NvmConfig::optane(HEAP_BYTES),
    );
    for (label, nvm, epoch_len) in [
        ("PHTM-vEB, free NVM", &free, EPOCH_LEN),
        ("PHTM-vEB, Optane model", &optane, EPOCH_LEN),
        ("PHTM-vEB, 1us epochs", &optane, Duration::from_micros(1)),
    ] {
        let vals = series(&w, &threads, || {
            let (esys, htm) = substrate(nvm.clone(), epoch_len, Some(&mut sink));
            Point::ticked(PhtmVeb::new(ubits, Arc::clone(&esys), htm), &esys)
        });
        row(label, &vals);
    }
    sink.write();
}
