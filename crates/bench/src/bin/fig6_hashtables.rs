//! Fig. 6: persistent hash tables — BD-Spash vs Spash (on eADR) vs CCEH
//! vs Plush — in four quadrants: {uniform, Zipfian(0.99)} x
//! {write-heavy, read-heavy}. The paper: BD-Spash essentially matches
//! Spash; CCEH and Plush trail because of strict-DL costs, with Plush's
//! logging hurting most under skewed writes.
//!
//! ```sh
//! cargo run --release -p bench --bin fig6_hashtables
//! ```

use bench::*;
use hashtable::{BdSpash, Cceh, Plush, Spash};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;

fn main() {
    let ubits = 26 - scale_down_bits();
    let threads = thread_counts();
    // --metrics-json captures the last BD-Spash configuration run (the
    // final thread count of the last quadrant).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 6: persistent hash tables, universe 2^{ubits} (Mops/s)");

    let heap = |nvm| Arc::new(NvmHeap::new(nvm));
    for (quadrant, w) in quadrants(1 << ubits) {
        println!("\n## {quadrant}");
        header("table", &threads);
        let vals = series(&w, &threads, || {
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            Point::plain(Spash::new(heap(NvmConfig::optane_eadr(HEAP_BYTES)), htm))
        });
        row("Spash (eADR)", &vals);
        let vals = series(&w, &threads, || {
            let (esys, htm) = substrate(NvmConfig::optane(HEAP_BYTES), EPOCH_LEN, Some(&mut sink));
            Point::ticked(BdSpash::new(Arc::clone(&esys), htm), &esys)
        });
        row("BD-Spash (ADR)", &vals);
        let vals = series(&w, &threads, || {
            Point::plain(Cceh::new(heap(NvmConfig::optane(HEAP_BYTES))))
        });
        row("CCEH", &vals);
        let vals = series(&w, &threads, || {
            Point::plain(Plush::new(heap(NvmConfig::optane(HEAP_BYTES))))
        });
        row("Plush", &vals);
    }
    sink.write();
}
