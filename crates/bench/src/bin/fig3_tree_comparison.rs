//! Fig. 3: persistent-tree throughput — PHTM-vEB vs LB+Tree vs
//! OCC-ABTree vs Elim-ABTree — in four quadrants: {uniform,
//! Zipfian(0.99)} x {write-heavy, read-heavy}. The paper reports
//! PHTM-vEB ahead of LB+Tree by 1.2–2.8x and of the (a,b)-trees by
//! 1.6–4x.
//!
//! ```sh
//! cargo run --release -p bench --bin fig3_tree_comparison
//! ```

use bench::*;
use btree::{ElimAbTree, LbTree, OccAbTree};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;
use veb::PhtmVeb;

fn main() {
    let ubits = 26 - scale_down_bits();
    let threads = thread_counts();
    // --metrics-json captures the last PHTM-vEB configuration run (the
    // final thread count of the last quadrant).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 3: persistent trees, universe 2^{ubits} (Mops/s)");

    let optane = || Arc::new(NvmHeap::new(NvmConfig::optane(HEAP_BYTES)));
    for (quadrant, w) in quadrants(1 << ubits) {
        println!("\n## {quadrant}");
        header("tree", &threads);
        let vals = series(&w, &threads, || {
            let (esys, htm) = substrate(NvmConfig::optane(HEAP_BYTES), EPOCH_LEN, Some(&mut sink));
            Point::ticked(PhtmVeb::new(ubits, Arc::clone(&esys), htm), &esys)
        });
        row("PHTM-vEB", &vals);
        let vals = series(&w, &threads, || Point::plain(LbTree::new(optane())));
        row("LB+Tree", &vals);
        let vals = series(&w, &threads, || Point::plain(OccAbTree::new(optane())));
        row("OCC-ABTree", &vals);
        let vals = series(&w, &threads, || Point::plain(ElimAbTree::new(optane())));
        row("Elim-ABTree", &vals);
    }
    sink.write();
}
