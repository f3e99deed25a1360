//! Fig. 5: persistent lock-free skiplist variants, uniform keys,
//! read:write = 2:8, thread sweep. Expected ordering (paper):
//! T-Skiplist > BDL-Skiplist > P-Skiplist-HTM-MwCAS > P-Skiplist-no-flush
//! > DL-Skiplist, with BDL ~3x DL and T-Skiplist only ~20% above BDL.
//!
//! ```sh
//! cargo run --release -p bench --bin fig5_skiplist
//! ```

use bench::*;
use nvm_sim::{NvmConfig, NvmHeap};
use skiplist::{BdlSkiplist, DlSkiplist, PersistMode};
use std::sync::Arc;
use ycsb_gen::Mix;

fn main() {
    let ubits = 20 - scale_down_bits() / 2;
    let threads = thread_counts();
    // --metrics-json captures the last BDL-Skiplist configuration run
    // (final thread count).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 5: skiplists, uniform, R:W=2:8, universe 2^{ubits} (Mops/s)");
    header("variant", &threads);
    let w = workload(1 << ubits, None, Mix::fig5());
    let heap = |nvm| Arc::new(NvmHeap::new(nvm));

    // Strict DL-Skiplist and its two transient ablations, all-NVM.
    for (name, mode) in [
        ("DL-Skiplist", PersistMode::Strict),
        ("P-Skiplist-no-flush", PersistMode::NoFlush),
        ("P-Skiplist-HTM-MwCAS", PersistMode::HtmMwcas),
    ] {
        let vals = series(&w, &threads, || {
            Point::plain(DlSkiplist::new(heap(NvmConfig::optane(HEAP_BYTES)), mode))
        });
        row(name, &vals);
    }

    // BDL-Skiplist: towers in DRAM, KV in NVM, epoch system.
    let vals = series(&w, &threads, || {
        let (esys, htm) = substrate(NvmConfig::optane(HEAP_BYTES), EPOCH_LEN, Some(&mut sink));
        Point::ticked(BdlSkiplist::new(Arc::clone(&esys), htm), &esys)
    });
    row("BDL-Skiplist", &vals);

    // T-Skiplist: the no-flush algorithm on a zero-latency "DRAM" heap.
    let vals = series(&w, &threads, || {
        let heap = heap(NvmConfig::for_tests(HEAP_BYTES));
        Point::plain(DlSkiplist::new(heap, PersistMode::NoFlush))
    });
    row("T-Skiplist (DRAM)", &vals);
    sink.write();
}
