//! Fig. 1: throughput of transient HTM-vEB vs buffered-durable PHTM-vEB,
//! write-heavy workload (80% writes), uniform and Zipfian(0.99) keys,
//! thread sweep. The paper finds PHTM-vEB within ~2–3x of HTM-vEB.
//!
//! ```sh
//! cargo run --release -p bench --bin fig1_veb_overhead
//! ```

use bench::*;
use htm_sim::{Htm, HtmConfig};
use nvm_sim::NvmConfig;
use std::sync::Arc;
use veb::{HtmVeb, PhtmVeb};
use ycsb_gen::Mix;

fn main() {
    let ubits = 26 - scale_down_bits();
    let threads = thread_counts();
    // --metrics-json captures the last configuration run: the final
    // thread count of the zipfian PHTM-vEB series.
    let mut sink = MetricsSink::from_args();
    println!(
        "# Fig 1: HTM-vEB vs PHTM-vEB, write-heavy (80% writes), universe 2^{ubits}, epoch 50ms"
    );
    header("series (Mops/s)", &threads);

    for (dist_name, zipf) in [("uniform", None), ("zipfian(0.99)", Some(0.99))] {
        let w = workload(1 << ubits, zipf, Mix::write_heavy());
        let vals = series(&w, &threads, || {
            Point::plain(HtmVeb::new(ubits, Arc::new(Htm::new(HtmConfig::default()))))
        });
        row(&format!("HTM-vEB {dist_name}"), &vals);

        // Buffered-durable PHTM-vEB on an Optane-latency heap.
        let vals = series(&w, &threads, || {
            let (esys, htm) = substrate(NvmConfig::optane(HEAP_BYTES), EPOCH_LEN, Some(&mut sink));
            Point::ticked(PhtmVeb::new(ubits, Arc::clone(&esys), htm), &esys)
        });
        row(&format!("PHTM-vEB {dist_name}"), &vals);
    }
    sink.write();
}
