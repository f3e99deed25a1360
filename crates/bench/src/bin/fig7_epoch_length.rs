//! Fig. 7: single-thread PHTM-vEB throughput as a function of epoch
//! length (1 µs – 10 s) and workload skew (uniform, Zipfian 0.9 / 0.99),
//! 80% writes. The paper: longer epochs help skewed workloads (less
//! cache-invalidating background flushing of hot lines) with diminishing
//! returns past ~10 ms; uniform workloads barely care.
//!
//! ```sh
//! cargo run --release -p bench --bin fig7_epoch_length
//! ```
//!
//! Each data point runs a [`Persister`](bdhtm_core::Persister) next to
//! the ticker, so epoch advances only release the epochs the persister
//! seals and writes back.

use bench::*;
use nvm_sim::NvmConfig;
use std::sync::Arc;
use std::time::Duration;
use veb::PhtmVeb;
use ycsb_gen::Mix;

fn main() {
    let ubits = 22 - scale_down_bits() / 2;
    // 1 µs .. 10 s, log-spaced as in the paper (10 s capped to keep runs
    // bounded — at that point the ticker never fires within a data point,
    // which is exactly the paper's "unacceptable data-loss window").
    let epochs = [
        ("1us", Duration::from_micros(1)),
        ("100us", Duration::from_micros(100)),
        ("1ms", Duration::from_millis(1)),
        ("10ms", Duration::from_millis(10)),
        ("100ms", Duration::from_millis(100)),
        ("1s", Duration::from_secs(1)),
        ("10s", Duration::from_secs(10)),
    ];
    // --metrics-json captures the zipfian(0.99) run at the 1 ms epoch
    // point — short enough that the ticker fires many advances within a
    // data point, so the advance_ns histogram is well populated.
    let mut sink = MetricsSink::from_args();
    println!(
        "# Fig 7: single-thread PHTM-vEB vs epoch length, universe 2^{ubits}, 80% writes (Mops/s), persist=bg"
    );
    print!("{:<16}", "distribution");
    for (name, _) in &epochs {
        print!(" {name:>8}");
    }
    println!();

    for (dist_name, zipf) in [
        ("uniform", None),
        ("zipfian(0.9)", Some(0.9)),
        ("zipfian(0.99)", Some(0.99)),
    ] {
        let w = workload(1 << ubits, zipf, Mix::reads(0.2));
        print!("{dist_name:<16}");
        for (name, len) in &epochs {
            let attach = (*name == "1ms").then_some(&mut sink);
            let (esys, htm) = substrate(NvmConfig::optane(HEAP_BYTES), *len, attach);
            let tree = PhtmVeb::new(ubits, Arc::clone(&esys), htm);
            let mops = Point::ticked(tree, &esys).with_persister().run(&w, 1);
            print!(" {mops:>8.3}");
        }
        println!();
    }
    sink.write();
}
