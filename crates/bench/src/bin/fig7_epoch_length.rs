//! Fig. 7: single-thread PHTM-vEB throughput as a function of epoch
//! length (1 µs – 10 s) and workload skew (uniform, Zipfian 0.9 / 0.99),
//! 80% writes. The paper: longer epochs help skewed workloads (less
//! cache-invalidating background flushing of hot lines) with diminishing
//! returns past ~10 ms; uniform workloads barely care.
//!
//! ```sh
//! cargo run --release -p bench --bin fig7_epoch_length
//! cargo run --release -p bench --bin fig7_epoch_length -- --pipeline=sync
//! ```
//!
//! `--pipeline=bg` (the default) runs each data point with a
//! [`Persister`] worker next to the ticker, so epoch advances only
//! release the epochs the persister seals and writes back;
//! `--pipeline=sync` spawns no persister, so every advance writes its
//! batch back inline on the advancing thread.

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker, Persister};
use bench::*;
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;
use std::time::Duration;
use veb::PhtmVeb;
use ycsb_gen::{Mix, WorkloadSpec};

fn pipeline_mode() -> bool {
    let mut bg = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = if a == "--pipeline" {
            args.next()
        } else {
            a.strip_prefix("--pipeline=").map(|s| s.to_string())
        };
        match val.as_deref() {
            Some("bg") => bg = true,
            Some("sync") => bg = false,
            Some(other) if a.starts_with("--pipeline") => {
                eprintln!("fig7_epoch_length: unknown --pipeline mode {other:?} (want sync|bg)");
                std::process::exit(2);
            }
            _ => {}
        }
    }
    bg
}

fn main() {
    let bg = pipeline_mode();
    let ubits = 22 - scale_down_bits() / 2;
    let universe = 1u64 << ubits;
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
        "# Fig 7: single-thread PHTM-vEB vs epoch length, universe 2^{ubits}, 80% writes (Mops/s), persist={}",
        if bg { "bg" } else { "sync" }
    );
    print!("{:<16}", "distribution");
    for (name, _) in &epochs {
        print!(" {name:>8}");
    }
    println!();

    for (dist_name, theta) in [
        ("uniform", None),
        ("zipfian(0.9)", Some(0.9)),
        ("zipfian(0.99)", Some(0.99)),
    ] {
        let spec = match theta {
            None => WorkloadSpec::uniform(universe, Mix::reads(0.2)),
            Some(t) => WorkloadSpec::zipfian(universe, t, Mix::reads(0.2)),
        };
        let w = spec.build();
        print!("{dist_name:<16}");
        for (name, len) in &epochs {
            let heap = Arc::new(NvmHeap::new(NvmConfig::optane(512 << 20)));
            let esys = EpochSys::format(heap, EpochConfig::default().with_epoch_len(*len));
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            if *name == "1ms" {
                sink.attach_htm(&htm);
                sink.attach_esys(&esys);
            }
            let tree = Arc::new(PhtmVeb::new(ubits, Arc::clone(&esys), htm));
            let backend: Arc<dyn KvBackend> = tree;
            prefill(backend.as_ref(), &w);
            let persister = bg.then(|| Persister::spawn(Arc::clone(&esys)));
            let ticker = EpochTicker::spawn(esys);
            let mops = throughput(backend, &w, 1);
            ticker.stop();
            if let Some(p) = persister {
                p.stop();
            }
            print!(" {mops:>8.3}");
        }
        println!();
    }
    sink.write();
}
