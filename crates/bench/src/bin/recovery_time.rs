//! §5.2: recovery time — NVM heap scan, DRAM index rebuild, `validate()`
//! (the three phases the repo benchmark reports) — for the three
//! case-study structures, with 1 and N scanner/rebuild threads. The
//! 1-thread rebuild runs no transactions (the index is private until
//! `recover` returns); the N-thread rebuild links through HTM, as in the
//! paper, where rebuild dominates, parallelizes well, and the skiplist
//! rebuilds slowest.
//!
//! ```sh
//! cargo run --release -p bench --bin recovery_time
//! ```

use bdhtm_core::{EpochConfig, EpochSys, Persister};
use bench::{scale_down_bits, thread_counts, MetricsSink};
use hashtable::BdSpash;
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use skiplist::BdlSkiplist;
use std::sync::Arc;
use std::time::Instant;
use veb::PhtmVeb;

fn main() {
    let records = 1u64 << (23 - scale_down_bits().min(8));
    let par = *thread_counts().last().unwrap_or(&4);
    // --metrics-json captures the last recovered configuration
    // (BD-Spash at the parallel thread count).
    let mut sink = MetricsSink::from_args();
    println!("# Sec 5.2: recovery time with {records} records (scan + rebuild + validate)");
    println!(
        "{:<14} {:>9} {:>12} {:>12} {:>12}",
        "structure", "threads", "scan", "rebuild", "validate"
    );

    for kind in ["PHTM-vEB", "BDL-Skiplist", "BD-Spash"] {
        // Build, fill (pipelined: a persister writes batches back while
        // the fill keeps inserting; flush_all below waits on the durable
        // frontier, not on inline write-backs), persist, crash.
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(1 << 30)));
        let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::default());
        let persister = Persister::spawn(Arc::clone(&esys));
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let ubits = 64 - (records * 2 - 1).leading_zeros();
        match kind {
            "PHTM-vEB" => {
                let t = PhtmVeb::new(ubits, Arc::clone(&esys), Arc::clone(&htm));
                for k in 0..records {
                    t.insert(k * 2, k);
                }
            }
            "BDL-Skiplist" => {
                let t = BdlSkiplist::new(Arc::clone(&esys), Arc::clone(&htm));
                for k in 0..records {
                    t.insert(k * 2 + 1, k);
                }
            }
            _ => {
                let t = BdSpash::new(Arc::clone(&esys), Arc::clone(&htm));
                for k in 0..records {
                    t.insert(k * 2, k);
                }
            }
        }
        esys.flush_all();
        esys.advance();
        persister.stop(); // drains any tail batch before the crash
        let image = heap.crash();

        for threads in [1usize, par] {
            let heap2 = Arc::new(NvmHeap::from_image(image.duplicate()));
            let t0 = Instant::now();
            let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), threads);
            let scan = t0.elapsed();
            let htm2 = Arc::new(Htm::new(HtmConfig::default()));
            sink.attach_htm(&htm2);
            sink.attach_esys(&esys2);
            let t0 = Instant::now();
            let validate: Box<dyn Fn() -> Result<(), String>> = match kind {
                "PHTM-vEB" => {
                    let t = PhtmVeb::recover(ubits, esys2, htm2, &live, threads);
                    assert!(t.contains(0));
                    Box::new(move || t.validate())
                }
                "BDL-Skiplist" => {
                    let t = BdlSkiplist::recover(esys2, htm2, &live, threads);
                    assert!(t.contains(1));
                    Box::new(move || t.validate())
                }
                _ => {
                    let t = BdSpash::recover(esys2, htm2, &live);
                    assert!(t.contains(0));
                    Box::new(move || t.validate())
                }
            };
            let rebuild = t0.elapsed();
            let t0 = Instant::now();
            validate().expect("recovered index fails validate()");
            let checked = t0.elapsed();
            println!("{kind:<14} {threads:>9} {scan:>12.3?} {rebuild:>12.3?} {checked:>12.3?}");
        }
    }
    sink.write();
}
