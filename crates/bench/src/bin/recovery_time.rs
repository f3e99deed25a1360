//! §5.2: recovery time — NVM heap scan, DRAM index rebuild, `validate()`
//! (the three phases the repo benchmark reports) — for the three
//! case-study structures, with 1 and N scanner/rebuild threads, N being
//! the last entry of `BDHTM_THREADS`. No rebuild runs a transaction: the
//! index is private until `recover` returns, so PHTM-vEB and BDL-Skiplist
//! cut their key-sorted records into N runs that workers build side by
//! side with plain stores, and BD-Spash rebuilds on one thread. The heap
//! is sized from the record count.
//!
//! Each structure is loaded twice: with its keys in sequence, which
//! leaves the blocks in key order in the heap, and in a seeded shuffled
//! order, which scatters them — then sorting the recovered keys is real
//! work, and a walk in key order reads the blocks at random addresses.
//!
//! ```sh
//! cargo run --release -p bench --bin recovery_time
//! ```

use bdhtm_core::{EpochConfig, EpochSys, Persister};
use bench::{scale_down_bits, substrate, thread_counts, MetricsSink, EPOCH_LEN};
use hashtable::BdSpash;
use htm_sim::{Htm, HtmConfig, SplitMix64};
use nvm_sim::{NvmConfig, NvmHeap};
use skiplist::BdlSkiplist;
use std::sync::Arc;
use std::time::Instant;
use veb::PhtmVeb;

/// Seeds the shuffled load order.
const SHUFFLE_SEED: u64 = 0x5EC5_2000;

fn main() {
    let records = 1u64 << (23 - scale_down_bits().min(8));
    let par = *thread_counts().last().unwrap_or(&4);
    // --metrics-json captures the last recovered configuration
    // (shuffled BD-Spash at the parallel thread count).
    let mut sink = MetricsSink::from_args();
    println!("# Sec 5.2: recovery time with {records} records (scan + rebuild + validate)");
    println!(
        "{:<14} {:>10} {:>9} {:>12} {:>12} {:>12}",
        "structure", "layout", "threads", "scan", "rebuild", "validate"
    );

    for kind in ["PHTM-vEB", "BDL-Skiplist", "BD-Spash"] {
        for layout in ["sequential", "shuffled"] {
            let mut order: Vec<u64> = (0..records).collect();
            if layout == "shuffled" {
                let mut rng = SplitMix64::new(SHUFFLE_SEED);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
            }
            run(kind, layout, &order, par, &mut sink);
        }
    }
    sink.write();
}

/// Loads `kind` with the keys derived from `order`, in that order,
/// crashes it, and recovers it at one thread and at `par`.
fn run(kind: &str, layout: &str, order: &[u64], par: usize, sink: &mut MetricsSink) {
    let records = order.len() as u64;
    // Build, fill (pipelined: a persister writes batches back while the
    // fill keeps inserting; flush_all below waits on the durable
    // frontier, not on inline write-backs), persist, crash.
    let heap_bytes = ((records as usize) << 8).max(64 << 20);
    let (esys, htm) = substrate(NvmConfig::for_tests(heap_bytes), EPOCH_LEN, None);
    let persister = Persister::spawn(Arc::clone(&esys));
    let ubits = 64 - (records * 2 - 1).leading_zeros();
    match kind {
        "PHTM-vEB" => {
            let t = PhtmVeb::new(ubits, Arc::clone(&esys), Arc::clone(&htm));
            for &k in order {
                t.insert(k * 2, k);
            }
        }
        "BDL-Skiplist" => {
            let t = BdlSkiplist::new(Arc::clone(&esys), Arc::clone(&htm));
            for &k in order {
                t.insert(k * 2 + 1, k);
            }
        }
        _ => {
            let t = BdSpash::new(Arc::clone(&esys), Arc::clone(&htm));
            for &k in order {
                t.insert(k * 2, k);
            }
        }
    }
    esys.flush_all();
    esys.advance();
    persister.stop(); // drains any tail batch before the crash
    let image = esys.heap().crash();

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
        println!(
            "{kind:<14} {layout:>10} {threads:>9} {scan:>12.3?} {rebuild:>12.3?} {checked:>12.3?}"
        );
    }
}
