//! Fig. 8: NVM space consumption of PHTM-vEB as a function of epoch
//! length, uniform vs Zipfian, single thread, 50% insert / 50% remove.
//! Also prints the §5.1 buffered-bytes-per-epoch measurement.
//!
//! The paper's trends: uniform workloads consume more space (more
//! out-of-place updates), longer epochs consume more space (stale copies
//! retained longer), and outside the extreme 10 s point the variation is
//! modest.
//!
//! ```sh
//! cargo run --release -p bench --bin fig8_nvm_space
//! ```

use bdhtm_core::EpochTicker;
use bench::*;
use nvm_sim::NvmConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};
use veb::PhtmVeb;
use ycsb_gen::{Mix, OpKind, Rng64};

fn main() {
    let ubits = 24 - scale_down_bits() / 2;
    let universe = 1u64 << ubits;
    let epochs = [
        ("1us", Duration::from_micros(1)),
        ("100us", Duration::from_micros(100)),
        ("10ms", Duration::from_millis(10)),
        ("100ms", Duration::from_millis(100)),
        ("1s", Duration::from_secs(1)),
        ("10s", Duration::from_secs(10)),
    ];
    // --metrics-json captures the §5.1 buffered-bytes run at the end.
    let mut sink = MetricsSink::from_args();
    println!(
        "# Fig 8: PHTM-vEB NVM space vs epoch length, universe 2^{ubits}, 1 thread, 50/50 ins/rem (MiB)"
    );
    print!("{:<16}", "distribution");
    for (name, _) in &epochs {
        print!(" {name:>8}");
    }
    println!();

    for (dist_name, zipf) in [("uniform", None), ("zipfian(0.99)", Some(0.99))] {
        print!("{dist_name:<16}");
        let w = workload(universe, zipf, Mix::reads(0.0));
        for (_, len) in &epochs {
            let (esys, htm) = substrate(NvmConfig::for_tests(HEAP_BYTES), *len, None);
            let tree = PhtmVeb::new(ubits, Arc::clone(&esys), htm);
            for k in w.prefill_keys() {
                tree.insert(k, k);
            }
            let ticker = EpochTicker::spawn(esys);
            // Run the 50/50 write mix and sample the peak footprint.
            let mut rng = Rng64::new(7);
            let t0 = Instant::now();
            let dur = Duration::from_secs_f64(secs_per_point());
            let mut peak = tree.nvm_bytes();
            let mut i = 0u64;
            while t0.elapsed() < dur {
                let op = w.next_op(&mut rng);
                if op.kind == OpKind::Remove {
                    tree.remove(op.key);
                } else {
                    tree.insert(op.key, op.value);
                }
                i += 1;
                if i.is_multiple_of(4096) {
                    peak = peak.max(tree.nvm_bytes());
                }
            }
            ticker.stop();
            print!(
                " {:>8.1}",
                peak.max(tree.nvm_bytes()) as f64 / (1 << 20) as f64
            );
        }
        println!();
    }

    // §5.1: buffered bytes per epoch at 100 ms (compare against cache
    // capacity — the paper measured 43 MiB on 20 threads against 48 MiB
    // of cache).
    println!("\n# Sec 5.1: buffered data per epoch at 100 ms");
    let epoch_len = Duration::from_millis(100);
    let (esys, htm) = substrate(NvmConfig::for_tests(HEAP_BYTES), epoch_len, Some(&mut sink));
    let w = workload(universe, None, Mix::reads(0.0));
    let threads = *thread_counts().last().unwrap_or(&4);
    Point::ticked(PhtmVeb::new(ubits, Arc::clone(&esys), htm), &esys).run(&w, threads);
    esys.flush_all();
    let epoch = esys.stats().snapshot();
    let advances = epoch.advances.max(1);
    let words = epoch.words_persisted;
    println!(
        "{} epochs persisted, {:.2} MiB buffered per epoch on {} threads",
        advances,
        words as f64 * 8.0 / advances as f64 / (1 << 20) as f64,
        threads
    );
    sink.write();
}
