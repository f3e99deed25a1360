//! Fig. 2: HTM commit and abort-cause percentages for HTM-vEB and
//! PHTM-vEB, including the MEMTYPE-anomaly machine and the
//! non-transactional "pre-walk" mitigation (the paper's red bars).
//!
//! ```sh
//! cargo run --release -p bench --bin fig2_abort_rates
//! ```

use bench::*;
use htm_sim::{AbortCause, Htm, HtmConfig, StatsSnapshot};
use nvm_sim::NvmConfig;
use std::sync::Arc;
use veb::{HtmVeb, PhtmVeb};
use ycsb_gen::Mix;

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

fn report(label: &str, s: &StatsSnapshot) {
    let a = s.attempts();
    println!(
        "{label:<34} commit {:>5.1}%  conflict {:>5.1}%  capacity {:>4.1}%  memtype {:>5.1}%  lock {:>4.1}%  fallback-ops {:>6}",
        pct(s.commits, a),
        pct(s.aborts_of(AbortCause::Conflict), a),
        pct(s.aborts_of(AbortCause::Capacity), a),
        pct(s.aborts_of(AbortCause::MemType), a),
        pct(s.aborts_of(AbortCause::FallbackLocked), a),
        s.fallbacks,
    );
}

fn main() {
    let ubits = 26 - scale_down_bits();
    let universe = 1u64 << ubits;
    let threads = thread_counts();
    // --metrics-json captures the last buffered-durable configuration
    // (final thread count, zipfian PHTM-vEB).
    let mut sink = MetricsSink::from_args();
    println!("# Fig 2: HTM commit/abort breakdown, universe 2^{ubits}");

    for (dist_name, zipf) in [("uniform", None), ("zipfian(0.99)", Some(0.99))] {
        let w = workload(universe, zipf, Mix::write_heavy());
        for &t in &threads {
            // Transient tree.
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            let tree = HtmVeb::new(ubits, Arc::clone(&htm));
            Point::plain(tree).htm_window(&htm).run(&w, t);
            report(
                &format!("HTM-vEB  {dist_name} {t}T"),
                &htm.stats().snapshot(),
            );

            // Buffered-durable tree.
            let (esys, htm) = substrate(NvmConfig::optane(HEAP_BYTES), EPOCH_LEN, Some(&mut sink));
            let tree = PhtmVeb::new(ubits, Arc::clone(&esys), Arc::clone(&htm));
            Point::ticked(tree, &esys).htm_window(&htm).run(&w, t);
            report(
                &format!("PHTM-vEB {dist_name} {t}T"),
                &htm.stats().snapshot(),
            );
        }
    }

    // The ABORTED_MEMTYPE anomaly (single-socket machine, low threads):
    // up to half of transactions abort MEMTYPE without mitigation; the
    // pre-walk retry (red bars) suppresses the repeat.
    println!("\n# MEMTYPE anomaly machine (injection p=0.5, 1 thread):");
    let w = workload(universe, None, Mix::write_heavy());
    for prewalk in [false, true] {
        let htm = Arc::new(Htm::new(HtmConfig::default().with_memtype_anomaly(0.5)));
        let mut tree = HtmVeb::new(ubits, Arc::clone(&htm));
        tree.prewalk_on_memtype = prewalk;
        Point::plain(tree).htm_window(&htm).run(&w, 1);
        report(
            &format!("HTM-vEB memtype prewalk={prewalk}"),
            &htm.stats().snapshot(),
        );
    }
    sink.write();
}
