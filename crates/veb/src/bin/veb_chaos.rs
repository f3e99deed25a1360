//! CI chaos gate for PHTM-vEB: the leaf churn (`veb::stress`), iterated
//! across seeded chaos schedules.
//!
//! Each iteration runs four threads whose keys all share one leaf
//! cluster, updating one shared key besides their own, under a distinct
//! chaos seed; `htm_sim::chaos::run_gate` owns the iteration loop, the
//! watchdog, the exit codes and the failure report. Replay a failing
//! seed with `veb_chaos --iters 1 --seed-base <seed>`.

const PHASES: &[(&str, fn())] = &[("leaf churn", || veb::stress::leaf_churn(4, 1000, 8))];

fn main() {
    htm_sim::chaos::run_gate("veb_chaos", 0x7EB0_5EED, PHASES);
}
