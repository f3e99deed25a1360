//! CI chaos stress gate: the two formerly-quarantined skiplist
//! workloads, iterated across seeded chaos schedules.
//!
//! Each iteration runs both mixed-op workloads on fresh lists and fresh
//! threads under a distinct chaos seed; `htm_sim::chaos::run_gate` owns
//! the iteration loop, the watchdog, the exit codes and the failure
//! report. Exited threads return their ids, so one process runs any
//! number of iterations (`ci.sh` runs 200). Replay a failing seed with
//! `chaos_stress --iters 1 --seed-base <seed>`.

use skiplist::stress;
use skiplist::PersistMode;

const PHASES: &[(&str, fn())] = &[
    ("dl strict", || {
        stress::dl_mixed_ops(PersistMode::Strict, 4, 400, 128)
    }),
    ("dl htm-mwcas", || {
        stress::dl_mixed_ops(PersistMode::HtmMwcas, 4, 400, 128)
    }),
    ("bdl", || stress::bdl_mixed_ops(4, 600, 256, 8)),
];

fn main() {
    htm_sim::chaos::run_gate("chaos_stress", 0xC4A0_5EED, PHASES);
}
