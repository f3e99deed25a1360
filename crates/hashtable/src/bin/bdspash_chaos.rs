//! CI chaos gate for BD-Spash's prefix-packed buckets: the shared-bucket
//! churn (`hashtable::stress`), iterated across seeded chaos schedules.
//!
//! Each iteration runs four threads whose keys all share one bucket, so
//! every remove moves another thread's entry, under a distinct chaos
//! seed; `htm_sim::chaos::run_gate` owns the iteration loop, the
//! watchdog, the exit codes and the failure report. Replay a failing
//! seed with `bdspash_chaos --iters 1 --seed-base <seed>`.

const PHASES: &[(&str, fn())] = &[("shared-bucket churn", || {
    hashtable::stress::shared_bucket_churn(4, 1000, 8)
})];

fn main() {
    htm_sim::chaos::run_gate("bdspash_chaos", 0x5A5E_ED00, PHASES);
}
