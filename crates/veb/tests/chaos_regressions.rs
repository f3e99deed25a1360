//! PHTM-vEB under seeded chaos schedules, in a binary of its own: chaos
//! sessions are process-global, so arming one beside the library's unit
//! tests would perturb them and let their threads take schedule lanes.
//!
//! A failing seed can be explored with
//! `veb_chaos --iters 1 --seed-base <seed>`.

#[test]
fn leaf_churn_under_chaos() {
    // Two to four threads whose keys share one leaf cluster, each thread
    // count under its own seed.
    for threads in 2..=4 {
        let seed = 0x7EB_0000 + threads as u64;
        let _session = htm_sim::chaos::arm(htm_sim::chaos::Config::new(seed));
        veb::stress::leaf_churn(threads, 300, 4);
    }
}
