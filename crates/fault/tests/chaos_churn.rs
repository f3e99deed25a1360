//! Every `BdlKv` structure under the chaos churn ([`fault::churn`]), in
//! a binary of its own: chaos sessions are process-global, so arming one
//! beside other tests would perturb them and let their threads take
//! schedule lanes. One test module per row of `fault::bdl_structures!`.
//!
//! A failing seed can be explored with
//! `bdl_chaos --iters 1 --seed-base <seed>`.

use bdhtm_core::BdlKv;

/// Two to four threads on `keys`, each thread count under its own seed.
fn under_chaos<T: BdlKv>(seed_base: u64, keys: fn() -> (u64, Vec<u64>)) {
    let (shared, owned) = keys();
    for threads in 2..=4 {
        let seed = seed_base + threads as u64;
        let _session = htm_sim::chaos::arm(htm_sim::chaos::Config::new(seed));
        fault::churn::<T>(shared, &owned, threads, 300, 4);
    }
}

macro_rules! churn_tests {
    ($(($module:ident, $ty:ty, $keys:path)),* $(,)?) => {$(
        mod $module {
            #[test]
            fn churns_under_chaos() {
                super::under_chaos::<$ty>(0x7EB_0000, $keys);
            }
        }
    )*};
}
fault::bdl_structures!(churn_tests);
