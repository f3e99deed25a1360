//! Every `BdlKv` structure under the chaos churn ([`fault::churn`]), in
//! a binary of its own: chaos sessions are process-global, so arming one
//! beside other tests would perturb them and let their threads take
//! schedule lanes.
//!
//! A failing seed can be explored with
//! `bdl_chaos --iters 1 --seed-base <seed>`.

use bdhtm_core::BdlKv;
use fault::{adjacent_keys, bd_spash_keys, churn, listing1_keys};
use hashtable::{BdSpash, BdhtHashMap};
use skiplist::BdlSkiplist;
use veb::PhtmVeb;

/// Two to four threads on `keys`, each thread count under its own seed.
fn under_chaos<T: BdlKv>(seed_base: u64, keys: fn() -> (u64, Vec<u64>)) {
    let (shared, owned) = keys();
    for threads in 2..=4 {
        let seed = seed_base + threads as u64;
        let _session = htm_sim::chaos::arm(htm_sim::chaos::Config::new(seed));
        churn::<T>(shared, &owned, threads, 300, 4);
    }
}

#[test]
fn phtm_veb_churns_under_chaos() {
    under_chaos::<PhtmVeb>(0x7EB_0000, adjacent_keys);
}

#[test]
fn bdl_skiplist_churns_under_chaos() {
    under_chaos::<BdlSkiplist>(0x5C1_0000, adjacent_keys);
}

#[test]
fn bd_spash_churns_under_chaos() {
    under_chaos::<BdSpash>(0xB5_0000, bd_spash_keys);
}

#[test]
fn listing1_table_churns_under_chaos() {
    under_chaos::<BdhtHashMap>(0x11_0000, listing1_keys);
}
