//! CI chaos gate for every `BdlKv` structure: one [`fault::churn`]
//! phase per structure (four threads × 1000 ops, 8 advances), iterated
//! across seeded chaos schedules by `htm_sim::chaos::run_gate`. An
//! iteration spawns 17 threads, so the default 50 iterations take 850 of
//! htm-sim's 1024 process-lifetime thread ids. Replay a failing seed with
//! `bdl_chaos --iters 1 --seed-base <seed>`.

use bdhtm_core::BdlKv;
use fault::{adjacent_keys, bd_spash_keys, churn, listing1_keys};
use hashtable::{BdSpash, BdhtHashMap};
use skiplist::BdlSkiplist;
use veb::PhtmVeb;

fn phase<T: BdlKv>(keys: fn() -> (u64, Vec<u64>)) {
    let (shared, owned) = keys();
    churn::<T>(shared, &owned, 4, 1000, 8);
}

const PHASES: &[(&str, fn())] = &[
    ("PHTM-vEB", || phase::<PhtmVeb>(adjacent_keys)),
    ("BDL-Skiplist", || phase::<BdlSkiplist>(adjacent_keys)),
    ("BD-Spash", || phase::<BdSpash>(bd_spash_keys)),
    ("Listing-1 table", || phase::<BdhtHashMap>(listing1_keys)),
];

fn main() {
    htm_sim::chaos::run_gate("bdl_chaos", 0xBD1C_5EED, PHASES);
}
