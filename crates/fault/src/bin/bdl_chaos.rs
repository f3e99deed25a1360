//! CI chaos gate for every `BdlKv` structure: one [`fault::churn`]
//! phase per row of [`fault::bdl_structures!`] (four threads × 1000
//! ops, 8 advances), iterated across seeded chaos schedules by
//! `htm_sim::chaos::run_gate`. An iteration spawns 17 fresh threads;
//! their ids return to htm-sim's free list when they exit, so one
//! process runs any number of iterations (`ci.sh` runs 200). Replay a
//! failing seed with `bdl_chaos --iters 1 --seed-base <seed>`.

use bdhtm_core::BdlKv;

fn phase<T: BdlKv>(keys: fn() -> (u64, Vec<u64>)) {
    let (shared, owned) = keys();
    fault::churn::<T>(shared, &owned, 4, 1000, 8);
}

macro_rules! phases {
    ($(($module:ident, $ty:ty, $keys:path)),* $(,)?) => {
        const PHASES: &[(&str, fn())] = &[$((<$ty>::NAME, || phase::<$ty>($keys))),*];
    };
}
fault::bdl_structures!(phases);

fn main() {
    htm_sim::chaos::run_gate("bdl_chaos", 0xBD1C_5EED, PHASES);
}
