//! The generic BDL conformance suite: one set of property tests,
//! instantiated for every [`BdlKv`] structure.
//!
//! Each structure module runs the same three checks:
//!
//! * **Oracle conformance** — a seeded mixed workload (inserts, removes,
//!   gets, epoch advances, random cache-line evictions) must agree with
//!   a `std` reference model at every step, and the structure's own
//!   invariants must hold at the end.
//! * **Durable prefix** — the central BDL guarantee (§2.1): crash a
//!   single-threaded logged history at an arbitrary point, recover, and
//!   the recovered state must equal the replay of *exactly* those
//!   operations whose epoch is at or below the persisted frontier `R`.
//! * **Concurrent crash cut** — four writers and an epoch advancer share
//!   the structure; after a crash, every key holds a value it held in a
//!   durable epoch, never one written after the final flush.
//!
//! The structures are the rows of `fault::bdl_structures!`, one test
//! module each.

use bd_htm::prelude::*;
use htm_sim::SplitMix64;
use std::collections::HashMap;
use std::sync::Arc;

fn substrate(bytes: usize) -> (Arc<NvmHeap>, Arc<EpochSys>, Arc<Htm>) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(bytes)));
    let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::default());
    (heap, esys, Arc::new(Htm::new(HtmConfig::default())))
}

/// Seeded mixed workload against a `HashMap` oracle, with epoch
/// advances and adversarial cache-replacement interleaved.
fn oracle_conformance<T: BdlKv>() {
    const CASES: u64 = 8;
    for case in 0..CASES {
        let seed = 0xC0F0_0000 + case;
        let mut rng = SplitMix64::new(seed);
        let (heap, esys, htm) = substrate(32 << 20);
        let t = T::new(Arc::clone(&esys), htm);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for _ in 0..1500 {
            if rng.next_below(97) == 0 {
                esys.advance();
            }
            if rng.next_below(53) == 0 {
                heap.evict_random_lines(4, rng.next_u64());
            }
            let key = 1 + rng.next_below((1 << KV_UNIVERSE_BITS) - 1);
            match rng.next_below(4) {
                0 | 1 => {
                    let v = rng.next_u64();
                    assert_eq!(
                        t.insert(key, v),
                        oracle.insert(key, v).is_none(),
                        "{} seed {seed}: insert({key})",
                        T::NAME
                    );
                }
                2 => assert_eq!(
                    t.remove(key),
                    oracle.remove(&key).is_some(),
                    "{} seed {seed}: remove({key})",
                    T::NAME
                ),
                _ => assert_eq!(
                    t.get(key),
                    oracle.get(&key).copied(),
                    "{} seed {seed}: get({key})",
                    T::NAME
                ),
            }
        }
        t.validate()
            .unwrap_or_else(|e| panic!("{} seed {seed}: validate: {e}", T::NAME));
    }
}

#[derive(Clone, Copy, Debug)]
enum LoggedOp {
    Insert(u64, u64),
    Remove(u64),
}

/// Crash a logged single-threaded history, recover, and check the
/// recovered state is the exact `R`-prefix replay.
fn durable_prefix<T: BdlKv>() {
    const KEYS: u64 = 256;
    for crash_after in [40usize, 333, 900] {
        let (heap, esys, htm) = substrate(32 << 20);
        let t = T::new(Arc::clone(&esys), htm);

        let mut rng = SplitMix64::new(0xD0B0 + crash_after as u64);
        let mut log: Vec<(u64, LoggedOp)> = Vec::new();
        for _ in 0..crash_after {
            if rng.next_below(97) == 0 {
                esys.advance();
            }
            if rng.next_below(53) == 0 {
                heap.evict_random_lines(8, rng.next_u64());
            }
            let e = esys.current_epoch();
            let key = 1 + rng.next_below(KEYS);
            if rng.next_below(3) == 0 {
                t.remove(key);
                log.push((e, LoggedOp::Remove(key)));
            } else {
                let v = rng.next_u64();
                t.insert(key, v);
                log.push((e, LoggedOp::Insert(key, v)));
            }
        }

        // Crash and recover.
        let heap2 = Arc::new(NvmHeap::from_image(heap.crash()));
        let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), 1);
        let r = esys2.persisted_frontier();
        let t2 = T::recover(esys2, Arc::new(Htm::new(HtmConfig::default())), &live, 1);
        t2.validate()
            .unwrap_or_else(|e| panic!("{} crash_after={crash_after}: validate: {e}", T::NAME));

        // Replay exactly the ops with epoch <= R. A single-threaded
        // history's later epochs are a strict suffix, so stop at the
        // first too-new epoch.
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for (e, op) in &log {
            if *e > r {
                break;
            }
            match op {
                LoggedOp::Insert(k, v) => {
                    oracle.insert(*k, *v);
                }
                LoggedOp::Remove(k) => {
                    oracle.remove(k);
                }
            }
        }
        for key in 1..=KEYS {
            assert_eq!(
                t2.get(key),
                oracle.get(&key).copied(),
                "{} crash_after={crash_after}, R={r}: key {key} diverges from the durable prefix",
                T::NAME
            );
        }
    }
}

/// Multi-threaded variant: per-key monotone counters. After a crash,
/// each recovered value must be one the key actually held in a durable
/// epoch, and every key whose final durable write happened at least two
/// epochs before the crash must be present with a durable value.
fn concurrent_consistent_cut<T: BdlKv>() {
    const KEYS: u64 = 64;
    const WRITERS: u64 = 4;
    let (heap, esys, htm) = substrate(64 << 20);
    let t = T::new(Arc::clone(&esys), htm);
    // Each writer owns a disjoint key set and writes increasing values.
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let t = &t;
            s.spawn(move || {
                for v in 1..=400u64 {
                    for key in 1 + w * KEYS / WRITERS..=(w + 1) * KEYS / WRITERS {
                        t.insert(key, v);
                    }
                }
            });
        }
        s.spawn(|| {
            for _ in 0..25 {
                esys.advance();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    });
    // Quiesce: one more full flush, then writes that the crash loses.
    esys.flush_all();
    for key in 1..=KEYS {
        t.insert(key, 10_000);
    }

    let heap2 = Arc::new(NvmHeap::from_image(heap.crash()));
    let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), 2);
    let t2 = T::recover(esys2, Arc::new(Htm::new(HtmConfig::default())), &live, 1);
    t2.validate()
        .unwrap_or_else(|e| panic!("{}: validate: {e}", T::NAME));
    for key in 1..=KEYS {
        let v = t2
            .get(key)
            .unwrap_or_else(|| panic!("{}: durably written key {key} lost", T::NAME));
        assert!(
            (1..=400).contains(&v),
            "{}: key {key} recovered {v}, which was never durable (10_000 was post-flush)",
            T::NAME
        );
    }
}

macro_rules! conformance_suite {
    ($(($module:ident, $ty:ty, $keys:path)),* $(,)?) => {$(
        mod $module {
            use super::*;

            #[test]
            fn matches_oracle_with_epochs_and_evictions() {
                oracle_conformance::<$ty>();
            }

            #[test]
            fn crash_recovers_exactly_the_durable_prefix() {
                durable_prefix::<$ty>();
            }

            #[test]
            fn concurrent_history_recovers_a_consistent_cut() {
                concurrent_consistent_cut::<$ty>();
            }
        }
    )*};
}

fault::bdl_structures!(conformance_suite);
