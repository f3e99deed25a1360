//! The chaos churn that every [`BdlKv`] structure runs, in the chaos
//! test (`tests/chaos_churn.rs`) and the CI chaos gate (`bin/bdl_chaos`).
//!
//! Each thread owns two keys and churns insert, update and remove on
//! them, and every thread updates one shared key that is never removed.
//! The keys collide in the structure's layout, so the threads write the
//! same words. With an epoch advancer alongside, the three outcomes of
//! Listing 1 lines 20–29 all occur: an update in place, a replacement,
//! and an `OLD_SEE_NEW` restart on the shared key's newer block. Each
//! thread checks its keys and the shared key with `get` after every
//! operation; `validate()` and a final check close the run.

use bdhtm_core::{BdlKv, EpochConfig, EpochSys, KV_UNIVERSE_BITS};
use hashtable::{hash64, keys_in_one_bucket};
use htm_sim::{Htm, HtmConfig, SplitMix64};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;

/// Runs `threads` workers on a fresh `T` for `ops` operations each,
/// with `advances` epoch advances alongside. Thread `t` owns `owned[t]`
/// and `owned[t + threads]`, so adjacent keys belong to different
/// threads, and updates `shared`. Panics on any lost, stale or foreign
/// value, and on a failed `validate()`.
pub fn churn<T: BdlKv>(shared: u64, owned: &[u64], threads: usize, ops: u64, advances: u64) {
    assert!((1..256).contains(&threads) && owned.len() >= 2 * threads);
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(16 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::default());
    let kv = &T::new(esys, Arc::new(Htm::new(HtmConfig::for_tests())));
    let mine = |t: usize| [owned[t], owned[t + threads]];
    let check = move |t: usize, have: [Option<u64>; 2], i: u64| {
        for (k, want) in mine(t).into_iter().zip(have) {
            assert_eq!(kv.get(k), want, "get({k}) after op {i} of thread {t}");
        }
        // Every value written to the shared key names its writer in the
        // low byte.
        let got = kv.get(shared);
        let ok = got.is_some_and(|v| v & 0xff < threads as u64);
        assert!(ok, "shared key holds {got:?} after op {i} of thread {t}");
    };
    let work = move |t: usize| {
        let mut have = [None; 2];
        let mut rng = SplitMix64::new(t as u64 * 131 + 7);
        for i in 0..ops {
            let r = rng.next_u64();
            let (j, v) = ((r >> 8) as usize % 2, i << 8 | t as u64);
            let k = mine(t)[j];
            match r % 4 {
                0 => _ = kv.insert(shared, v),
                1 => assert_eq!(kv.remove(k), have[j].take().is_some(), "remove({k})"),
                _ => assert_eq!(kv.insert(k, v), have[j].replace(v).is_none(), "insert({k})"),
            }
            check(t, have, i);
        }
        have
    };
    kv.insert(shared, 0);
    let finals: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|t| s.spawn(move || work(t))).collect();
        for _ in 0..advances {
            kv.epoch_sys().advance();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let joined = workers.into_iter().map(|w| w.join());
        joined.map(|r| r.expect("churn worker panicked")).collect()
    });
    kv.validate()
        .unwrap_or_else(|e| panic!("{} after the churn: {e}", T::NAME));
    for (t, have) in finals.into_iter().enumerate() {
        check(t, have, ops);
    }
}

/// `(shared, owned)` for PHTM-vEB and BDL-Skiplist: 1 and 2–9, one vEB
/// leaf cluster and neighbouring skiplist towers.
pub fn adjacent_keys() -> (u64, Vec<u64>) {
    (1, (2..=9).collect())
}

/// `(shared, owned)` for BD-Spash: eight keys fill one bucket, so every
/// remove moves another thread's entry into its hole, and the shared key
/// is the first key [`keys_in_one_bucket`] skips, which hashes elsewhere
/// (key 2, in the other depth-1 segment), so the bucket never splits.
pub fn bd_spash_keys() -> (u64, Vec<u64>) {
    let owned = keys_in_one_bucket(8);
    let shared = (1..).find(|k| !owned.contains(k)).expect("a free key");
    (shared, owned)
}

/// `(shared, owned)` for the Listing-1 table: nine keys in one of the
/// `2^KV_UNIVERSE_BITS` buckets of [`BdlKv::new`]'s table (bucket
/// `hash64(key)` modulo that count), so one probes on to the next.
pub fn listing1_keys() -> (u64, Vec<u64>) {
    let bucket = |k: u64| hash64(k) & ((1 << KV_UNIVERSE_BITS) - 1);
    let keys: Vec<u64> = (1..).filter(|&k| bucket(k) == bucket(1)).take(9).collect();
    (keys[0], keys[1..].to_vec())
}
