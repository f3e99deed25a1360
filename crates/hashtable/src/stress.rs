//! The BD-Spash shared-bucket churn, shared between the chaos test
//! (`tests/chaos_regressions.rs`) and the CI chaos gate
//! (`bin/bdspash_chaos`).
//!
//! Every thread owns two keys, and all the keys land in one bucket, so a
//! `remove` moves another thread's entry into the hole it leaves (the
//! bucket's occupied slots stay a prefix). Each thread checks all of its
//! keys with `get` after every operation, while an epoch advancer runs
//! beside them; `validate()` and a final per-key check close the run.
//! Determinism under a chaos seed comes from the per-thread xorshift
//! streams and the chaos harness's seeded decisions.

use crate::bdspash::keys_in_one_bucket;
use crate::BdSpash;
use bdhtm_core::{EpochConfig, EpochSys};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;

const KEYS_PER_THREAD: usize = 2;

#[inline]
fn xorshift(rng: &mut u64) -> u64 {
    *rng ^= *rng >> 12;
    *rng ^= *rng << 25;
    *rng ^= *rng >> 27;
    *rng
}

/// Runs `threads` (at most 4, so that all keys fit one bucket) churning
/// insert/remove on their own keys for `ops_per_thread` operations
/// each, with `advances` epoch advances alongside. Panics on any lost,
/// stale or foreign value, and on a failed `validate()`.
pub fn shared_bucket_churn(threads: usize, ops_per_thread: u64, advances: u64) {
    assert!(
        (1..=4).contains(&threads),
        "8 slots hold the keys of at most 4 threads"
    );
    let keys = keys_in_one_bucket(threads * KEYS_PER_THREAD);
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::manual());
    let table = BdSpash::new(esys, Arc::new(Htm::new(HtmConfig::for_tests())));
    let owned: Vec<&[u64]> = keys.chunks(KEYS_PER_THREAD).collect();
    let finals: Vec<[Option<u64>; KEYS_PER_THREAD]> = std::thread::scope(|s| {
        let workers: Vec<_> = owned
            .iter()
            .enumerate()
            .map(|(t, &mine)| {
                let table = &table;
                s.spawn(move || {
                    let mut have = [None; KEYS_PER_THREAD];
                    let mut rng = t as u64 * 131 + 7;
                    for i in 0..ops_per_thread {
                        let r = xorshift(&mut rng);
                        let j = (r >> 8) as usize % KEYS_PER_THREAD;
                        let k = mine[j];
                        if r.is_multiple_of(2) {
                            let v = i << 8 | t as u64;
                            assert_eq!(table.insert(k, v), have[j].is_none(), "insert({k})");
                            have[j] = Some(v);
                        } else {
                            assert_eq!(table.remove(k), have[j].is_some(), "remove({k})");
                            have[j] = None;
                        }
                        for (&k, &want) in mine.iter().zip(&have) {
                            assert_eq!(table.get(k), want, "get({k}) after op {i} of thread {t}");
                        }
                    }
                    have
                })
            })
            .collect();
        for _ in 0..advances {
            table.epoch_sys().advance();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("churn worker panicked"))
            .collect()
    });
    table.validate().expect("shared-bucket invariants");
    for (mine, have) in owned.iter().zip(&finals) {
        for (&k, &want) in mine.iter().zip(have) {
            assert_eq!(table.get(k), want, "final get({k})");
        }
    }
}
