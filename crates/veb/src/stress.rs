//! The PHTM-vEB leaf churn, shared between the chaos test
//! (`tests/chaos_regressions.rs`) and the CI chaos gate
//! (`bin/veb_chaos`).
//!
//! Every key of the run lies in one 64-key leaf cluster, so all threads
//! write the same leaf bitmaps and summaries. Each thread owns two keys
//! and churns insert, update and remove on them, and every thread also
//! updates one shared key. With an epoch advancer running beside them,
//! the three outcomes of Listing 1 lines 20–29 all occur: an update in
//! the block's own epoch is made in place, one in a later epoch
//! replaces the block, and an op that registered before an advance
//! finds the shared key's block from the newer epoch and restarts
//! (`OLD_SEE_NEW`). Each thread checks all of its keys with `get` after
//! every operation; `validate()` and a final per-key check close the
//! run. Determinism under a chaos seed comes from the per-thread
//! random streams and the chaos harness's seeded decisions.

use crate::PhtmVeb;
use bdhtm_core::{EpochConfig, EpochSys};
use htm_sim::{Htm, HtmConfig, SplitMix64};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;

/// The key every thread updates; the owned keys follow it.
const SHARED: u64 = 0;

/// Runs `threads` (1 to 8) churning their own keys and the shared key
/// for `ops_per_thread` operations each, with `advances` epoch advances
/// alongside. Panics on any lost, stale or foreign value, and on a
/// failed `validate()`.
pub fn leaf_churn(threads: usize, ops_per_thread: u64, advances: u64) {
    assert!((1..=8).contains(&threads), "1 to 8 threads");
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(16 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::manual());
    let tree = PhtmVeb::new(12, esys, Arc::new(Htm::new(HtmConfig::for_tests())));
    // Thread `t` owns keys `1 + t` and `1 + t + threads`: interleaved,
    // so neighbouring keys in the leaf word belong to other threads.
    let owned = |t: usize| [1, 1 + threads as u64].map(|k| k + t as u64);
    // The shared key is never removed, and every value written to it
    // names its writer in the low byte.
    let shared_ok = |v: Option<u64>| v.is_some_and(|v| v & 0xff < threads as u64);
    tree.insert(SHARED, 0);
    let finals: Vec<[Option<u64>; 2]> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (tree, mine) = (&tree, owned(t));
                s.spawn(move || {
                    let mut have = [None; 2];
                    let mut rng = SplitMix64::new(t as u64 * 131 + 7);
                    for i in 0..ops_per_thread {
                        let r = rng.next_u64();
                        let v = i << 8 | t as u64;
                        let j = (r >> 8) as usize % 2;
                        let k = mine[j];
                        match r % 4 {
                            0 => {
                                tree.insert(SHARED, v);
                            }
                            1 => {
                                assert_eq!(tree.remove(k), have[j].is_some(), "remove({k})");
                                have[j] = None;
                            }
                            _ => {
                                assert_eq!(tree.insert(k, v), have[j].is_none(), "insert({k})");
                                have[j] = Some(v);
                            }
                        }
                        for (&k, &want) in mine.iter().zip(&have) {
                            assert_eq!(tree.get(k), want, "get({k}) after op {i} of thread {t}");
                        }
                        let got = tree.get(SHARED);
                        assert!(shared_ok(got), "shared key holds {got:?} after op {i}");
                    }
                    have
                })
            })
            .collect();
        for _ in 0..advances {
            tree.epoch_sys().advance();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("churn worker panicked"))
            .collect()
    });
    tree.validate().expect("leaf-churn invariants");
    assert!(shared_ok(tree.get(SHARED)), "final shared value");
    for (t, have) in finals.iter().enumerate() {
        for (&k, &want) in owned(t).iter().zip(have) {
            assert_eq!(tree.get(k), want, "final get({k})");
        }
    }
}
