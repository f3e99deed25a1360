//! Adversarial cache-replacement testing: BDL correctness must not
//! depend on *which* dirty lines happen to reach media before a crash
//! (§2.3's point-of-visibility vs point-of-persistence discrepancy).
//! These tests hammer random eviction throughout the workload, crash at
//! many points, and verify recovered states are consistent.

use bd_htm::prelude::*;
use std::sync::Arc;

/// Runs a deterministic insert-only workload on a fresh `T` for each
/// seed, with a burst of 16 random cache-line evictions every 7 inserts
/// and an epoch advance every 151, crashes after the last insert, and
/// checks the recovered structure's `validate()` and every key against
/// the exact durable prefix (single-threaded history).
fn eviction_storm<T: BdlKv>() {
    for seed in [1u64, 7, 99, 4242, 12345] {
        // The crash sweeps' 8 MiB: `evict_random_lines` walks the line
        // array until it finds 16 dirty lines, so a larger heap with the
        // same few dirty lines only costs time.
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::default());
        let t = T::new(Arc::clone(&esys), Arc::new(Htm::new(HtmConfig::default())));
        let mut writes: Vec<(u64, u64, u64)> = Vec::new(); // (epoch, key, value)
        let mut rng = seed | 1;
        for i in 0..1100 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = 1 + rng % 128;
            writes.push((esys.current_epoch(), key, rng));
            t.insert(key, rng);
            if i % 7 == 0 {
                esys.heap().evict_random_lines(16, rng);
            }
            if i % 151 == 0 {
                esys.advance();
            }
        }
        let heap2 = Arc::new(NvmHeap::from_image(esys.heap().crash()));
        let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), 1);
        let r = esys2.persisted_frontier();
        let t2 = T::recover(esys2, Arc::new(Htm::new(HtmConfig::default())), &live, 1);
        t2.validate()
            .unwrap_or_else(|e| panic!("{} seed {seed}: validate: {e}", T::NAME));
        let mut expect = std::collections::HashMap::new();
        for &(_, k, v) in writes.iter().take_while(|w| w.0 <= r) {
            expect.insert(k, v);
        }
        for k in 1..=128u64 {
            assert_eq!(
                t2.get(k),
                expect.get(&k).copied(),
                "{} seed {seed}: key {k} diverged (R={r})",
                T::NAME
            );
        }
    }
}

/// The systematic version of the storms, for every structure: the
/// crash-point driver enumerates every persist boundary of an
/// eviction-heavy mixed workload — including the `EvictLine` points
/// inside `evict_random_lines` itself — and crashes at an even stride
/// of them. Each replay must recover to the exact durable prefix and
/// pass the structure's `validate()`.
#[test]
fn eviction_heavy_crash_point_sweep_all_structures() {
    let mut cfg = SweepConfig::quick(0xE71C_7103);
    cfg.ops = 120;
    cfg.advance_every = 16;
    cfg.keys = 64;
    // Much heavier eviction pressure than the quick default: a burst of
    // lines every few operations, so crash points land inside eviction
    // write-backs throughout the run.
    cfg.evict_every = 5;
    cfg.evict_lines = 12;
    for r in fault::sweep_all(&cfg.with_max_replays(30)) {
        assert!(
            r.passed(),
            "{}: {}/{} eviction-storm replays failed; first: {}",
            r.structure,
            r.failures.len(),
            r.replays,
            r.failures[0]
        );
        assert!(r.points >= 100, "{}: only {} points", r.structure, r.points);
    }
}

macro_rules! storm_tests {
    ($(($module:ident, $ty:ty, $keys:path)),* $(,)?) => {$(
        mod $module {
            #[test]
            fn survives_eviction_storms() {
                super::eviction_storm::<$ty>();
            }
        }
    )*};
}
fault::bdl_structures!(storm_tests);

/// Eviction must never *help* either: data evicted to media from a
/// discarded epoch must still be rolled back by recovery (the block's
/// epoch tag exceeds the frontier even though its bytes hit media).
#[test]
fn evicted_but_undurable_epochs_are_still_discarded() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(16 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::default());
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let tree = PhtmVeb::new(10, Arc::clone(&esys), htm);
    tree.insert(1, 100);
    esys.advance();
    esys.advance(); // (1 -> 100) durable
    tree.insert(1, 200); // current epoch
                         // Force EVERYTHING to media, including the new version's block.
    for seed in 0..64 {
        esys.heap().evict_random_lines(256, seed);
    }
    let heap2 = Arc::new(NvmHeap::from_image(esys.heap().crash()));
    let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), 1);
    let tree2 = PhtmVeb::recover(
        10,
        esys2,
        Arc::new(Htm::new(HtmConfig::default())),
        &live,
        1,
    );
    assert_eq!(
        tree2.get(1),
        Some(100),
        "an evicted-but-undurable update leaked into the recovered state"
    );
}
