//! Threads come and go, their per-thread slots stay: 3 × 1024
//! short-lived threads, started strictly one after another, each run
//! inserts, updates and removes on one shared PHTM-vEB. Every thread
//! returns its dense id when it exits and the next one takes it over,
//! with the slots behind it (announcement, tracking arena, allocator
//! caches, preallocated block, spare index nodes, counter shards).
//!
//! In its own test binary so that no sibling test takes ids while the
//! high-water mark is measured.

use bd_htm::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn thousands_of_sequential_threads_share_two_ids() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::default());
    let tree = PhtmVeb::new(
        12,
        Arc::clone(&esys),
        Arc::new(Htm::new(HtmConfig::default())),
    );
    let mut oracle = BTreeMap::new();
    // A `PerThread` walks the slots below the id high-water mark.
    let high_water = || htm_sim::PerThread::<()>::default().iter().count();
    let mark = high_water();
    for t in 0..3 * 1024u64 {
        // Thread t inserts key t, updates it, and removes key t - 3.
        let (key, gone) = (t, t.checked_sub(3));
        std::thread::scope(|s| {
            s.spawn(|| {
                tree.insert(key, t);
                assert!(!tree.insert(key, t + 1), "thread {t}: update");
                if let Some(k) = gone {
                    assert!(tree.remove(k), "thread {t}: remove {k}");
                }
            })
            // Joining the handle, unlike the end of the scope, waits out
            // the thread's teardown, where it returns its id.
            .join()
            .unwrap();
        });
        oracle.insert(key, t + 1);
        if let Some(k) = gone {
            oracle.remove(&k);
        }
        esys.advance();
    }
    for k in 0..4096 {
        assert_eq!(tree.get(k), oracle.get(&k).copied(), "key {k}");
    }
    tree.validate().unwrap();
    let grown = high_water() - mark;
    assert!(grown <= 2, "the id high-water mark grew by {grown}");
}
