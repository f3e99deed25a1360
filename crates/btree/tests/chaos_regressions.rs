//! Deterministic regression for a torn optimistic read in the shared
//! leaf's lock-free lookup, which `OccAbTree::get` (and so
//! `ElimAbTree`) and `LbTree::get` both use. A reader that has matched a
//! key loads its value after the slot was freed and refilled with
//! another pair: unvalidated, it returns the key with the new pair's
//! value. The stripe's sequence counter makes it retry instead.
//!
//! The interleaving is pinned with a chaos *gate* (a one-shot breakpoint
//! at a named site, `htm_sim::chaos`), not with seeds, in the style of
//! `mwcas/tests/chaos_regressions.rs`.

use btree::{LbTree, OccAbTree};
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::Arc;

/// A tree under the regression.
trait Tree: Send + Sync + 'static {
    fn insert(&self, key: u64, value: u64) -> Option<u64>;
    fn remove(&self, key: u64) -> Option<u64>;
    fn get(&self, key: u64) -> Option<u64>;
}

macro_rules! tree {
    ($ty:ty) => {
        impl Tree for $ty {
            fn insert(&self, key: u64, value: u64) -> Option<u64> {
                <$ty>::insert(self, key, value)
            }
            fn remove(&self, key: u64) -> Option<u64> {
                <$ty>::remove(self, key)
            }
            fn get(&self, key: u64) -> Option<u64> {
                <$ty>::get(self, key)
            }
        }
    };
}
tree!(LbTree);
tree!(OccAbTree);

/// Parks `get(2)` after it matched key 2's slot, frees that slot and
/// refills it with key 3, and lets the reader load the value.
fn refill_under_a_reader(tree: Arc<impl Tree>) {
    tree.insert(1, 101);
    tree.insert(2, 202); // slot 1: the slot the reader matches

    // Gates only: no probabilistic yields or spins.
    let mut config = htm_sim::chaos::Config::new(0xB7EE);
    config.yield_ppm = 0;
    config.spin_ppm = 0;
    let session = htm_sim::chaos::arm(config);
    session.close_once("btree::leaf_pair");

    std::thread::scope(|s| {
        let reader = {
            let tree = Arc::clone(&tree);
            s.spawn(move || tree.get(2))
        };
        // Parked with key 2 matched and its value not yet loaded.
        session.await_parked("btree::leaf_pair", 1);
        assert_eq!(tree.remove(2), Some(202));
        assert_eq!(tree.insert(3, 303), None); // refills slot 1
        session.open("btree::leaf_pair");
        // The unvalidated read answered `Some(303)`: key 2 with key 3's
        // value. After the remove, key 2 is absent.
        assert_eq!(
            reader.join().expect("reader"),
            None,
            "get(2) read a refilled slot"
        );
    });
    assert_eq!(tree.get(3), Some(303));
    assert_eq!(tree.get(1), Some(101));
}

#[test]
fn get_never_pairs_a_key_with_a_neighbours_value() {
    let heap = || Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    refill_under_a_reader(Arc::new(OccAbTree::new(heap())));
    refill_under_a_reader(Arc::new(LbTree::new(heap())));
}
