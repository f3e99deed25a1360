//! Deterministic regression for the torn optimistic read in
//! `OccAbTree::get` (shared by `ElimAbTree`): `apply_remove` fills the
//! hole with the leaf's last pair in two word writes, and an unvalidated
//! reader between them saw the last key paired with the removed key's
//! value — the `left: 202` / `left: 3131` panics of
//! `elim_tree_matches_oracle_under_contention`.
//!
//! The interleaving is pinned with a chaos *gate* (a one-shot breakpoint
//! at a named site, `htm_sim::chaos`), not with seeds, in the style of
//! `mwcas/tests/chaos_regressions.rs`.

use btree::OccAbTree;
use nvm_sim::{NvmConfig, NvmHeap};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn get_never_pairs_a_key_with_a_neighbours_value() {
    let tree = Arc::new(OccAbTree::new(Arc::new(NvmHeap::new(
        NvmConfig::for_tests(8 << 20),
    ))));
    tree.insert(1, 101);
    tree.insert(2, 202); // the leaf's last pair: it will fill key 1's hole

    // Gates only: no probabilistic yields or spins.
    let mut config = htm_sim::chaos::Config::new(0xB7EE);
    config.yield_ppm = 0;
    config.spin_ppm = 0;
    let session = htm_sim::chaos::arm(config);
    session.close_once("btree::remove_move");

    std::thread::scope(|s| {
        let remover = {
            let tree = Arc::clone(&tree);
            s.spawn(move || tree.remove(1))
        };
        // Parked between the two writes: slot 0 holds key 2, value 101.
        session.await_parked("btree::remove_move", 1);

        let (tx, rx) = mpsc::channel();
        {
            let tree = Arc::clone(&tree);
            s.spawn(move || tx.send(tree.get(2)).expect("main is receiving"));
        }
        // The unvalidated read answered `Some(101)` here, at once. The
        // validated one has nothing consistent to return until the
        // remover finishes, so it must still be retrying.
        let early = rx.recv_timeout(Duration::from_millis(200));
        session.open("btree::remove_move"); // before any assert: never strand the remover
        assert_eq!(
            early,
            Err(mpsc::RecvTimeoutError::Timeout),
            "get(2) answered from a half-moved pair"
        );
        assert_eq!(remover.join().expect("remover"), Some(101));
        let got = rx.recv_timeout(Duration::from_secs(60));
        assert_eq!(got, Ok(Some(202)), "key 2 keeps its own value");
    });
    assert_eq!(tree.get(1), None);
}
