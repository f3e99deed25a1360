//! Deterministic regressions for the MwCAS helping races root-caused
//! with the `htm_sim::chaos` harness (see DESIGN.md §5.3; the
//! root-cause story is in CHANGES.md, PR 10).
//!
//! Each test drives one exact interleaving with chaos *gates* (one-shot
//! breakpoints at named sites) rather than seeds, so the schedule is
//! pinned regardless of OS scheduling. Against the pre-fix descriptor
//! these interleavings reproduced, deterministically:
//!
//! 1. the leaked-marker livelock (`read` helps a descriptor that no
//!    longer cleans up, forever) — the quarantined tests' hang shape;
//! 2. duplicate application of a decided operation after an ABA on a
//!    target word — the per-key value-corruption shape.
//!
//! The third quarantined shape (a crash in the reclamation path) is
//! seed-pinned at the skiplist level: `skiplist/tests/chaos_regressions`.
//!
//! Every body runs on a watched thread: a regression hangs the *body*
//! (that is the bug), and the watchdog turns that into a bounded failure
//! instead of wedging the suite.

use mwcas::{MwCasPool, MwTarget};
use nvm_sim::{NvmAddr, NvmConfig, NvmHeap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Pure-gate chaos config: no probabilistic yields or spins, so the
/// interleaving is exactly the one the gates dictate.
fn gates_only(seed: u64) -> htm_sim::chaos::Config {
    let mut c = htm_sim::chaos::Config::new(seed);
    c.yield_ppm = 0;
    c.spin_ppm = 0;
    c
}

fn with_watchdog(name: &'static str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            body();
            let _ = tx.send(());
        })
        .expect("spawn watched body");
    if rx.recv_timeout(Duration::from_secs(60)).is_err() {
        panic!("{name}: wedged (> 60s) — the regression is back; worker leaked");
    }
}

fn setup() -> (Arc<NvmHeap>, Arc<MwCasPool>, NvmAddr, NvmAddr) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(1 << 20)));
    let pool = Arc::new(MwCasPool::new(Arc::clone(&heap)));
    let (w0, w1) = (NvmAddr(100_000), NvmAddr(100_001));
    (heap, pool, w0, w1)
}

/// Shape 1 — the hang. A helper observes the marker of a still-pending
/// operation, then stalls. The owner's operation *fails* (a second
/// target mismatches), rolls back, and releases the descriptor. The
/// stale helper then finds the rolled-back word holding the expected old
/// value again.
///
/// Pre-fix the helper re-installed the full marker and bailed on the
/// FREE status without removing it, so every subsequent `read` of the
/// word helped a descriptor that never cleans up: a permanent livelock.
/// Post-fix the install is a conditional placeholder and every bail path
/// sweeps, so the word must come back clean.
#[test]
fn stale_helper_must_not_leak_a_marker_into_a_released_op() {
    with_watchdog("chaos-regression-hang", || {
        let (heap, pool, w0, w1) = setup();
        heap.word(w0).store(5, Ordering::SeqCst);
        heap.word(w1).store(8, Ordering::SeqCst);

        let session = htm_sim::chaos::arm(gates_only(0xBD1));
        session.close_once("mwcas::installed");
        session.close_once("mwcas::help_enter");
        session.close_once("mwcas::release");

        std::thread::scope(|s| {
            // Owner: installs its marker in w0, then fails on w1
            // (8 != 7), rolls w0 back, and releases the descriptor.
            let owner = {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    pool.mwcas(&[
                        MwTarget {
                            addr: w0,
                            old: 5,
                            new: 6,
                        },
                        MwTarget {
                            addr: w1,
                            old: 7,
                            new: 9,
                        },
                    ])
                })
            };
            session.await_parked("mwcas::installed", 1);

            // Helper: sees the marker in w0 and stalls at the very top
            // of the helping path, holding a snapshot of the operation.
            let helper = {
                let pool = Arc::clone(&pool);
                s.spawn(move || pool.read(w0))
            };
            session.await_parked("mwcas::help_enter", 1);

            // Owner runs to the release point: w0 is rolled back to 5,
            // the status is decided-FAILED.
            session.open("mwcas::installed");
            session.await_parked("mwcas::release", 1);

            // Owner transitions the status to FREE and blocks draining
            // the (still counted) helper; give it a moment so the
            // helper wakes to the post-release state.
            session.open("mwcas::release");
            std::thread::sleep(Duration::from_millis(100));

            // Stale helper resumes against the released descriptor.
            session.open("mwcas::help_enter");

            assert_eq!(helper.join().unwrap(), 5, "read must see the rollback");
            assert!(!owner.join().unwrap(), "owner's op must have failed");
        });

        // The words are clean: reads terminate and a fresh operation
        // succeeds (pre-fix this line livelocked on the leaked marker).
        assert_eq!(pool.read(w0), 5);
        assert_eq!(pool.read(w1), 8);
        assert!(pool.mwcas(&[MwTarget {
            addr: w0,
            old: 5,
            new: 7
        }]));
        assert_eq!(pool.read(w0), 7);
        drop(session);
    });
}

/// Shape 2 — the value race. The helper stalls while the operation is
/// pending; the operation commits (w0: 0 -> 5) and, before the
/// descriptor is released, an unrelated committed operation moves the
/// word back to the helper's expected old value (w0: 5 -> 0, an ABA).
///
/// Pre-fix the stale helper re-installed the committed operation's
/// marker into the ABA'd word and then finalized it a second time,
/// silently clobbering the later operation's committed write (w0 became
/// 5 again) — the quarantined tests' per-key invariant violation.
/// Post-fix the status gate refuses the install for a decided operation,
/// so the later write survives.
#[test]
fn stale_helper_must_not_reapply_a_decided_op_after_aba() {
    with_watchdog("chaos-regression-aba", || {
        let (heap, pool, w0, w1) = setup();
        heap.word(w0).store(0, Ordering::SeqCst);
        heap.word(w1).store(7, Ordering::SeqCst);

        let session = htm_sim::chaos::arm(gates_only(0xBD2));
        session.close_once("mwcas::installed");
        session.close_once("mwcas::help_enter");

        std::thread::scope(|s| {
            // Owner: {w0: 0 -> 5, w1: 7 -> 6}, parked mid-install so the
            // helper can observe the marker while the op is pending.
            let owner = {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    pool.mwcas(&[
                        MwTarget {
                            addr: w0,
                            old: 0,
                            new: 5,
                        },
                        MwTarget {
                            addr: w1,
                            old: 7,
                            new: 6,
                        },
                    ])
                })
            };
            session.await_parked("mwcas::installed", 1);

            let helper = {
                let pool = Arc::clone(&pool);
                s.spawn(move || pool.read(w0))
            };
            session.await_parked("mwcas::help_enter", 1);

            // Let the owner commit and park right before it releases the
            // descriptor: status is decided-COMMITTED, w0 == 5, w1 == 6.
            session.close_once("mwcas::release");
            session.open("mwcas::installed");
            session.await_parked("mwcas::release", 1);

            // Unrelated committed op ABAs w0 back to the helper's
            // snapshot value: 5 -> 0.
            assert!(pool.mwcas(&[MwTarget {
                addr: w0,
                old: 5,
                new: 0
            }]));
            assert_eq!(pool.read(w0), 0);

            // Stale helper resumes against the decided-but-unreleased
            // descriptor. Pre-fix it re-installed and re-finalized,
            // turning w0 back into 5.
            session.open("mwcas::help_enter");
            assert_eq!(
                helper.join().unwrap(),
                0,
                "helper's read must not resurrect the decided op's write"
            );

            session.open("mwcas::release");
            assert!(owner.join().unwrap(), "owner's op committed");
        });

        assert_eq!(pool.read(w0), 0, "the ABA write must survive");
        assert_eq!(pool.read(w1), 6, "the committed op's other word stays");
        drop(session);
    });
}
