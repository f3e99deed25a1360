//! Seeded chaos regression for the coherent-store and commit paths.
//!
//! A reader transaction, a writer transaction and a recycling per-line
//! pass (`versioned_store_words`, the path `PAlloc::alloc` reinitialises
//! blocks through) contend for one cache line under 200 chaos seeds. The
//! chaos points in `Txn::commit` (write stripes locked, clock not yet
//! bumped) and in the stripe-lock loop (stripe held, version not yet
//! bumped) stretch exactly the windows in which a torn read would slip
//! through.
//!
//! Both writers keep the invariant "all eight words of the line are
//! equal", each side with its own values, so a committed reader that
//! returns unequal words saw both sides of a pass or a commit.

use htm_sim::chaos;
use htm_sim::{versioned_store_words, Htm, HtmConfig};
use std::sync::atomic::{AtomicU64, Ordering};

const SEEDS: u64 = 200;
const ITERS: u64 = 40;

/// One cache line of words.
#[repr(align(64))]
struct Line([AtomicU64; 8]);

#[test]
fn a_reader_never_sees_both_sides_of_a_per_line_pass() {
    let htm = Htm::new(HtmConfig::for_tests());
    let mut aborts = 0;
    for seed in 0..SEEDS {
        let seed = 0x11E5_EED0 + seed;
        let session = chaos::arm(chaos::Config::new(seed));
        let line = Line(std::array::from_fn(|_| AtomicU64::new(0)));
        let attempts = AtomicU64::new(0);
        let before = htm.stats().snapshot();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..ITERS {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    let read = htm.attempt(|t| {
                        let mut words = [0; 8];
                        for (w, cell) in words.iter_mut().zip(&line.0) {
                            *w = t.load(cell)?;
                        }
                        Ok(words)
                    });
                    if let Ok(words) = read {
                        assert!(
                            words.iter().all(|&w| w == words[0]),
                            "seed {seed:#x}: torn read {words:x?}\n{}",
                            session.schedule_tail(32)
                        );
                    }
                }
            });
            s.spawn(|| {
                for _ in 0..ITERS {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    let _ = htm.attempt(|t| {
                        let v = t.load(&line.0[0])?;
                        for cell in &line.0 {
                            t.store(cell, (v & 0xFFFF_FFFF) + 1)?;
                        }
                        Ok(())
                    });
                }
            });
            // The recycling pass: a fresh generation in the high half.
            for gen in 1..=ITERS {
                versioned_store_words(&line.0, |_| Some(gen << 32));
            }
        });
        let d = htm.stats().snapshot().since(&before);
        assert_eq!(
            d.attempts(),
            attempts.load(Ordering::Relaxed),
            "seed {seed:#x}: commits plus aborts must account for every attempt"
        );
        aborts += d.total_aborts();
        drop(session);
    }
    assert!(
        aborts > 0,
        "no attempt ever conflicted: the test lost its teeth"
    );
}
