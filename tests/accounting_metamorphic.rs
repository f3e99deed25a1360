//! Metamorphic check for the sharded buffered-words accounting.
//!
//! PR 7 replaced the epoch system's single global `buffered_words`
//! atomic with per-thread cache-padded "added" stripes plus one global
//! "drained" counter (see `crates/core/src/esys/account.rs`). The
//! documented contract is *exactness on seal*: whenever the system is
//! quiesced at a seal boundary (no op in flight, no batch in flight),
//! the lazy aggregate `Σ added[..] − drained` must equal the value the
//! old global counter would have held — every track/retire added, every
//! abort subtracted, every seal-time dedup excess and every persisted
//! batch refunded.
//!
//! This test drives mixed workloads (tracks, duplicate tracks, retires,
//! aborts; single- and multi-threaded; sync-inline and hand-driven
//! pipelined persistence) while replaying the old global-counter
//! semantics in an oracle, and asserts `EpochSys::buffered_words()`
//! equals the oracle at every quiesced seal boundary.
//!
//! The per-op word costs are *calibrated*, not hardcoded: a
//! single-threaded probe measures the buffered-words delta of one
//! track/one retire (where sharded and global semantics trivially
//! coincide — one writer, one stripe), and the oracle then predicts the
//! multi-threaded / multi-epoch totals from those deltas. A bug that
//! loses stripe updates across threads, double-drains on dedup, or
//! forgets the abort refund breaks the predicted equality.

use bd_htm::prelude::*;
use std::sync::Arc;

fn fresh(cfg: EpochConfig) -> Arc<EpochSys> {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(16 << 20)));
    EpochSys::format(heap, cfg)
}

/// Measure the buffered-words cost of tracking one freshly allocated
/// block with `payload_words` payload, and of one retire, on a scratch
/// system. Single-threaded, so old-global and sharded semantics agree
/// by construction; this anchors the oracle.
fn calibrate(payload_words: u64) -> (u64, u64) {
    let es = fresh(EpochConfig::manual());
    es.begin_op();
    let blk = es.p_new(payload_words);
    let before = es.buffered_words();
    es.p_track(blk);
    let track_cost = es.buffered_words() - before;
    es.end_op();
    // Make the block durable so it is retirable.
    es.advance();
    es.advance();
    es.begin_op();
    let before = es.buffered_words();
    es.p_retire(blk);
    let retire_cost = es.buffered_words() - before;
    es.end_op();
    assert!(track_cost > 0, "tracking must buffer at least the header");
    assert!(retire_cost > 0, "retiring must buffer the tombstone header");
    (track_cost, retire_cost)
}

/// Old-global-counter oracle: the running value the pre-refactor
/// `fetch_add`/`fetch_sub` accounting would hold, replayed from the
/// workload's event stream.
#[derive(Default)]
struct Oracle {
    value: u64,
}

impl Oracle {
    fn track(&mut self, times: u64, cost: u64) {
        // The old counter charged every p_track call, duplicates
        // included; the seal refunds the dedup excess later.
        self.value += times * cost;
    }
    fn retire(&mut self, cost: u64) {
        self.value += cost;
    }
    fn abort(&mut self, words: u64) {
        self.value -= words;
    }
    /// An epoch sealed and fully persisted: each distinct block drains
    /// once at batch completion, each duplicate drains at seal time.
    /// Net effect: everything charged for that epoch is refunded.
    fn epoch_drained(&mut self, charged: u64) {
        self.value -= charged;
    }
}

#[test]
fn single_threaded_seal_boundaries_match_global_oracle() {
    let (track_cost, retire_cost) = calibrate(2);
    let es = fresh(EpochConfig::manual());
    let mut oracle = Oracle::default();

    // Epoch A: 3 distinct blocks, one tracked 3x (duplicates), one
    // retire of a block made durable first.
    es.begin_op();
    let durable = es.p_new(2);
    es.p_track(durable);
    es.end_op();
    oracle.track(1, track_cost);
    es.advance();
    es.advance();
    oracle.epoch_drained(track_cost); // durable's epoch sealed + drained
    assert_eq!(es.buffered_words(), oracle.value, "after warmup drain");

    let mut charged_this_epoch = 0u64;
    es.begin_op();
    for _ in 0..3 {
        let b = es.p_new(2);
        es.p_track(b);
        oracle.track(1, track_cost);
        charged_this_epoch += track_cost;
    }
    let dup = es.p_new(2);
    for _ in 0..3 {
        es.p_track(dup); // same block 3x: old counter charges 3x
        oracle.track(1, track_cost);
        charged_this_epoch += track_cost;
    }
    es.p_retire(durable);
    oracle.retire(retire_cost);
    charged_this_epoch += retire_cost;
    es.end_op();
    assert_eq!(es.buffered_words(), oracle.value, "pre-seal, dupes charged");

    // An aborted op must refund exactly what it added.
    es.begin_op();
    let doomed = es.p_new(2);
    es.p_track(doomed);
    oracle.track(1, track_cost);
    oracle.abort(track_cost);
    es.abort_op();
    assert_eq!(es.buffered_words(), oracle.value, "abort refunded");

    // Seal the charged epoch (advance once: seals the *previous*
    // epoch, which is empty; advance twice: seals + drains ours).
    es.advance();
    assert_eq!(es.buffered_words(), oracle.value, "empty epoch sealed");
    es.advance();
    oracle.epoch_drained(charged_this_epoch);
    assert_eq!(es.buffered_words(), oracle.value, "seal + drain exact");
    assert_eq!(es.buffered_words(), 0, "fully quiesced system is empty");
}

#[test]
fn multi_threaded_stripe_sum_matches_global_oracle_at_seals() {
    let (track_cost, _) = calibrate(2);
    let es = fresh(EpochConfig::manual());
    let mut oracle = Oracle::default();

    const THREADS: usize = 6;
    const OPS: usize = 25;

    // Each thread: OPS ops; every 5th op is aborted after tracking,
    // every 3rd op double-tracks its block. All tracking lands in the
    // current epoch (no advances run concurrently), so after joining,
    // the stripe sum must equal the oracle total exactly.
    let mut charged = 0u64;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let es = Arc::clone(&es);
        handles.push(std::thread::spawn(move || {
            for i in 0..OPS {
                es.begin_op();
                let b = es.p_new(2);
                es.p_track(b);
                if (t + i) % 3 == 0 {
                    es.p_track(b); // duplicate
                }
                if i % 5 == 4 {
                    es.abort_op();
                } else {
                    es.end_op();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Replay the same schedule into the oracle.
    for t in 0..THREADS {
        for i in 0..OPS {
            let mut op_words = track_cost;
            oracle.track(1, track_cost);
            if (t + i) % 3 == 0 {
                oracle.track(1, track_cost);
                op_words += track_cost;
            }
            if i % 5 == 4 {
                oracle.abort(op_words);
            } else {
                charged += op_words;
            }
        }
    }
    assert_eq!(
        es.buffered_words(),
        oracle.value,
        "stripe sum after join equals old global counter"
    );

    es.advance(); // seals the pre-workload epoch (empty)
    assert_eq!(es.buffered_words(), oracle.value, "empty seal is a no-op");
    es.advance(); // seals + drains the workload epoch
    oracle.epoch_drained(charged);
    assert_eq!(es.buffered_words(), oracle.value, "exact at seal boundary");
    assert_eq!(es.buffered_words(), 0);
}

#[test]
fn pipelined_seal_boundaries_match_oracle_until_batch_persists() {
    let (track_cost, _) = calibrate(2);
    // Background persistence with a hand-driven persister: seals and
    // write-backs are decoupled, so the accounting must hold words
    // until the *batch* persists, not just until the seal.
    let es = fresh(EpochConfig::manual().with_pipeline_depth(2));
    let mut oracle = Oracle::default();
    es.attach_persister();

    let mut charged = 0u64;
    es.begin_op();
    for _ in 0..4 {
        let b = es.p_new(2);
        es.p_track(b);
        oracle.track(1, track_cost);
        charged += track_cost;
    }
    es.end_op();

    es.advance(); // empty epoch sealed
    es.advance(); // workload epoch sealed into an in-flight batch
    assert_eq!(
        es.buffered_words(),
        oracle.value,
        "sealed-but-unpersisted batch still counted (no distinct blocks \
         were deduped, so seal alone refunds nothing)"
    );
    assert!(es.batches_in_flight() > 0, "batch must be in flight");

    while es.persist_next_batch() {}
    oracle.epoch_drained(charged);
    assert_eq!(
        es.buffered_words(),
        oracle.value,
        "batch completion drains exactly the sealed epoch's charge"
    );
    assert_eq!(es.buffered_words(), 0);
    es.detach_persister();
}
