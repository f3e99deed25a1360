//! Unit tests of the seal → persist pipeline: the persist-intake
//! normalization, the flush plan, the depth bound, and the early seal
//! with its release gate.

use super::super::testutil::fresh;
use super::super::{payload, EPOCH_START};
use crate::config::EpochConfig;
use crate::EpochSys;
use nvm_sim::{NvmAddr, NvmConfig, NvmHeap};
use persist_alloc::Header;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One op in the current epoch that allocates, fills and tracks a
/// two-word block; returns the block. `end` leaves the op announced
/// when false.
fn track_one(es: &EpochSys, val: u64, end: bool) -> NvmAddr {
    let e = es.begin_op();
    let blk = es.p_new(2);
    es.payload_word(blk, 0).store(val, Ordering::Release);
    Header::set_epoch(es.heap(), blk, e);
    es.p_track(blk);
    if end {
        es.end_op();
    }
    blk
}

/// The tentpole: the persister seals epoch `EPOCH_START` during the
/// epoch after it and writes it back there, but the frontier waits for
/// the closing advance. That advance only releases the batch, and the
/// publish that follows flushes one line — the frontier record.
#[test]
fn early_sealed_batch_flushes_only_the_frontier_line_on_release() {
    let es = fresh();
    es.attach_persister();
    let blk = track_one(&es, 0xFACE, true);
    es.advance(); // closes EPOCH_START; seals the empty EPOCH_START−1
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), EPOCH_START - 1);

    assert!(
        es.seal_quiescent(),
        "EPOCH_START has ended and is non-empty"
    );
    assert!(!es.seal_quiescent(), "an epoch is sealed once");
    assert!(es.persist_next_batch(), "the early write-back runs");
    assert!(
        !es.persist_next_batch(),
        "a written-back batch waits for its release"
    );
    assert_eq!(es.persisted_frontier(), EPOCH_START - 1, "not released");
    assert_eq!(es.heap().crash().word(payload(blk, 0)), 0xFACE);

    let before = es.heap().stats().snapshot();
    es.advance(); // EPOCH_START+1 → +2: releases EPOCH_START
    assert_eq!(
        es.heap().stats().snapshot().flushes,
        before.flushes,
        "the releasing advance flushes nothing"
    );
    assert!(es.persist_next_batch(), "the release makes it publishable");
    let after = es.heap().stats().snapshot();
    assert_eq!(after.flushes - before.flushes, 1, "the frontier line only");
    assert_eq!(after.lines_written_back - before.lines_written_back, 1);
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    assert_eq!(es.buffered_words(), 0);
    let s = es.stats().snapshot();
    assert_eq!((s.early_seals, s.blocks_persisted), (1, 1));
    es.detach_persister();
}

/// No stall on self: at depth 1 the early-sealed batch fills the
/// pipeline, and the advance that releases it enqueues nothing, so it
/// must not wait on the depth bound — the batch it would wait for
/// cannot publish before that very advance returns.
#[test]
fn depth_one_advances_through_a_pre_sealed_batch() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    let es = EpochSys::format(heap, EpochConfig::manual().with_pipeline_depth(1));
    es.attach_persister();
    track_one(&es, 1, true);
    es.advance();
    while es.persist_next_batch() {}
    assert!(es.seal_quiescent());
    assert_eq!(es.batches_in_flight(), 1, "the depth-1 pipeline is full");

    let (tx, rx) = std::sync::mpsc::channel();
    let es2 = Arc::clone(&es);
    let advancer = std::thread::spawn(move || {
        es2.advance();
        let _ = tx.send(());
    });
    // A channel, not a join: a stalled advance must fail the test, not
    // hang it.
    assert!(
        rx.recv_timeout(Duration::from_secs(5)).is_ok(),
        "the releasing advance stalled on its own batch"
    );
    advancer.join().expect("advance panicked");
    assert_eq!(es.stats().snapshot().pipeline_stalls, 0);
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    es.detach_persister();
}

/// `seal_quiescent` is the non-blocking twin of the advance's straggler
/// wait: while an operation of the closed epoch is still announced it
/// refuses (the arena generation is not stable yet), and once the op
/// ends it seals. Without a persister attached it never seals.
#[test]
fn seal_quiescent_refuses_while_an_op_of_the_epoch_is_announced() {
    let es = fresh();
    track_one(&es, 1, true);
    es.advance();
    assert!(!es.seal_quiescent(), "sync mode: the advance seals");

    es.attach_persister();
    track_one(&es, 2, false); // announced in EPOCH_START+1, not ended
    es.advance(); // waits only for epochs < EPOCH_START+1
    assert!(
        !es.seal_quiescent(),
        "an op of EPOCH_START+1 is still announced"
    );
    assert_eq!(es.stats().snapshot().early_seals, 0);
    es.end_op();
    assert!(es.seal_quiescent());
    assert_eq!(es.stats().snapshot().early_seals, 1);
    es.advance();
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), EPOCH_START + 1);
    assert_eq!(es.buffered_words(), 0);
    es.detach_persister();
}

/// The tentpole acceptance criterion: with a persister attached,
/// `advance` performs no `persist_range` on the calling thread —
/// it seals, enqueues, and bumps the clock; write-back and the
/// frontier publish happen in `persist_next_batch`.
#[test]
fn pipelined_advance_keeps_writeback_off_the_caller() {
    let es = fresh();
    es.attach_persister();
    let e = es.begin_op();
    let blk = es.p_new(2);
    es.payload_word(blk, 0).store(0xBEEF, Ordering::Release);
    Header::set_epoch(es.heap(), blk, e);
    es.p_track(blk);
    es.end_op();

    es.advance(); // seals (empty) epoch EPOCH_START−1
    let flushes_before = es.heap().stats().snapshot().flushes;
    let frontier_before = es.persisted_frontier();
    es.advance(); // seals epoch EPOCH_START — the tracked block
    assert_eq!(
        es.heap().stats().snapshot().flushes,
        flushes_before,
        "advance must not flush on the calling thread"
    );
    assert_eq!(
        es.persisted_frontier(),
        frontier_before,
        "the frontier only moves when a batch actually persists"
    );
    assert_eq!(es.current_epoch(), EPOCH_START + 2);

    // Drain by hand — exactly what the Persister worker does.
    while es.persist_next_batch() {}
    assert!(es.heap().stats().snapshot().flushes > flushes_before);
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    assert_eq!(es.buffered_words(), 0);
    let img = es.heap().crash();
    assert_eq!(img.word(payload(blk, 0)), 0xBEEF);
    es.detach_persister();
}

/// Tracking the same block twice in one epoch used to double-count
/// the buffered-word account and hit media twice. Intake-time
/// normalization (the sort+dedup now runs where the batch is
/// persisted, not where it is sealed) must make the accounting
/// match one write-back.
#[test]
fn intake_dedups_double_tracked_blocks() {
    let es = fresh();
    let e = es.begin_op();
    let blk = es.p_new(2);
    Header::set_epoch(es.heap(), blk, e);
    es.p_track(blk);
    es.p_track(blk); // second track of the same block, same epoch
    es.end_op();
    assert!(es.buffered_words() > 0);
    es.advance();
    es.advance();
    let s = es.stats().snapshot();
    assert_eq!(s.blocks_persisted, 1, "one media write-back after dedup");
    assert_eq!(
        es.buffered_words(),
        0,
        "intake-time refund plus persist-time refund must drain the account exactly"
    );
}

/// The dedup refund also lands when a batch waits in the pipeline:
/// the sealing advance leaves the duplicate words buffered (seal no
/// longer normalizes), and the hand-driven persist refunds both the
/// excess and the batch's own accounting.
#[test]
fn pipelined_intake_refunds_duplicate_accounting() {
    let es = fresh();
    es.attach_persister();
    let e = es.begin_op();
    let blk = es.p_new(2);
    Header::set_epoch(es.heap(), blk, e);
    es.p_track(blk);
    es.p_track(blk);
    es.end_op();
    let buffered = es.buffered_words();
    es.advance();
    es.advance(); // seals the double-tracked epoch; nothing persists yet
    assert_eq!(
        es.buffered_words(),
        buffered,
        "raw seal keeps the duplicate accounting until intake"
    );
    while es.persist_next_batch() {}
    assert_eq!(es.buffered_words(), 0);
    assert_eq!(es.stats().snapshot().blocks_persisted, 1);
    es.detach_persister();
}

/// Contiguous neighbor blocks of one batch collapse into a single
/// ranged flush; the device sees fewer flush calls but the same
/// lines, and obs counts the merges.
#[test]
fn contiguous_blocks_coalesce_into_ranged_flushes() {
    let es = fresh();
    let e = es.begin_op();
    // Same size class, allocated back-to-back from a fresh extent:
    // word-contiguous by construction.
    let a = es.p_new(2);
    let b = es.p_new(2);
    Header::set_epoch(es.heap(), a, e);
    Header::set_epoch(es.heap(), b, e);
    es.p_track(a);
    es.p_track(b);
    es.end_op();
    es.advance();
    es.advance();
    let s = es.stats().snapshot();
    assert_eq!(s.blocks_persisted, 2);
    assert_eq!(
        s.coalesced_flushes, 1,
        "two contiguous blocks merge into one ranged flush"
    );
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    assert_eq!(es.buffered_words(), 0);
}

/// A full pipeline stalls the *clock* (the advancing thread), never
/// the persister; the stall resolves as soon as a batch completes.
#[test]
fn full_pipeline_stalls_clock_until_batch_done() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    let es = EpochSys::format(heap, EpochConfig::manual().with_pipeline_depth(1));
    es.attach_persister();
    es.advance(); // fills the depth-1 pipeline
    std::thread::scope(|s| {
        let es2 = Arc::clone(&es);
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            while es2.persist_next_batch() {}
        });
        es.advance(); // must stall until the drainer frees a slot
    });
    assert!(
        es.stats().snapshot().pipeline_stalls > 0,
        "the second advance must have recorded a stall"
    );
    assert_eq!(es.current_epoch(), EPOCH_START + 2);
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    es.detach_persister();
}

/// Reclamation writes a batch's freed blocks back under one fence. The
/// advance that persists N retires flushes their N deletion records,
/// the frontier line and the N freed headers, and fences three times:
/// write-back, frontier, reclamation.
#[test]
fn reclaiming_a_batch_of_retires_fences_once() {
    const N: u64 = 16;
    let es = fresh();
    let blocks: Vec<NvmAddr> = (0..N).map(|i| track_one(&es, i, true)).collect();
    es.advance();
    es.advance();
    es.begin_op();
    for &blk in &blocks {
        es.p_retire(blk);
    }
    es.end_op();
    es.advance(); // persists the empty epoch before the retires
    let before = es.heap().stats().snapshot();
    es.advance(); // persists the retires and reclaims them
    let d = es.heap().stats().snapshot().since(&before);
    assert_eq!(es.stats().snapshot().blocks_reclaimed, N);
    assert_eq!((d.flushes, d.fences), (2 * N + 1, 3));
}

/// Admission control: a background persister that sealed an epoch early
/// but has not written it back by the release is behind, and a new
/// operation waits until that epoch publishes. A batch the releasing
/// advance sealed itself never holds operations back.
#[test]
fn begin_op_waits_while_the_background_persister_is_behind() {
    let es = fresh();
    es.attach_background_persister();
    track_one(&es, 1, true);
    es.advance(); // seals and releases the empty EPOCH_START−1 itself
    assert!(!es.pipeline.behind.load(Ordering::Acquire));
    while es.persist_next_batch() {}
    assert!(es.seal_quiescent(), "EPOCH_START sealed early");
    es.advance(); // releases EPOCH_START before its write-back
    assert!(es.pipeline.behind.load(Ordering::Acquire));

    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (began_tx, began_rx) = std::sync::mpsc::channel();
    let es2 = Arc::clone(&es);
    let client = std::thread::spawn(move || {
        ready_tx.send(()).expect("main thread listens");
        let e = es2.begin_op();
        es2.end_op();
        began_tx.send(e).expect("main thread listens");
    });
    ready_rx.recv().expect("client starts");
    assert!(
        began_rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "begin_op must wait while the persister is behind"
    );
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    assert_eq!(
        began_rx.recv_timeout(Duration::from_secs(5)),
        Ok(EPOCH_START + 2),
        "the publish admits the operation"
    );
    client.join().expect("client panicked");
    es.detach_persister();
}
