//! Unit tests of the seal → persist pipeline: the write-back
//! normalization, the flush plan, the persister's seal with its release
//! gate, and the structural stall.

use super::super::testutil::fresh;
use super::super::{payload, EPOCH_START};
use super::{Driver, BUF_GENS};
use crate::config::EpochConfig;
use crate::error::{HealthState, PersistError};
use crate::obs::lag::LAG_GENS;
use crate::obs::EventKind;
use crate::{EpochSys, Persister};
use nvm_sim::{DeviceError, DeviceOpKind, NvmAddr, NvmConfig, NvmHeap};
use persist_alloc::Header;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
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

/// The `a` arguments of every recorded event of `kind`, oldest first.
fn events(es: &EpochSys, kind: EventKind) -> Vec<u64> {
    let mut evs = es.obs().dump(usize::MAX);
    evs.sort_by_key(|ev| ev.t_ns);
    evs.iter()
        .filter(|ev| ev.kind == kind)
        .map(|ev| ev.a)
        .collect()
}

/// The persister seals epoch `EPOCH_START` during the epoch after it and
/// writes it back there, but the frontier waits for the closing advance.
/// That advance only releases the batch, and the publish that follows
/// flushes one line — the frontier record.
#[test]
fn early_sealed_batch_flushes_only_the_frontier_line_on_release() {
    let es = fresh();
    es.attach_persister();
    let blk = track_one(&es, 0xFACE, true);
    es.advance(); // closes EPOCH_START, releases the empty EPOCH_START−1
    assert!(es.persist_next_batch(), "seals and publishes EPOCH_START−1");
    assert_eq!(es.persisted_frontier(), EPOCH_START - 1);

    assert!(es.seal_quiescent(), "EPOCH_START has ended");
    assert!(!es.seal_quiescent(), "EPOCH_START+1 is still open");
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
    assert_eq!(
        es.batches_in_flight(),
        1,
        "only the unreleased EPOCH_START+1"
    );
    let s = es.stats().snapshot();
    // Early: EPOCH_START, and the empty EPOCH_START+1 sealed by the
    // last persist step before its own release.
    assert_eq!((s.early_seals, s.blocks_persisted), (2, 1));
    es.detach_persister();
}

/// `seal_quiescent` is the non-blocking twin of the advance's straggler
/// wait: while an operation of the oldest closed epoch is still
/// announced it refuses (the arena generation is not stable yet), and
/// once the op ends it seals. It never seals an open epoch.
#[test]
fn seal_quiescent_refuses_while_an_op_of_the_epoch_is_announced() {
    let es = fresh();
    es.attach_persister();
    assert!(es.seal_quiescent(), "EPOCH_START−1 is closed and quiescent");
    track_one(&es, 2, false); // announced in EPOCH_START, not ended
    assert!(!es.seal_quiescent(), "EPOCH_START is still open");
    es.advance(); // waits only for epochs < EPOCH_START
    assert!(
        !es.seal_quiescent(),
        "an op of EPOCH_START is still announced"
    );
    es.end_op();
    assert!(es.seal_quiescent());
    assert_eq!(es.stats().snapshot().early_seals, 2);
    es.advance();
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    assert_eq!(
        es.batches_in_flight(),
        1,
        "only the unreleased EPOCH_START+1"
    );
    es.detach_persister();
}

/// With a persister attached, `advance` performs no `persist_range` on
/// the calling thread and takes no arena generation: it releases and
/// bumps the clock; the seal (every `BatchSealed` event), the
/// write-back and the frontier publish happen in `persist_next_batch`.
#[test]
fn pipelined_advance_keeps_writeback_off_the_caller() {
    let es = fresh();
    es.attach_persister();
    let blk = track_one(&es, 0xBEEF, true);

    es.advance(); // releases the empty EPOCH_START−1
    let flushes_before = es.heap().stats().snapshot().flushes;
    let frontier_before = es.persisted_frontier();
    es.advance(); // releases EPOCH_START — the tracked block
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
    assert_eq!(es.batches_in_flight(), 0, "the advances sealed nothing");
    assert!(events(&es, EventKind::BatchSealed).is_empty());

    // Drain by hand — exactly what the Persister worker does.
    while es.persist_next_batch() {}
    assert_eq!(
        events(&es, EventKind::BatchSealed).len(),
        3,
        "the persist steps sealed every closed epoch"
    );
    assert!(es.heap().stats().snapshot().flushes > flushes_before);
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    assert_eq!(
        es.batches_in_flight(),
        1,
        "only the unreleased EPOCH_START+1"
    );
    let img = es.heap().crash();
    assert_eq!(img.word(payload(blk, 0)), 0xBEEF);
    es.detach_persister();
}

/// Tracks one block `tracks` times in one epoch, releases that epoch
/// and persists it, returning the device counts of the write-back
/// (flushes, lines written back, fences) and the blocks persisted. In
/// `pipelined` mode the pipeline is hand-driven: the releasing advance
/// must leave the batch queued, and the drain persists it.
fn track_and_write_back(pipelined: bool, tracks: usize) -> (u64, u64, u64, u64) {
    let es = fresh();
    if pipelined {
        es.attach_persister();
    }
    let e = es.begin_op();
    let blk = es.p_new(2);
    Header::set_epoch(es.heap(), blk, e);
    for _ in 0..tracks {
        es.p_track(blk);
    }
    es.end_op();
    let before = es.heap().stats().snapshot();
    es.advance();
    es.advance(); // releases the tracking epoch
    if pipelined {
        assert_eq!(
            es.stats().snapshot().blocks_persisted,
            0,
            "the releasing advance persists nothing"
        );
    }
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), e);
    let d = es.heap().stats().snapshot().since(&before);
    let blocks = es.stats().snapshot().blocks_persisted;
    if pipelined {
        es.detach_persister();
    }
    (d.flushes, d.lines_written_back, d.fences, blocks)
}

/// Tracking a block twice in one epoch reaches media exactly as
/// tracking it once does: the seal keeps the duplicate, and the sort +
/// dedup at write-back merges it.
#[test]
fn intake_dedups_double_tracked_blocks() {
    let once = track_and_write_back(false, 1);
    assert_eq!(once.3, 1, "one media write-back");
    assert_eq!(track_and_write_back(false, 2), once);
}

/// The duplicate costs nothing extra when its batch waits in a
/// hand-driven pipeline either: the seal does not dedup, and the
/// write-back of the drained batch matches a single tracking.
#[test]
fn pipelined_intake_refunds_duplicate_accounting() {
    let once = track_and_write_back(true, 1);
    assert_eq!(once.3, 1, "one media write-back");
    assert_eq!(track_and_write_back(true, 2), once);
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
    assert_eq!(es.batches_in_flight(), 0);
}

/// The structural stall: an advance whose next epoch would reuse the
/// arena generation of an unsealed epoch waits — holding no lock the
/// seal takes — and proceeds as soon as the persister seals that epoch.
#[test]
fn advance_stalls_on_an_unsealed_generation_until_it_is_sealed() {
    let es = fresh();
    es.attach(Driver::Thread); // its seals are played by this test
    es.advance();
    es.advance(); // EPOCH_START+2 is open; no epoch is sealed yet
    let (tx, rx) = mpsc::channel();
    let es2 = Arc::clone(&es);
    let advancer = std::thread::spawn(move || {
        // Opening EPOCH_START+3 reuses EPOCH_START−1's generation.
        es2.advance();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "the advance must wait for the seal"
    );
    assert!(es.stats().snapshot().pipeline_stalls > 0);
    assert!(es.seal_quiescent(), "the persister's seal of EPOCH_START−1");
    assert!(
        rx.recv_timeout(Duration::from_secs(5)).is_ok(),
        "the seal must release the advance"
    );
    advancer.join().expect("advance panicked");
    assert_eq!(es.current_epoch(), EPOCH_START + 3);
    es.detach_persister();
}

/// A hand-driven pipeline (`attach_persister()` without a thread) has
/// nobody to wait for: an advance past the structural bound panics
/// with a message instead of hanging, and moves nothing.
#[test]
fn hand_driven_advance_past_the_bound_panics() {
    let es = fresh();
    es.attach_persister();
    es.advance();
    es.advance();
    let (tx, rx) = mpsc::channel();
    let es2 = Arc::clone(&es);
    std::thread::spawn(move || {
        let r = catch_unwind(AssertUnwindSafe(|| es2.advance()));
        let _ = tx.send(r.err().and_then(|p| p.downcast_ref::<String>().cloned()));
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the advance hung")
        .expect("the advance must panic");
    assert!(msg.contains("persist_next_batch"), "{msg}");
    assert_eq!(
        es.current_epoch(),
        EPOCH_START + 2,
        "the clock did not move"
    );
    while es.persist_next_batch() {}
    es.advance(); // drained: within the bound again
    es.detach_persister();
}

/// A `Degraded` flip with two epochs unsealed (as a retiring persister
/// can leave them): the next inline advance seals both, oldest first,
/// and drains them, so every tracked block is on media and the frontier
/// is back at clock − 2.
#[test]
fn degraded_flip_seals_every_unsealed_epoch_in_order() {
    let es = fresh();
    es.attach_persister();
    let mut blocks = vec![track_one(&es, 1, true)];
    es.advance();
    assert!(es.persist_next_batch(), "seals and publishes EPOCH_START−1");
    blocks.push(track_one(&es, 2, true));
    es.advance(); // EPOCH_START and EPOCH_START+1 closed, neither sealed
    let cause = PersistError {
        epoch: EPOCH_START,
        attempts: 1,
        cause: DeviceError {
            op: DeviceOpKind::Writeback,
            seq: 0,
        },
    };
    es.escalate_health(HealthState::Degraded, cause);
    es.advance(); // inline: seals both and drains them
    assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
    assert_eq!(es.batches_in_flight(), 0);
    assert_eq!(
        events(&es, EventKind::BatchPersisted),
        [EPOCH_START - 1, EPOCH_START, EPOCH_START + 1],
        "published in epoch order"
    );
    let img = es.heap().crash();
    for (v, &blk) in (1..).zip(&blocks) {
        assert_eq!(img.word(payload(blk, 0)), v);
    }
    es.detach_persister();
}

/// The worst case the structural bound allows: a live persister stuck
/// in a long write-back lets the clock run at most `BUF_GENS + 2`
/// epochs past the frontier (two sealed batches in flight, then four
/// generations), which the lag tracker's `LAG_GENS` generations cover.
#[test]
fn worst_case_frontier_lag_stays_below_lag_gens() {
    let mut nc = NvmConfig::for_tests(8 << 20);
    nc.writeback_ns = 2_000_000; // 2 ms per line
    let es = EpochSys::format(Arc::new(NvmHeap::new(nc)), EpochConfig::manual());
    let persister = Persister::spawn(Arc::clone(&es));
    for v in 0..8 {
        track_one(&es, v, true);
    }
    let (tx, rx) = mpsc::channel();
    let es2 = Arc::clone(&es);
    std::thread::spawn(move || {
        let mut worst = 0;
        for _ in 0..12 {
            es2.advance();
            worst = worst.max(es2.current_epoch() - es2.persisted_frontier());
        }
        let _ = tx.send(worst);
    });
    let worst = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the advances hung");
    persister.stop();
    assert!(
        es.stats().snapshot().pipeline_stalls > 0,
        "the clock must have outrun the persister"
    );
    assert!(
        worst <= BUF_GENS as u64 + 2,
        "clock − frontier reached {worst}"
    );
    assert!(worst < LAG_GENS as u64);
}

/// `flush_all` on a hand-driven pipeline (`attach_persister()`, no
/// thread) drains inline instead of waiting for a persister that does
/// not exist.
#[test]
fn flush_all_returns_on_a_hand_driven_pipeline() {
    let es = fresh();
    es.attach_persister();
    let blk = track_one(&es, 0xF1, true);
    let (tx, rx) = mpsc::channel();
    let es2 = Arc::clone(&es);
    std::thread::spawn(move || {
        es2.flush_all();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(Duration::from_secs(5)).is_ok(),
        "flush_all hung"
    );
    assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
    assert_eq!(es.heap().crash().word(payload(blk, 0)), 0xF1);
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

/// Admission control: a background persister that sealed an epoch
/// before its release but has not written it back by then is behind,
/// and a new operation waits until that epoch publishes. An epoch
/// released already written back holds no operation back.
#[test]
fn begin_op_waits_while_the_background_persister_is_behind() {
    let es = fresh();
    es.attach(Driver::Thread);
    track_one(&es, 1, true);
    assert!(es.persist_next_batch(), "writes EPOCH_START−1 back early");
    es.advance(); // releases EPOCH_START−1, already written back
    assert!(!es.pipeline.behind.load(Ordering::Acquire));
    assert!(es.persist_next_batch(), "seals EPOCH_START, publishes −1");
    es.advance(); // releases EPOCH_START before its write-back
    assert!(es.pipeline.behind.load(Ordering::Acquire));

    let (ready_tx, ready_rx) = mpsc::channel();
    let (began_tx, began_rx) = mpsc::channel();
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

/// `detach_persister` is idempotent: an unbalanced second detach leaves
/// the system synchronous, so every advance still drains inline and the
/// frontier trails the clock by two.
#[test]
fn unbalanced_detach_leaves_the_system_synchronous() {
    let es = fresh();
    es.attach_persister();
    es.detach_persister();
    es.detach_persister();
    es.advance();
    es.advance();
    assert_eq!(es.persisted_frontier(), EPOCH_START);
}

/// One persister at a time: a second attach panics and leaves the first
/// attachment in place, so the pipeline stays hand-driven.
#[test]
fn second_attach_panics_and_keeps_the_first() {
    let es = fresh();
    es.attach_persister();
    let second = catch_unwind(AssertUnwindSafe(|| es.attach_persister()));
    assert!(second.is_err(), "a second persister must not attach");
    let thread = catch_unwind(AssertUnwindSafe(|| Persister::spawn(Arc::clone(&es))));
    assert!(thread.is_err(), "nor a persister thread");
    track_one(&es, 7, true);
    es.advance();
    es.advance();
    assert_eq!(
        es.persisted_frontier(),
        EPOCH_START - 1,
        "still hand-driven: the advances persisted nothing"
    );
    while es.persist_next_batch() {}
    assert_eq!(es.persisted_frontier(), EPOCH_START);
    es.detach_persister();
    es.attach_persister();
    es.detach_persister();
}
