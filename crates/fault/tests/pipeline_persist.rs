//! Integration tests for the background persist pipeline with a *real*
//! [`Persister`] thread: foreground progress while a batch is being
//! written back, and crash-while-in-flight recovery.

use bdhtm_core::{EpochConfig, EpochSys, Persister, EPOCH_START};
use nvm_sim::{FaultPlan, NvmConfig, NvmHeap};
use persist_alloc::Header;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Publishes one tracked 2-word block in a fresh op; returns its epoch.
fn publish(es: &EpochSys, val: u64) -> u64 {
    let e = es.begin_op();
    let blk = es.p_new(2);
    es.payload_word(blk, 0).store(val, Ordering::Release);
    Header::set_epoch(es.heap(), blk, e);
    es.p_track(blk);
    es.end_op();
    e
}

/// The tentpole's concurrency claim: operations in epoch `e+1` make
/// progress while the epoch `e−1` batch is still persisting. nvm-sim's
/// write-back latency holds the persister mid-batch for tens of
/// milliseconds; the foreground completes a burst of operations in
/// microseconds and observes the frontier still trailing.
#[test]
fn ops_progress_while_batch_persists_in_background() {
    let mut nc = NvmConfig::for_tests(8 << 20);
    nc.writeback_ns = 500_000; // 0.5 ms per line: a 40-block batch ≳ 20 ms
    let heap = Arc::new(NvmHeap::new(nc));
    let es = EpochSys::format(heap, EpochConfig::manual());
    let persister = Persister::spawn(Arc::clone(&es));

    let sealed = EPOCH_START;
    for i in 0..40 {
        assert_eq!(publish(&es, i), sealed);
    }
    es.advance(); // seals (empty) epoch EPOCH_START−1
    let t_advance = Instant::now();
    es.advance(); // seals the 40-block batch — enqueue only
    let advance_took = t_advance.elapsed();
    assert!(
        advance_took < Duration::from_millis(10),
        "sealing advance must not wait for the write-back ({advance_took:?})"
    );

    // Foreground burst in the new epoch, while the batch persists.
    for i in 0..20 {
        let e = es.begin_op();
        assert!(e > sealed, "new ops register past the sealed epoch");
        let blk = es.p_new(1);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();
        let _ = i;
    }
    assert!(
        es.persisted_frontier() < sealed,
        "the burst must finish while the sealed batch is still in flight \
         (frontier {}, sealed {sealed})",
        es.persisted_frontier()
    );

    // Catch up: seal the remaining epochs and wait for the persister.
    let target = es.current_epoch();
    es.advance_until(target);
    persister.stop();
    assert_eq!(es.persisted_frontier(), es.current_epoch() - 2);
    assert_eq!(es.buffered_words(), 0);
}

/// Crash while a batch is in flight on the persister thread. The fault
/// plan fires mid-write-back (simulated machine death: the persister
/// detaches and vanishes), the captured image holds a half-persisted
/// batch, and recovery lands on the last *published* frontier — none of
/// the sealed-but-unfinished epoch survives.
#[test]
fn crash_on_persister_mid_batch_recovers_to_published_frontier() {
    fault::silence_crash_panics();
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    let es = EpochSys::format(Arc::clone(&heap), EpochConfig::manual());

    // Epoch 2: forty tracked blocks. Nothing here touches media — the
    // persist points all belong to the persister thread, so the point
    // numbering below is stable despite the concurrency.
    for i in 0..40 {
        publish(&es, 0xAB00 + i);
    }

    // Point schedule after arming: the empty epoch-1 batch costs a
    // handful of fence/clwb points, then the 40-block batch issues 40+
    // write-backs. Point 15 is safely inside the big batch.
    let plan = Arc::new(FaultPlan::crash_at(15));
    heap.arm_fault_plan(Arc::clone(&plan));
    let persister = Persister::spawn(Arc::clone(&es));
    es.advance(); // seals empty epoch 1
    es.advance(); // seals the 40-block batch

    // Foreground keeps operating while the persister runs into the
    // armed crash point. Poll for the captured image (not `fired()` —
    // the flag is set a beat before the image lands, and we are racing
    // the persister thread here).
    let deadline = Instant::now() + Duration::from_secs(10);
    let img = loop {
        if let Some(img) = plan.take_image() {
            break img;
        }
        assert!(Instant::now() < deadline, "crash point never fired");
        publish(&es, 0xCC);
        std::thread::sleep(Duration::from_millis(1));
    };
    heap.disarm_fault_plan();
    persister.stop(); // the worker already detached; join is immediate

    let heap2 = Arc::new(NvmHeap::from_image(img));
    let (es2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
    assert_eq!(
        es2.persisted_frontier(),
        EPOCH_START - 1,
        "the interrupted batch must not have published its frontier"
    );
    assert!(
        live.is_empty(),
        "no block of the half-persisted epoch may survive, got {}",
        live.len()
    );
    assert_eq!(es2.current_epoch(), EPOCH_START + 2);
}
