//! The paper's premise, demonstrated end to end: persist instructions
//! abort hardware transactions, so the naive "just flush inside the
//! transaction" strategy livelocks onto the fallback lock — and the
//! epoch system removes the flushes from the transactional path.

use bd_htm::persist_alloc::PAlloc;
use bd_htm::prelude::*;
use htm_sim::AbortCause;
use std::sync::Arc;

/// A strictly-durable insert attempted *inside* a transaction aborts
/// with PersistInTxn every time, exactly like `clwb` under TSX.
#[test]
fn naive_durable_transactions_always_abort() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    let htm = Htm::new(HtmConfig::default());
    let a = heap.base();
    for _ in 0..32 {
        let r = htm.attempt(|t| {
            t.store(heap.word(a), 42)?;
            heap.clwb(a); // the incompatibility
            Ok(())
        });
        assert_eq!(r.unwrap_err(), AbortCause::PersistInTxn);
    }
    // Nothing ever committed, nothing ever persisted.
    assert_eq!(heap.crash().word(a), 0);
}

/// NVM allocation inside a transaction aborts too when the allocator
/// persists its metadata per call, as Ralloc does (Montage's pNew
/// problem, §3) — which is why Listing 1 preallocates. The strict-DL
/// structures allocate this way.
#[test]
fn allocation_inside_a_transaction_aborts() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    let alloc = PAlloc::new(heap);
    alloc.free(alloc.alloc_persisted(2)); // carve the extent up front
    let htm = Htm::new(HtmConfig::default());
    let r = htm.attempt(|_t| {
        let _blk = alloc.alloc_persisted(2); // the header flush poisons us
        Ok(())
    });
    assert_eq!(r.unwrap_err(), AbortCause::PersistInTxn);
}

/// Buffered durability's `p_new` issues no persist operation: a free
/// block's epoch word is already invalid on media, and the block becomes
/// durable with its epoch's write-back, off the operation path.
#[test]
fn buffered_p_new_issues_no_persist_op() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::default());
    esys.p_new(2); // carve the extent up front
    let before = esys.heap().stats().snapshot();
    esys.begin_op();
    esys.p_new(2);
    esys.end_op();
    let d = esys.heap().stats().snapshot().since(&before);
    assert_eq!((d.flushes, d.fences), (0, 0));
}

/// Under eADR (persistent caches) the incompatibility disappears: the
/// same transactional flush commits fine — the §4.3 premise.
#[test]
fn eadr_dissolves_the_incompatibility() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20).with_eadr(true)));
    let htm = Htm::new(HtmConfig::default());
    let a = heap.base();
    let r = htm.attempt(|t| {
        t.store(heap.word(a), 7)?;
        heap.clwb(a); // a hint, not an abort
        Ok(())
    });
    assert!(r.is_ok());
    assert_eq!(heap.crash().word(a), 7);
}

/// The resolution: the BDL epoch system keeps transactions flush-free
/// (zero PersistInTxn aborts across an entire workload) while still
/// delivering durability two epochs later.
#[test]
fn epoch_system_keeps_transactions_flush_free() {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
    let esys = EpochSys::format(heap, EpochConfig::default());
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let map = BdhtHashMap::new(1 << 8, Arc::clone(&esys), Arc::clone(&htm));
    for k in 0..500u64 {
        map.insert(k, k);
        if k % 100 == 0 {
            esys.advance();
        }
    }
    let s = htm.stats().snapshot();
    assert_eq!(
        s.aborts_of(AbortCause::PersistInTxn),
        0,
        "BDL operations must never flush inside a transaction"
    );
    assert!(s.commits >= 500);

    esys.advance();
    esys.advance();
    let heap2 = Arc::new(NvmHeap::from_image(esys.heap().crash()));
    let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), 1);
    let map2 = BdhtHashMap::recover(
        1 << 8,
        esys2,
        Arc::new(Htm::new(HtmConfig::default())),
        &live,
    );
    for k in 0..500u64 {
        assert_eq!(map2.get(k), Some(k));
    }
}
