//! Metamorphic check of the persister pool (DESIGN.md §3.4.4): the
//! durable heap image a crash exposes must be *bit-identical* whatever
//! the pool width or pipeline depth, because chunking only re-orders
//! write-backs **within** one epoch batch — the fence, the frontier
//! publish and reclamation still happen once per batch, in epoch
//! order. Any divergence (a lost range, a mis-partitioned chunk, a
//! publish that jumped a batch) shows up as a digest mismatch.
//!
//! Two variants:
//!
//! * **deferred drain** — a retire-heavy workload runs with an attached
//!   (but inert) persister, so every batch queues up untouched and the
//!   allocation sequence is identical across runs; then a real
//!   [`Persister`] pool of each width drains the backlog.
//! * **live pool** — insert-only workloads (no reclamation, so
//!   allocation stays deterministic under concurrent write-back) run
//!   against live pools of every width × pipeline depth, compared
//!   against the fully synchronous inline-persist baseline.

use bd_htm::bdhtm_core::Persister;
use bd_htm::prelude::*;
use std::sync::Arc;

/// FNV-1a over the full crash image.
fn image_digest(img: &nvm_sim::CrashImage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..img.len_words() {
        let w = img.word(nvm_sim::NvmAddr(i as u64));
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn stack(ec: EpochConfig) -> (Arc<NvmHeap>, Arc<EpochSys>, BdhtHashMap) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(16 << 20)));
    let esys = EpochSys::format(Arc::clone(&heap), ec);
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let map = BdhtHashMap::new(1 << 9, Arc::clone(&esys), htm);
    (heap, esys, map)
}

/// Deferred-drain variant: insert/remove churn (retires included) is
/// sealed into a backlog of untouched batches, then a pool of the given
/// width drains it. Returns the post-crash image digest.
fn deferred_drain_digest(workers: usize) -> u64 {
    let (heap, esys, map) = stack(
        EpochConfig::manual()
            .with_persist_workers(workers)
            // Deep enough that sealing the whole backlog never stalls
            // the clock while nothing is draining.
            .with_pipeline_depth(64),
    );
    // Inert hand-driven registration: advances seal and enqueue, and
    // nothing reclaims mid-workload, so every run allocates the same
    // block sequence regardless of width.
    esys.attach_persister();
    for k in 0..240u64 {
        assert!(map.insert(k, k * 3 + 1));
        if k % 3 == 0 {
            map.remove(k / 2);
        }
        if k % 24 == 23 {
            esys.advance();
        }
    }
    esys.advance();
    esys.detach_persister();

    // A real pool (coordinator + workers−1 chunk threads) drains the
    // backlog; flush_all waits until the frontier covers it all.
    let persister = Persister::spawn(Arc::clone(&esys));
    esys.flush_all();
    persister.stop();
    assert_eq!(esys.buffered_words(), 0);
    assert_eq!(esys.persisted_frontier(), esys.current_epoch() - 2);
    image_digest(&heap.crash())
}

/// Live-pool variant: insert-only workload against a running pool of
/// the given width and pipeline depth (`None` = synchronous inline
/// persistence). Returns the post-crash image digest.
fn live_pool_digest(pool: Option<(usize, usize)>) -> u64 {
    let ec = match pool {
        Some((workers, depth)) => EpochConfig::manual()
            .with_persist_workers(workers)
            .with_pipeline_depth(depth),
        None => EpochConfig::manual(),
    };
    let (heap, esys, map) = stack(ec);
    let persister = pool.map(|_| Persister::spawn(Arc::clone(&esys)));
    for k in 0..300u64 {
        assert!(map.insert(k, k + 7));
        if k % 25 == 24 {
            esys.advance();
        }
    }
    esys.flush_all();
    if let Some(p) = persister {
        p.stop();
    }
    assert_eq!(esys.buffered_words(), 0);
    assert_eq!(esys.persisted_frontier(), esys.current_epoch() - 2);
    image_digest(&heap.crash())
}

/// Pool widths 1 (the serial persister), 2 and 8 (the cap) must drain
/// an identical batch backlog — retires and all — to bit-identical
/// durable images.
#[test]
fn deferred_drain_image_is_width_invariant() {
    let serial = deferred_drain_digest(1);
    for workers in [2, 8] {
        assert_eq!(
            deferred_drain_digest(workers),
            serial,
            "pool width {workers} diverged from the serial persister"
        );
    }
}

/// Every live pool shape (width × pipeline depth) must produce the
/// same durable image as fully synchronous inline persistence.
#[test]
fn live_pool_image_matches_synchronous_baseline() {
    let baseline = live_pool_digest(None);
    for depth in 1..=3usize {
        for workers in [1, 2, 8] {
            assert_eq!(
                live_pool_digest(Some((workers, depth))),
                baseline,
                "pool width {workers} depth {depth} diverged from sync baseline"
            );
        }
    }
}
