//! Post-crash recovery: the §5.2 procedure.
//!
//! Recovery scans the NVM heap (via the allocator), reads the persisted
//! epoch frontier `R`, and classifies every block. `R` — not any
//! function of the crash-time clock — is the recovery point: with the
//! persist pipeline the clock may run up to `pipeline_depth` epochs
//! ahead of the last fully persisted batch, so at crash time the
//! frontier can lag the clock by more than the classical 2. Everything
//! below keys off `R` alone, which is published only after a batch's
//! write-backs *and* the frontier record itself are fenced to media, so
//! lag changes nothing here: epochs `> R` are discarded wholesale
//! whether there is one of them or `pipeline_depth + 2`.
//!
//! * `ALLOCATED` with tracking epoch `≤ R` → **live** (its contents were
//!   flushed when its epoch's buffer persisted).
//! * `DELETED` with tracking epoch `≤ R` but delete epoch `> R` →
//!   **resurrected**: the deletion belongs to a discarded epoch.
//! * everything else (epoch `> R`, [`INVALID_EPOCH`] preallocations,
//!   durable deletions) → reclaimed by the allocator.
//!
//! The returned [`LiveBlock`]s — with their user tags — drive the
//! rebuild of DRAM index structures (PHTM-vEB, BDL-Skiplist, BD-Spash).

use crate::config::EpochConfig;
use crate::esys::{payload, EpochSys, EPOCH_MAGIC, EPOCH_START, ROOT_FRONTIER, ROOT_MAGIC};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{mark_allocated, BlockState, PAlloc, RecoveredBlock, HDR_WORDS, INVALID_EPOCH};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A block that survived a crash, for index rebuilding.
#[derive(Clone, Copy, Debug)]
pub struct LiveBlock {
    pub addr: NvmAddr,
    pub class: usize,
    /// Epoch the block was (durably) tracked in.
    pub epoch: u64,
    /// User tag (block type).
    pub tag: u64,
}

/// `(key, block address)` of every live block tagged `tag`, sorted by
/// key — the order an index rebuild wants, for locality and so that
/// rebuild threads can each take a slice of the key range. `key_word` is
/// the payload word holding the key.
pub fn live_keys_sorted(
    heap: &NvmHeap,
    live: &[LiveBlock],
    tag: u64,
    key_word: u64,
) -> Vec<(u64, u64)> {
    let mut keyed: Vec<(u64, u64)> = Vec::with_capacity(live.len());
    keyed.extend(live.iter().filter(|b| b.tag == tag).map(|b| {
        let key = heap.word(payload(b.addr, key_word)).load(Ordering::Acquire);
        (key, b.addr.0)
    }));
    // `live` is in address order and the allocator hands out an extent
    // from the top down, so a sequentially loaded key range arrives as
    // descending runs. Turning each run around first leaves such input
    // already sorted, which the sort detects in one pass (4.4 M records:
    // 35 ms instead of 155); on random keys the runs are two or three
    // long and this costs nothing measurable.
    let mut run = 0;
    while run < keyed.len() {
        let mut end = run + 1;
        while end < keyed.len() && keyed[end].0 < keyed[end - 1].0 {
            end += 1;
        }
        keyed[run..end].reverse();
        run = end;
    }
    keyed.sort_unstable();
    keyed
}

/// One heap scanner's classified blocks, each list in scan order.
#[derive(Default)]
struct Classified {
    live: Vec<LiveBlock>,
    resurrect: Vec<LiveBlock>,
    free: Vec<NvmAddr>,
}

impl EpochSys {
    /// Recovers an epoch system from a reopened heap, returning the system
    /// and every live block. `threads` parallelizes the heap scan (the
    /// paper's 1-vs-20-thread recovery measurements).
    pub fn recover(
        heap: Arc<NvmHeap>,
        config: EpochConfig,
        threads: usize,
    ) -> (Arc<EpochSys>, Vec<LiveBlock>) {
        let magic = heap.read(heap.root(ROOT_MAGIC));
        assert_eq!(magic, EPOCH_MAGIC, "heap was never formatted by EpochSys");
        let eadr = heap.config().eadr;
        let r = heap.read(heap.root(ROOT_FRONTIER));
        assert!(r >= EPOCH_START - 1, "corrupt frontier record");

        // Classification rides inside the allocator's extent loop: each
        // non-free block is read once and lands in exactly one list.
        // `live` is sized for the scanner's whole share up front (an
        // upper bound; untouched capacity is never paged in).
        let classify = |s: &mut Classified, b: RecoveredBlock| {
            // With a persistent cache (eADR) every committed epoch tag
            // survived; otherwise only those at or below the frontier.
            let durable_alloc = b.epoch != INVALID_EPOCH && (eadr || b.epoch <= r);
            let block = LiveBlock {
                addr: b.addr,
                class: b.class,
                epoch: b.epoch,
                tag: b.tag,
            };
            match b.state {
                BlockState::Allocated if durable_alloc => s.live.push(block),
                // Deletion belongs to a discarded epoch: resurrect.
                BlockState::Deleted if durable_alloc && !eadr && b.del_epoch > r => {
                    s.resurrect.push(block)
                }
                _ => s.free.push(b.addr),
            }
        };
        let new_sink = |blocks| Classified {
            live: Vec::with_capacity(blocks),
            ..Classified::default()
        };
        let (alloc, parts) = PAlloc::recover_with(Arc::clone(&heap), threads, new_sink, classify);
        // Scanners report in extent order, so appending their lists
        // reproduces the sequential scan's order (and with it the order
        // of the persist operations below).
        let mut parts = parts.into_iter();
        let Classified {
            mut live,
            mut resurrect,
            mut free,
        } = parts.next().expect("the scan yields at least one sink");
        for p in parts {
            live.extend(p.live);
            resurrect.extend(p.resurrect);
            free.extend(p.free);
        }

        for b in &resurrect {
            mark_allocated(&heap, b.addr, b.class);
            heap.persist_range(b.addr, HDR_WORDS);
        }
        live.append(&mut resurrect);
        heap.fence();
        for addr in free {
            alloc.free(addr);
        }

        // Resume with a safely newer clock; frontier unchanged. Even if
        // the pre-crash clock had run several epochs past R (pipelined
        // persists in flight), every block from those epochs was just
        // reclaimed above, so r + 3 can never collide with surviving
        // state.
        let clock = r + 3;
        let es = Arc::new(EpochSys::build(heap, alloc, config, clock, r, eadr));
        (es, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;
    use persist_alloc::Header;
    use std::sync::atomic::Ordering;

    fn fresh() -> Arc<EpochSys> {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        EpochSys::format(heap, EpochConfig::manual())
    }

    /// Inserts one tracked block with the given payload in a fresh op.
    fn publish(es: &EpochSys, val: u64, tag: u64) -> (u64, NvmAddr) {
        let e = es.begin_op();
        let blk = es.p_new(2);
        es.payload_word(blk, 0).store(val, Ordering::Release);
        Header::set_epoch(es.heap(), blk, e);
        Header::set_tag(es.heap(), blk, tag);
        es.p_track(blk);
        es.end_op();
        (e, blk)
    }

    #[test]
    fn durable_ops_survive_lost_ops_do_not() {
        let es = fresh();
        let (_e1, b1) = publish(&es, 111, 7);
        es.advance();
        es.advance(); // b1 durable
        let (_e2, _b2) = publish(&es, 222, 7); // never persisted

        let img = es.heap().crash();
        let heap2 = Arc::new(NvmHeap::from_image(img));
        let (es2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);

        assert_eq!(live.len(), 1);
        assert_eq!(live[0].addr, b1);
        assert_eq!(live[0].tag, 7);
        assert_eq!(es2.payload_word(b1, 0).load(Ordering::Relaxed), 111);
        // Clock resumed past everything that ever existed.
        assert!(es2.current_epoch() > es2.persisted_frontier() + 2);
    }

    #[test]
    fn undurable_deletion_is_resurrected() {
        let es = fresh();
        let (_e, blk) = publish(&es, 5, 1);
        es.advance();
        es.advance(); // blk durable

        // Retire it, but crash before the retiring epoch persists.
        let _e2 = es.begin_op();
        es.p_retire(blk);
        es.end_op();

        let heap2 = Arc::new(NvmHeap::from_image(es.heap().crash()));
        let (_es2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
        assert_eq!(live.len(), 1, "unconfirmed deletion must be rolled back");
        assert_eq!(live[0].addr, blk);
    }

    #[test]
    fn durable_deletion_stays_deleted() {
        let es = fresh();
        let (_e, blk) = publish(&es, 5, 1);
        es.advance();
        es.advance();
        let _e2 = es.begin_op();
        es.p_retire(blk);
        es.end_op();
        es.advance();
        es.advance(); // deletion durable + block reclaimed

        let heap2 = Arc::new(NvmHeap::from_image(es.heap().crash()));
        let (_es2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
        assert!(live.is_empty());
    }

    #[test]
    fn preallocated_blocks_are_reclaimed() {
        let es = fresh();
        let _e = es.begin_op();
        let blk = es.p_new(2); // allocated, INVALID_EPOCH, never claimed
        es.end_op();
        es.advance();
        es.advance();
        assert_eq!(Header::epoch(es.heap(), blk), INVALID_EPOCH);

        let heap2 = Arc::new(NvmHeap::from_image(es.heap().crash()));
        let (es2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
        assert!(live.is_empty());
        // Space was reclaimed.
        assert_eq!(es2.alloc_stats().bytes_in_use(), 0);
    }

    #[test]
    fn replacement_with_crash_keeps_the_old_value() {
        let es = fresh();
        // v=1 durable in epoch 2.
        let (_e, old) = publish(&es, 1, 9);
        es.advance();
        es.advance();
        // Replace with v=2 in the current epoch; crash before durability.
        let e2 = es.begin_op();
        let newb = es.p_new(2);
        es.payload_word(newb, 0).store(2, Ordering::Release);
        Header::set_epoch(es.heap(), newb, e2);
        Header::set_tag(es.heap(), newb, 9);
        es.p_track(newb);
        es.p_retire(old);
        es.end_op();

        let heap2 = Arc::new(NvmHeap::from_image(es.heap().crash()));
        let (es2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
        assert_eq!(live.len(), 1, "exactly the old version must survive");
        assert_eq!(live[0].addr, old);
        assert_eq!(es2.payload_word(old, 0).load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recovery_is_idempotent_under_crashes_during_recovery() {
        use nvm_sim::{CrashTriggered, FaultPlan};

        // A heap with every recovery-relevant block kind: two durable
        // publishes, an undurable deletion (must be resurrected), and an
        // undurable publish (must be reclaimed).
        let es = fresh();
        let (_e1, _b1) = publish(&es, 10, 1);
        let (_e2, b2) = publish(&es, 20, 2);
        es.advance();
        es.advance();
        let _e = es.begin_op();
        es.p_retire(b2);
        es.end_op();
        let (_e3, _b3) = publish(&es, 30, 3);

        let key = |live: &[LiveBlock]| {
            let mut v: Vec<_> = live.iter().map(|b| (b.addr, b.epoch, b.tag)).collect();
            v.sort();
            v
        };
        let recover_plain = |img| {
            let (_es, live) =
                EpochSys::recover(Arc::new(NvmHeap::from_image(img)), EpochConfig::manual(), 1);
            key(&live)
        };
        // Runs recovery with `plan` armed; Ok(live-set) if it completes,
        // Err(image) if the plan crashed it.
        let recover_faulted = |img, plan: &Arc<FaultPlan>| {
            let h = Arc::new(NvmHeap::from_image(img));
            h.arm_fault_plan(Arc::clone(plan));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (_es, live) = EpochSys::recover(Arc::clone(&h), EpochConfig::manual(), 1);
                key(&live)
            }));
            match r {
                Ok(k) => Ok(k),
                Err(p) => {
                    assert!(p.downcast_ref::<CrashTriggered>().is_some());
                    Err(plan.take_image().expect("image captured at crash"))
                }
            }
        };

        let want = recover_plain(es.heap().crash());
        assert_eq!(want.len(), 2, "b1 plus resurrected b2");

        // Enumerate recovery's own crash points (resurrection persists,
        // reclamation flushes), then crash it at each and re-recover.
        let counter = Arc::new(FaultPlan::count());
        assert!(
            recover_faulted(es.heap().crash(), &counter).is_ok(),
            "count mode must not crash"
        );
        let n = counter.points();
        assert!(n > 0, "recovery must cross persist boundaries");

        for i in 0..n {
            let plan = Arc::new(FaultPlan::crash_at(i));
            let Err(img) = recover_faulted(es.heap().crash(), &plan) else {
                panic!("recovery point {i} must crash");
            };
            assert_eq!(
                recover_plain(img),
                want,
                "re-recovery after a crash at recovery point {i} diverged"
            );

            // Double crash: interrupt the *second* recovery too.
            let plan1 = Arc::new(FaultPlan::crash_at(i));
            let plan2 = Arc::new(FaultPlan::crash_at(i / 2));
            let Err(img1) = recover_faulted(es.heap().crash(), &plan1) else {
                panic!("recovery point {i} must crash on replay")
            };
            match recover_faulted(img1, &plan2) {
                Ok(k) => assert_eq!(k, want),
                Err(img2) => assert_eq!(
                    recover_plain(img2),
                    want,
                    "third recovery after a double crash (points {i}, {}) diverged",
                    i / 2
                ),
            }
        }
    }

    /// With the persist pipeline, a crash can find the clock more than
    /// two epochs past the durable frontier (sealed batches still in
    /// flight). Recovery must key off the frontier alone: everything in
    /// the unpersisted epochs vanishes, everything at or below R lives.
    #[test]
    fn crash_with_frontier_lag_beyond_two_recovers_to_frontier() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual().with_pipeline_depth(4));
        // Pretend a persister exists but never runs: batches seal and
        // queue, the frontier never moves, the clock runs ahead.
        es.attach_persister();

        let (_ea, durable_blk) = publish(&es, 0xD0, 1);
        es.advance();
        es.advance();
        // Persist exactly the two sealed batches: durable_blk is now on
        // media and the frontier covers its epoch.
        while es.persist_next_batch() {}
        let r = es.persisted_frontier();

        // Three more epochs of publishes, sealed but never persisted.
        let mut lost = Vec::new();
        for i in 0..3u64 {
            let (_, b) = publish(&es, 0x1000 + i, 2);
            lost.push(b);
            es.advance();
        }
        assert!(
            es.current_epoch() - es.persisted_frontier() > 2,
            "the pipeline must have let the clock run ahead"
        );
        assert_eq!(es.persisted_frontier(), r, "no batch persisted since");

        let heap2 = Arc::new(NvmHeap::from_image(es.heap().crash()));
        let (es2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
        assert_eq!(live.len(), 1, "only the pre-lag publish survives");
        assert_eq!(live[0].addr, durable_blk);
        assert_eq!(es2.persisted_frontier(), r);
        assert_eq!(es2.current_epoch(), r + 3);
        // The lost blocks' space was reclaimed, not leaked.
        let bytes_one_block = es2.alloc_stats().bytes_in_use();
        assert!(bytes_one_block > 0);
        es.detach_persister();
    }

    #[test]
    fn parallel_recovery_matches_sequential() {
        let es = fresh();
        let mut expect = Vec::new();
        for i in 0..200 {
            let (_, b) = publish(&es, i, i);
            expect.push(b);
        }
        es.advance();
        es.advance();
        let img1 = es.heap().crash();

        let (_s, mut live1) = EpochSys::recover(
            Arc::new(NvmHeap::from_image(img1)),
            EpochConfig::manual(),
            1,
        );
        let (_p, mut live4) = EpochSys::recover(
            Arc::new(NvmHeap::from_image(es.heap().crash())),
            EpochConfig::manual(),
            4,
        );
        live1.sort_by_key(|b| b.addr);
        live4.sort_by_key(|b| b.addr);
        assert_eq!(live1.len(), 200);
        assert_eq!(live1.len(), live4.len());
        for (a, b) in live1.iter().zip(&live4) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.tag, b.tag);
        }
    }
}
