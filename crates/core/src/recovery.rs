//! Post-crash recovery: the §5.2 procedure.
//!
//! Recovery scans the NVM heap (via the allocator), reads the persisted
//! epoch frontier `R`, and classifies every block. `R` — not any
//! function of the crash-time clock — is the recovery point: with the
//! persist pipeline the clock may run ahead of the last fully persisted
//! batch, so at crash time the frontier can lag the clock by more than
//! the classical 2: by up to `BUF_GENS + 2` = 6 with a live persister,
//! a bound the pipeline explorer checks in every reachable state
//! (`esys::pipeline::explore`, DESIGN.md §3.4.2).
//! Everything below keys off `R` alone, which is published only after a
//! batch's write-backs *and* the frontier record itself are fenced to
//! media, so lag changes nothing here: epochs `> R` are discarded
//! wholesale whether there is one of them or six.
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
use crate::esys::{EpochSys, EPOCH_MAGIC, EPOCH_START, ROOT_FRONTIER, ROOT_MAGIC};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{mark_allocated, BlockState, PAlloc, RecoveredBlock, HDR_WORDS, INVALID_EPOCH};
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

/// What recovery does with one scanned block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Verdict {
    /// Durably allocated: rebuild it.
    Live,
    /// Durably allocated, with a deletion from a discarded epoch: roll
    /// the deletion back and rebuild it.
    Resurrect,
    /// Everything else: back to the allocator.
    Reclaim,
}

/// The §5.2 rule for one block's persisted header against the frontier
/// `r`. A pure function of the header words, so a test can run it on
/// every mix of old and new words a torn write-back can leave.
pub(crate) fn classify(
    state: BlockState,
    epoch: u64,
    del_epoch: u64,
    r: u64,
    eadr: bool,
) -> Verdict {
    // With a persistent cache (eADR) every committed epoch tag survived;
    // otherwise only those at or below the frontier.
    let durable_alloc = epoch != INVALID_EPOCH && (eadr || epoch <= r);
    match state {
        BlockState::Allocated if durable_alloc => Verdict::Live,
        // Deletion belongs to a discarded epoch: resurrect.
        BlockState::Deleted if durable_alloc && !eadr && del_epoch > r => Verdict::Resurrect,
        _ => Verdict::Reclaim,
    }
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
        let sort = |s: &mut Classified, b: RecoveredBlock| {
            let block = LiveBlock {
                addr: b.addr,
                class: b.class,
                epoch: b.epoch,
                tag: b.tag,
            };
            match classify(b.state, b.epoch, b.del_epoch, r, eadr) {
                Verdict::Live => s.live.push(block),
                Verdict::Resurrect => s.resurrect.push(block),
                Verdict::Reclaim => s.free.push(b.addr),
            }
        };
        let new_sink = |blocks| Classified {
            live: Vec::with_capacity(blocks),
            ..Classified::default()
        };
        let (alloc, parts) = PAlloc::recover_with(Arc::clone(&heap), threads, new_sink, sort);
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
        alloc.free_batch(&free);

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
    use persist_alloc::{Header, CLASS_WORDS};
    use std::ops::RangeInclusive;
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
        let es = EpochSys::format(heap, EpochConfig::manual());
        // Pretend a persister exists but never runs: epochs close, the
        // frontier never moves, the clock runs ahead.
        es.attach_persister();

        let (_ea, durable_blk) = publish(&es, 0xD0, 1);
        es.advance();
        es.advance();
        // Drain the hand-driven pipeline once: durable_blk is now on
        // media and the frontier covers its epoch.
        while es.persist_next_batch() {}
        let r = es.persisted_frontier();

        // Three more epochs of publishes, never persisted (three
        // advances stay within the structural bound).
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

    /// Re-allocates a block that a durable deletion reclaimed, with a
    /// torn crash armed at the first persist point after its `p_new`,
    /// and returns what recovery finds live.
    fn torn_reuse(seed: u64) -> Vec<LiveBlock> {
        use nvm_sim::{CrashTriggered, FaultPlan};
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(1 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        let (_e, old) = publish(&es, 5, 1);
        es.advance();
        es.advance();
        let _e2 = es.begin_op();
        es.p_retire(old);
        es.end_op();
        es.advance();
        es.advance(); // deletion durable, block reclaimed

        let plan = Arc::new(FaultPlan::crash_at(0).with_torn_writes(seed));
        es.heap().arm_fault_plan(Arc::clone(&plan));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_eq!(es.p_new(2), old, "the reclaimed block is re-used");
            es.heap().fence();
        }))
        .expect_err("the armed persist point must crash");
        assert!(crashed.downcast_ref::<CrashTriggered>().is_some());
        let img = plan.take_image().expect("image captured at crash");
        EpochSys::recover(Arc::new(NvmHeap::from_image(img)), EpochConfig::manual(), 1).1
    }

    /// The torn re-use hole: a reclaimed block used to keep its old
    /// epoch on media, so a crash during its re-allocation could drain
    /// the new `ALLOCATED` state word without the new epoch word and
    /// bring the freed block back. These torn-write seeds did exactly
    /// that before `free` invalidated the epoch word on media.
    #[test]
    fn torn_reallocation_of_a_reclaimed_block_is_not_live() {
        for seed in [12, 17, 35, 36, 44, 48, 50, 64, 73, 74, 79, 80, 88, 99] {
            let live = torn_reuse(seed);
            assert!(
                live.is_empty(),
                "seed {seed}: freed block resurrected: {live:?}"
            );
        }
    }

    /// One block header: the four words a write-back can tear apart.
    #[derive(Clone, Copy, Debug)]
    struct Hdr {
        state: Option<BlockState>,
        epoch: u64,
        del: u64,
        tag: u64,
    }

    fn hdr(heap: &NvmHeap, blk: NvmAddr) -> Hdr {
        Hdr {
            state: Header::state(heap, blk).map(|(s, _)| s),
            epoch: Header::epoch(heap, blk),
            del: Header::del_epoch(heap, blk),
            tag: Header::tag(heap, blk),
        }
    }

    /// Whether recovery keeps a block with header `h` at frontier `r`
    /// (the allocator's scan frees garbage and `FREE` headers before
    /// classification).
    fn kept(h: Hdr, r: u64) -> bool {
        h.state
            .is_some_and(|s| classify(s, h.epoch, h.del, r, false) != Verdict::Reclaim)
    }

    /// Each of the 2⁴ mixes of `old` and `new` header words may be kept
    /// at a frontier in `rs` only if `old` or `new` alone is.
    fn assert_no_torn_resurrection(step: &str, old: Hdr, new: Hdr, rs: RangeInclusive<u64>) {
        for r in rs {
            for mask in 0..16u32 {
                let pick = |i: u32, o: u64, n: u64| if mask & (1 << i) != 0 { n } else { o };
                let mix = Hdr {
                    state: if mask & 1 != 0 { new.state } else { old.state },
                    epoch: pick(1, old.epoch, new.epoch),
                    del: pick(2, old.del, new.del),
                    tag: pick(3, old.tag, new.tag),
                };
                assert!(
                    !kept(mix, r) || kept(old, r) || kept(new, r),
                    "{step}: torn header {mix:?} is kept at R = {r}, but neither \
                     {old:?} nor {new:?} is"
                );
            }
        }
    }

    /// Every header transition of a block's lifetime, driven through the
    /// real allocator and epoch system, against every torn mix of its
    /// words and every frontier the crash could meet it at. A block the
    /// allocator can hand out still in cache (carved, reclaimed,
    /// re-invalidated) may meet any later frontier.
    #[test]
    fn no_torn_header_is_kept_unless_its_old_or_new_header_is() {
        const LATER: u64 = 6;
        let es = fresh();
        let heap = es.heap();

        let first = es.p_new(2);
        let blk = NvmAddr(first.0 - CLASS_WORDS[0]); // the next block out
        let carved = hdr(heap, blk);
        assert_eq!(es.p_new(2), blk);
        let allocated = hdr(heap, blk);
        let r = es.persisted_frontier();
        assert_no_torn_resurrection("format → alloc", carved, allocated, r..=r + LATER);

        let e = es.begin_op();
        Header::set_epoch(heap, blk, e);
        Header::set_tag(heap, blk, 7);
        es.p_track(blk);
        es.end_op();
        let published = hdr(heap, blk);
        // Until epoch e's write-back is fenced, R < e.
        assert_no_torn_resurrection("alloc → set_epoch", allocated, published, r..=e - 1);

        es.advance();
        es.advance();
        let d = es.begin_op();
        es.p_retire(blk);
        es.end_op();
        let retired = hdr(heap, blk);
        let r = es.persisted_frontier();
        assert!(r >= e);
        assert_no_torn_resurrection("publish → retire", published, retired, r..=d - 1);

        es.advance();
        es.advance();
        assert_eq!(es.stats().snapshot().blocks_reclaimed, 1);
        let reclaimed = hdr(heap, blk);
        let r = es.persisted_frontier();
        assert_no_torn_resurrection("retire → reclaim", retired, reclaimed, r..=r + LATER);

        assert_eq!(es.p_new(2), blk, "the reclaimed block is re-used");
        let reallocated = hdr(heap, blk);
        assert_no_torn_resurrection("reclaim → re-alloc", reclaimed, reallocated, r..=r + LATER);

        // A torn free: the FREE state word reached media, the invalid
        // epoch word did not. Recovery's scan re-invalidates it.
        let es = fresh();
        let (_e, blk) = publish(&es, 1, 7);
        es.advance();
        es.advance();
        Header::set_state(es.heap(), blk, BlockState::Free, 0);
        es.heap().persist_range(blk, HDR_WORDS);
        es.heap().fence();
        let torn_free = hdr(es.heap(), blk);
        let (es2, live) = EpochSys::recover(
            Arc::new(NvmHeap::from_image(es.heap().crash())),
            EpochConfig::manual(),
            1,
        );
        assert!(live.is_empty());
        let reinvalidated = hdr(es2.heap(), blk);
        assert_eq!(reinvalidated.epoch, INVALID_EPOCH);
        let r = es2.persisted_frontier();
        assert_no_torn_resurrection(
            "recovery re-invalidation",
            torn_free,
            reinvalidated,
            r..=r + LATER,
        );
    }
}
