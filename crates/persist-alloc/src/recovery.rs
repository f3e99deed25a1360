//! Post-crash heap scan (§5.2 of the paper).
//!
//! Recovery walks the extent table, then every block of every registered
//! extent, classifying each by its persisted header. The epoch system's
//! recovery builds on this raw scan to apply the BDL visibility rule
//! (blocks newer than the persisted epoch frontier are reclaimed).
//!
//! The scan also restores the free-list invariant
//! ([`PAlloc::free_batch`]) before any block is handed out: a free,
//! garbage or cross-class block whose epoch word is not `INVALID_EPOCH`
//! (a torn free or format, or an older image) is re-invalidated, all of
//! them in one batch under one fence.

use crate::block::{unpack_state, BlockState, Header, CLASS_WORDS, INVALID_EPOCH, NUM_CLASSES};
use crate::palloc::{invalidate, layout, PAlloc, EXTENT_WORDS};
use nvm_sim::{NvmAddr, NvmHeap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One non-free block found by the recovery scan.
#[derive(Clone, Copy, Debug)]
pub struct RecoveredBlock {
    pub addr: NvmAddr,
    pub state: BlockState,
    pub class: usize,
    /// Allocation / tracking epoch as persisted.
    pub epoch: u64,
    /// Delete epoch as persisted ([`INVALID_EPOCH`](crate::INVALID_EPOCH)
    /// if never retired).
    pub del_epoch: u64,
    /// User tag (block type).
    pub tag: u64,
}

impl PAlloc {
    /// Scans a reopened heap, rebuilding the allocator's free lists and
    /// returning every block whose persisted state is `ALLOCATED` or
    /// `DELETED`. The caller decides which of those are live and frees
    /// the rest.
    pub fn recover(heap: Arc<NvmHeap>) -> (PAlloc, Vec<RecoveredBlock>) {
        let (alloc, parts) = Self::recover_with(heap, 1, |_| Vec::new(), Vec::push);
        (alloc, parts.into_iter().flatten().collect())
    }

    /// The scan itself, handing each non-free block to the caller once,
    /// from inside the extent loop, instead of materialising a list of
    /// them: `visit` folds the block into the scanner's sink, which
    /// `new_sink` made from an upper bound on the blocks that scanner
    /// will visit. Returns one sink per scanner in extent order (a
    /// single one when `threads <= 1`), so concatenating them yields the
    /// blocks in the order a sequential scan meets them.
    ///
    /// Scanning is sequential and fast (the paper reports 163 ms for a
    /// 500 MiB heap single-threaded).
    pub fn recover_with<S: Send>(
        heap: Arc<NvmHeap>,
        threads: usize,
        new_sink: impl Fn(usize) -> S + Sync,
        visit: impl Fn(&mut S, RecoveredBlock) + Sync,
    ) -> (PAlloc, Vec<S>) {
        let (table_base, n_extents, data_base) = layout(&heap);

        // Registered extents with their classes.
        let mut extents = Vec::new();
        for i in 0..n_extents {
            let e = heap.word(NvmAddr(table_base + i)).load(Ordering::Acquire);
            if e == 0 {
                continue;
            }
            let class = (e - 1) as usize;
            if class >= NUM_CLASSES {
                // A corrupt entry can only come from a crash mid-way
                // through extent registration (the entry word is written
                // before any block is handed out, so nothing durable can
                // live here). Treat it as unregistered rather than
                // aborting recovery — recovery must succeed on any image
                // a crash can produce, including images taken during a
                // previous recovery.
                continue;
            }
            extents.push((i, class));
        }

        // One scanner's share: the sink `visit` filled, the free blocks
        // and the non-free count of each class, and the free blocks
        // whose epoch word needs re-invalidating.
        let scan = |part: &[(u64, usize)]| {
            let blocks: u64 = part
                .iter()
                .map(|&(_, c)| EXTENT_WORDS / CLASS_WORDS[c])
                .sum();
            let mut sink = new_sink(blocks as usize);
            let mut free: [Vec<NvmAddr>; NUM_CLASSES] = Default::default();
            let mut live = [0i64; NUM_CLASSES];
            let mut stale = Vec::new();
            for &(i, class) in part {
                let bw = CLASS_WORDS[class];
                let base = data_base + i * EXTENT_WORDS;
                for b in 0..EXTENT_WORDS / bw {
                    let blk = NvmAddr(base + b * bw);
                    match unpack_state(heap.word(blk).load(Ordering::Acquire)) {
                        Some((state, c)) if c == class && state != BlockState::Free => {
                            live[class] += 1;
                            visit(
                                &mut sink,
                                RecoveredBlock {
                                    addr: blk,
                                    state,
                                    class,
                                    epoch: Header::epoch(&heap, blk),
                                    del_epoch: Header::del_epoch(&heap, blk),
                                    tag: Header::tag(&heap, blk),
                                },
                            );
                        }
                        // Free, or a garbage or cross-class header: the
                        // block was being carved when the crash hit.
                        _ => {
                            if Header::epoch(&heap, blk) != INVALID_EPOCH {
                                stale.push((blk, class));
                            }
                            free[class].push(blk);
                        }
                    }
                }
            }
            (sink, free, live, stale)
        };

        let parts = if threads <= 1 || extents.len() < 2 {
            vec![scan(&extents)]
        } else {
            let chunk = extents.len().div_ceil(threads);
            std::thread::scope(|s| {
                let handles: Vec<_> = extents
                    .chunks(chunk)
                    .map(|part| s.spawn(|| scan(part)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("recovery scanner panicked"))
                    .collect()
            })
        };

        let mut per_class_free: [Vec<NvmAddr>; NUM_CLASSES] = Default::default();
        let mut live = [0i64; NUM_CLASSES];
        let mut sinks = Vec::with_capacity(parts.len());
        let mut reinvalidated = false;
        for (sink, free, part_live, stale) in parts {
            sinks.push(sink);
            // In extent order, so the crash-point schedule does not
            // depend on the scanner count.
            for &(blk, class) in &stale {
                invalidate(&heap, blk, class);
            }
            reinvalidated |= !stale.is_empty();
            for c in 0..NUM_CLASSES {
                live[c] += part_live[c];
            }
            for (all, mut part) in per_class_free.iter_mut().zip(free) {
                if all.is_empty() {
                    *all = part; // the sequential scan's only part: no copy
                } else {
                    all.append(&mut part);
                }
            }
        }
        if reinvalidated {
            heap.fence();
        }
        (PAlloc::from_recovery(heap, per_class_free, live), sinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{HDR_WORDS, INVALID_EPOCH};
    use nvm_sim::NvmConfig;

    #[test]
    fn recovery_finds_persisted_blocks_only() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let a = PAlloc::new(Arc::clone(&heap));

        // b1: fully persisted (header + payload).
        let b1 = a.alloc(0);
        Header::set_epoch(&heap, b1, 3);
        heap.write(b1.offset(HDR_WORDS), 0xAB);
        heap.persist_range(b1, CLASS_WORDS[0]);
        heap.fence();

        // b2: allocated and stamped, never written back — `alloc` does
        // not flush, so media still holds the carved FREE header.
        let b2 = a.alloc(0);
        Header::set_epoch(&heap, b2, 4);

        let img = heap.crash();
        let heap2 = Arc::new(NvmHeap::from_image(img));
        let (_a2, blocks) = PAlloc::recover(Arc::clone(&heap2));

        let rb1 = blocks.iter().find(|b| b.addr == b1).expect("b1 lost");
        assert_eq!(rb1.state, BlockState::Allocated);
        assert_eq!(rb1.epoch, 3);
        assert_eq!(heap2.read(b1.offset(HDR_WORDS)), 0xAB);

        assert!(
            blocks.iter().all(|b| b.addr != b2),
            "an unflushed allocation must not survive"
        );
        assert_eq!(Header::epoch(&heap2, b2), INVALID_EPOCH);
    }

    /// A free block whose epoch word reached media without its
    /// invalidation (a torn free) is re-invalidated by the scan before it
    /// goes back on a free list: one write-back each, one fence in all.
    #[test]
    fn scan_reinvalidates_free_blocks_with_a_stale_epoch() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let a = PAlloc::new(Arc::clone(&heap));
        let stale: Vec<NvmAddr> = (0..3).map(|_| a.alloc(0)).collect();
        for &b in &stale {
            Header::set_state(&heap, b, BlockState::Free, 0);
            Header::set_epoch(&heap, b, 7);
            heap.persist_range(b, HDR_WORDS);
        }
        heap.fence();

        let heap2 = Arc::new(NvmHeap::from_image(heap.crash()));
        let (_a2, blocks) = PAlloc::recover(Arc::clone(&heap2));
        assert!(blocks.is_empty());
        let s = heap2.stats().snapshot();
        assert_eq!((s.flushes, s.fences), (3, 1));
        let img = heap2.crash();
        for &b in &stale {
            assert_eq!(img.word(b.offset(crate::HDR_EPOCH)), INVALID_EPOCH);
        }

        // Once re-invalidated, a second scan has nothing to write.
        let heap3 = Arc::new(NvmHeap::from_image(img));
        let _ = PAlloc::recover(Arc::clone(&heap3));
        assert_eq!(heap3.stats().snapshot().flushes, 0);
    }

    #[test]
    fn recovered_allocator_reuses_free_space() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let a = PAlloc::new(Arc::clone(&heap));
        let b = a.alloc(0);
        a.free(b); // FREE header is flushed by free()

        let heap2 = Arc::new(NvmHeap::from_image(heap.crash()));
        let (a2, blocks) = PAlloc::recover(heap2);
        assert!(
            blocks.iter().all(|x| x.addr != b),
            "freed block resurrected"
        );
        // And allocation still works post-recovery.
        let c = a2.alloc(0);
        assert_eq!(
            Header::state(a2.heap(), c),
            Some((BlockState::Allocated, 0))
        );
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(16 << 20)));
        let a = PAlloc::new(Arc::clone(&heap));
        let mut want = Vec::new();
        for i in 0..300 {
            let b = a.alloc(i % 3);
            Header::set_epoch(&heap, b, i as u64);
            heap.persist_range(b, CLASS_WORDS[i % 3]);
            want.push(b);
        }
        heap.fence();
        let img = heap.crash();
        let h1 = Arc::new(NvmHeap::from_image(img));
        let (_s, mut seq) = PAlloc::recover(Arc::clone(&h1));
        let (_p, par) = PAlloc::recover_with(h1, 4, |_| Vec::new(), Vec::push);
        let mut par: Vec<_> = par.into_iter().flatten().collect();
        seq.sort_by_key(|b| b.addr);
        par.sort_by_key(|b| b.addr);
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq.len(), want.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.addr, p.addr);
            assert_eq!(s.epoch, p.epoch);
        }
    }

    #[test]
    fn deleted_blocks_are_reported_with_del_epoch() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let a = PAlloc::new(Arc::clone(&heap));
        let b = a.alloc(0);
        Header::set_epoch(&heap, b, 5);
        Header::set_state(&heap, b, BlockState::Deleted, 0);
        Header::set_del_epoch(&heap, b, 9);
        heap.persist_range(b, CLASS_WORDS[0]);
        heap.fence();
        let (_a2, blocks) = PAlloc::recover(Arc::new(NvmHeap::from_image(heap.crash())));
        let rb = blocks.iter().find(|x| x.addr == b).unwrap();
        assert_eq!(rb.state, BlockState::Deleted);
        assert_eq!(rb.epoch, 5);
        assert_eq!(rb.del_epoch, 9);
    }
}
