//! The allocator proper: extent carving, shared free lists, thread caches.

use crate::block::{
    pack_state, BlockState, Header, CLASS_WORDS, HDR_EPOCH, INVALID_EPOCH, NUM_CLASSES,
};
use htm_sim::sync::Mutex;
use htm_sim::{max_threads, thread_id};
use nvm_sim::{NvmAddr, NvmHeap};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Words per extent: 32 Ki words = 256 KiB.
pub(crate) const EXTENT_WORDS: u64 = 1 << 15;

/// Blocks moved between a thread cache and the shared list per refill.
const CACHE_BATCH: usize = 64;
/// Thread-cache high-water mark; beyond it, a batch is returned.
const CACHE_MAX: usize = 192;

/// Per-class volatile allocation statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocStats {
    /// Live (allocated or retired-but-unconfirmed) blocks per class.
    pub live_blocks: [i64; NUM_CLASSES],
}

impl AllocStats {
    /// Total bytes of NVM held by live blocks — the paper's "NVM space
    /// consumption" metric (Table 3, Fig. 8).
    pub fn bytes_in_use(&self) -> u64 {
        self.live_blocks
            .iter()
            .zip(CLASS_WORDS)
            .map(|(&n, w)| (n.max(0) as u64) * w * 8)
            .sum()
    }
}

struct ClassLists {
    shared: Mutex<Vec<NvmAddr>>,
    live: AtomicI64,
}

/// A recoverable segregated-fit allocator over an [`NvmHeap`].
pub struct PAlloc {
    heap: Arc<NvmHeap>,
    classes: [ClassLists; NUM_CLASSES],
    /// Per-thread, per-class caches (indexed by dense thread id; each slot
    /// is touched only by its owner, the mutex is uncontended).
    caches: Box<[Mutex<Vec<NvmAddr>>]>,
    /// Protects extent carving.
    carve: Mutex<()>,
    /// Extent-table geometry (derived deterministically from capacity).
    table_base: u64,
    n_extents: u64,
    data_base: u64,
}

/// Extent-table geometry `(table_base, n_extents, data_base)`, a pure
/// function of the heap's capacity: the allocator and the recovery scan
/// both derive it here.
pub(crate) fn layout(heap: &NvmHeap) -> (u64, u64, u64) {
    let table_base = heap.base().0;
    let capacity = heap.capacity_words();
    // Solve for the largest extent count whose table + data fit.
    let mut n_extents = (capacity - table_base) / EXTENT_WORDS;
    loop {
        let data_base = (table_base + n_extents).next_multiple_of(EXTENT_WORDS);
        if data_base + n_extents * EXTENT_WORDS <= capacity || n_extents == 0 {
            return (table_base, n_extents, data_base);
        }
        n_extents -= 1;
    }
}

impl PAlloc {
    /// Creates an allocator over a fresh (zeroed) heap.
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        Self::with_layout(heap)
    }

    fn with_layout(heap: Arc<NvmHeap>) -> Self {
        let (table_base, n_extents, data_base) = layout(&heap);
        assert!(n_extents > 0, "heap too small for even one extent");
        let classes = std::array::from_fn(|_| ClassLists {
            shared: Mutex::new(Vec::new()),
            live: AtomicI64::new(0),
        });
        let caches = (0..max_threads() * NUM_CLASSES)
            .map(|_| Mutex::new(Vec::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        PAlloc {
            heap,
            classes,
            caches,
            carve: Mutex::new(()),
            table_base,
            n_extents,
            data_base,
        }
    }

    pub(crate) fn from_recovery(
        heap: Arc<NvmHeap>,
        free: [Vec<NvmAddr>; NUM_CLASSES],
        live: [i64; NUM_CLASSES],
    ) -> Self {
        let a = Self::with_layout(heap);
        for (c, list) in free.into_iter().enumerate() {
            *a.classes[c].shared.lock() = list;
            a.classes[c].live.store(live[c], Ordering::Relaxed);
        }
        a
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    /// Allocates a block of the given size class. The returned block is
    /// `ALLOCATED` with an `INVALID_EPOCH` epoch and zeroed payload, in
    /// the cache only: `alloc` issues no persist operation (it can still
    /// abort a transaction when it has to carve a fresh extent).
    ///
    /// Nothing needs flushing because of the free-list invariant (see
    /// [`free_batch`](Self::free_batch)): the block's epoch word on media
    /// is already `INVALID_EPOCH`, so no mix of old and new header words
    /// that a crash can leave on media classifies it as live, and a
    /// block recovery finds unclaimed is reclaimed by the scan. A caller
    /// whose recovery trusts `ALLOCATED` headers without an epoch (the
    /// strict-DL structures) uses [`alloc_persisted`](Self::alloc_persisted).
    pub fn alloc(&self, class: usize) -> NvmAddr {
        assert!(class < NUM_CLASSES);
        let blk = self.obtain(class);
        // (Re)initialize the header and zero the payload with *versioned*
        // stores: a stale transactional reader still holding a pointer to
        // this recycled block must observe the reuse and abort.
        self.heap.write_coherent(
            blk.offset(crate::block::HDR_STATE),
            pack_state(BlockState::Allocated, class),
        );
        self.heap
            .write_coherent(blk.offset(HDR_EPOCH), INVALID_EPOCH);
        self.heap
            .write_coherent(blk.offset(crate::block::HDR_DEL_EPOCH), INVALID_EPOCH);
        self.heap
            .write_coherent(blk.offset(crate::block::HDR_TAG), 0);
        self.heap.write_coherent_range(
            blk.offset(crate::block::HDR_WORDS),
            CLASS_WORDS[class] - crate::block::HDR_WORDS,
            0,
        );
        self.classes[class].live.fetch_add(1, Ordering::Relaxed);
        blk
    }

    /// Allocates the smallest class that can hold `payload_words` of data.
    pub fn alloc_for_payload(&self, payload_words: u64) -> NvmAddr {
        let class = crate::block::class_for_payload(payload_words)
            .expect("payload exceeds largest size class");
        self.alloc(class)
    }

    /// [`alloc_for_payload`](Self::alloc_for_payload) with the header
    /// line written back and fenced, like a Ralloc-style allocator that
    /// persists its metadata on every call — which aborts any enclosing
    /// HTM transaction (Montage's `pNew` problem). The strict-DL
    /// structures allocate this way.
    pub fn alloc_persisted(&self, payload_words: u64) -> NvmAddr {
        let blk = self.alloc_for_payload(payload_words);
        self.heap.clwb(blk);
        self.heap.fence();
        blk
    }

    /// Returns one block to the allocator: [`free_batch`](Self::free_batch)
    /// of one block, so it costs one `clwb` and one `fence` and aborts an
    /// enclosing transaction.
    pub fn free(&self, blk: NvmAddr) {
        self.free_batch(&[blk]);
    }

    /// Returns blocks to the allocator, keeping the free-list invariant:
    /// **every block on a free list has `INVALID_EPOCH` in its epoch word
    /// on media, fenced.** Each block gets `INVALID_EPOCH` and a `FREE`
    /// state word (coherent stores) and a `clwb`; one `fence` covers the
    /// whole batch; only then do the blocks reach the caches, so the
    /// allocator never hands out a block whose media image could still
    /// classify as live.
    ///
    /// The blocks leave the live count when the call starts: their
    /// deletions are already durable, and the write-back is only there
    /// for the next owner.
    pub fn free_batch(&self, blks: &[NvmAddr]) {
        if blks.is_empty() {
            return;
        }
        let mut classes = Vec::with_capacity(blks.len());
        let mut freed = [0i64; NUM_CLASSES];
        for &blk in blks {
            let class = self.live_class(blk);
            classes.push(class);
            freed[class] += 1;
        }
        for (cl, n) in self.classes.iter().zip(freed) {
            cl.live.fetch_sub(n, Ordering::Relaxed);
        }
        for &blk in blks {
            // Checked again: a block listed twice is a double free too.
            invalidate(&self.heap, blk, self.live_class(blk));
        }
        self.heap.fence();
        for (&blk, &class) in blks.iter().zip(&classes) {
            let cache = &self.caches[thread_id() * NUM_CLASSES + class];
            let mut c = cache.lock();
            c.push(blk);
            if c.len() > CACHE_MAX {
                let at = c.len() - CACHE_BATCH;
                let spill: Vec<NvmAddr> = c.drain(at..).collect();
                drop(c);
                self.classes[class].shared.lock().extend(spill);
            }
        }
    }

    /// The size class of a block about to be freed; panics on a
    /// non-block address or a block that is already free.
    fn live_class(&self, blk: NvmAddr) -> usize {
        let (state, class) = Header::state(&self.heap, blk).expect("free of a non-block address");
        assert!(
            state != BlockState::Free,
            "double free of NVM block {blk:?}"
        );
        class
    }

    /// The epoch word of a block, as a raw atomic for transactional access.
    pub fn epoch_word(heap: &NvmHeap, blk: NvmAddr) -> &std::sync::atomic::AtomicU64 {
        heap.word(blk.offset(HDR_EPOCH))
    }

    /// Current volatile statistics.
    pub fn stats(&self) -> AllocStats {
        let mut s = AllocStats::default();
        for (c, cl) in self.classes.iter().enumerate() {
            s.live_blocks[c] = cl.live.load(Ordering::Relaxed);
        }
        s
    }

    fn obtain(&self, class: usize) -> NvmAddr {
        let cache = &self.caches[thread_id() * NUM_CLASSES + class];
        if let Some(blk) = cache.lock().pop() {
            return blk;
        }
        // Refill from the shared list.
        {
            let mut shared = self.classes[class].shared.lock();
            if !shared.is_empty() {
                let take = shared.len().min(CACHE_BATCH);
                let at = shared.len() - take;
                let batch: Vec<NvmAddr> = shared.drain(at..).collect();
                drop(shared);
                let mut c = cache.lock();
                c.extend(batch);
                if let Some(blk) = c.pop() {
                    return blk;
                }
            }
        }
        // Carve a fresh extent.
        self.carve_extent(class);
        self.obtain(class)
    }

    fn carve_extent(&self, class: usize) {
        let _g = self.carve.lock();
        // Re-check: another thread may have carved while we waited.
        if !self.classes[class].shared.lock().is_empty() {
            return;
        }
        // Find the first unused table entry.
        let mut idx = None;
        for i in 0..self.n_extents {
            if self
                .heap
                .word(NvmAddr(self.table_base + i))
                .load(Ordering::Acquire)
                == 0
            {
                idx = Some(i);
                break;
            }
        }
        let i = idx.unwrap_or_else(|| panic!("NVM heap exhausted ({} extents)", self.n_extents));
        // Persist the extent registration before handing out blocks.
        self.heap
            .write(NvmAddr(self.table_base + i), class as u64 + 1);
        self.heap.clwb(NvmAddr(self.table_base + i));
        self.heap.fence();
        // Format the extent: every block gets a FREE header with an
        // `INVALID_EPOCH` epoch word (the free-list invariant; a zeroed
        // word would read as epoch 0), then fill the shared list.
        let ext_base = self.data_base + i * EXTENT_WORDS;
        let bw = CLASS_WORDS[class];
        let n_blocks = EXTENT_WORDS / bw;
        let mut list = Vec::with_capacity(n_blocks as usize);
        for b in 0..n_blocks {
            let blk = NvmAddr(ext_base + b * bw);
            self.heap.write(blk, pack_state(BlockState::Free, class));
            self.heap.write(blk.offset(HDR_EPOCH), INVALID_EPOCH);
            list.push(blk);
        }
        // Extent formatting is one-time metadata initialization; it is
        // persisted through the bulk path so it does not distort the
        // per-operation flush statistics the experiments measure.
        self.heap.format_region(NvmAddr(ext_base), n_blocks * bw);
        self.heap.fence();
        self.classes[class].shared.lock().extend(list);
    }
}

/// Writes a free block's header, `INVALID_EPOCH` epoch word and `FREE`
/// state word, and issues its `clwb`; the caller fences. Shared by
/// [`PAlloc::free_batch`] and the recovery scan's re-invalidation.
pub(crate) fn invalidate(heap: &NvmHeap, blk: NvmAddr, class: usize) {
    heap.write_coherent(blk.offset(HDR_EPOCH), INVALID_EPOCH);
    heap.write_coherent(
        blk.offset(crate::block::HDR_STATE),
        pack_state(BlockState::Free, class),
    );
    heap.clwb(blk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;

    fn setup() -> PAlloc {
        PAlloc::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20))))
    }

    #[test]
    fn alloc_returns_distinct_initialized_blocks() {
        let a = setup();
        let b1 = a.alloc(0);
        let b2 = a.alloc(0);
        assert_ne!(b1, b2);
        assert_eq!(
            Header::state(a.heap(), b1),
            Some((BlockState::Allocated, 0))
        );
        assert_eq!(Header::epoch(a.heap(), b1), INVALID_EPOCH);
        // Payload zeroed.
        for w in crate::block::HDR_WORDS..CLASS_WORDS[0] {
            assert_eq!(a.heap().word(b1.offset(w)).load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn free_then_alloc_reuses() {
        let a = setup();
        let b1 = a.alloc(1);
        a.free(b1);
        let b2 = a.alloc(1);
        assert_eq!(b1, b2, "thread cache should hand back the freed block");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let a = setup();
        let b = a.alloc(0);
        a.free(b);
        a.free(b);
    }

    #[test]
    fn live_accounting() {
        let a = setup();
        let b1 = a.alloc(0);
        let _b2 = a.alloc(2);
        assert_eq!(a.stats().live_blocks[0], 1);
        assert_eq!(a.stats().live_blocks[2], 1);
        assert_eq!(a.stats().bytes_in_use(), 64 + 256);
        a.free(b1);
        assert_eq!(a.stats().bytes_in_use(), 256);
    }

    /// Montage's `pNew` problem, kept for the strict-DL structures: a
    /// persisted allocation flushes, and the flush aborts the enclosing
    /// transaction.
    #[test]
    fn alloc_persisted_inside_txn_aborts_it() {
        use htm_sim::{AbortCause, Htm, HtmConfig};
        let a = setup();
        a.free(a.alloc(0)); // carve outside the transaction
        let htm = Htm::new(HtmConfig::for_tests());
        let r = htm.attempt(|_t| {
            let _ = a.alloc_persisted(2); // header flush poisons the transaction
            Ok(())
        });
        assert_eq!(r.unwrap_err(), AbortCause::PersistInTxn);
    }

    /// On a carved heap, `alloc` writes the cache only; a batch of N
    /// frees costs N write-backs and one fence.
    #[test]
    fn alloc_is_persist_free_and_free_batch_fences_once() {
        let a = setup();
        let blocks: Vec<NvmAddr> = (0..10).map(|_| a.alloc(0)).collect();
        a.free_batch(&blocks);
        let before = a.heap().stats().snapshot();
        let again: Vec<NvmAddr> = (0..10).map(|_| a.alloc(0)).collect();
        let d = a.heap().stats().snapshot().since(&before);
        assert_eq!((d.flushes, d.fences), (0, 0), "alloc issued a persist op");

        let before = a.heap().stats().snapshot();
        a.free_batch(&again);
        let d = a.heap().stats().snapshot().since(&before);
        assert_eq!((d.flushes, d.fences), (10, 1));
    }

    /// The free-list invariant: a carved block and a freed block both
    /// carry `INVALID_EPOCH` on media before they can be handed out.
    #[test]
    fn free_blocks_carry_an_invalid_epoch_on_media() {
        let a = setup();
        let b = a.alloc(0);
        let carved = NvmAddr(b.0 - CLASS_WORDS[0]); // the next block out
        assert_eq!(
            a.heap().crash().word(carved.offset(HDR_EPOCH)),
            INVALID_EPOCH
        );

        Header::set_epoch(a.heap(), b, 3);
        a.heap().persist_range(b, CLASS_WORDS[0]);
        a.heap().fence();
        a.free(b);
        let img = a.heap().crash();
        assert_eq!(img.word(b.offset(HDR_EPOCH)), INVALID_EPOCH);
        assert_eq!(
            crate::block::unpack_state(img.word(b)),
            Some((BlockState::Free, 0))
        );
        assert_eq!(a.alloc(0), b, "the freed block is the next one out");
    }

    #[test]
    fn concurrent_allocs_are_distinct() {
        let a = Arc::new(setup());
        let per_thread = 500;
        let mut all = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let a = Arc::clone(&a);
                handles
                    .push(s.spawn(move || (0..per_thread).map(|_| a.alloc(0)).collect::<Vec<_>>()));
            }
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        let mut set = std::collections::HashSet::new();
        for b in &all {
            assert!(set.insert(b.0), "duplicate allocation {b:?}");
        }
        assert_eq!(all.len(), 4 * per_thread);
    }

    #[test]
    fn exhaustion_panics_cleanly() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(1 << 20)));
        let a = PAlloc::new(heap);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            let _ = a.alloc(4); // 4 KiB blocks, exhausts quickly
        }));
        assert!(r.is_err());
    }
}
