//! CCEH: cache-line-conscious extendible hashing (Nam et al., FAST 2019).
//!
//! Fully persistent and strictly durable: segments live in NVM (the
//! shared `SegTable`), every insert/delete issues multiple `clwb`s and
//! fences before returning (the paper counts "at least 3 persist
//! instructions per insert"), and failure atomicity needs no logging —
//! recovery rebuilds the directory by depth from the committed segments,
//! deeper (split-child) segments shadowing their stale parents. Every
//! NVM read, a split's included, is charged as a media read.
//!
//! Concurrency control: searches take no segment lock (meta-bit-last
//! publication ordering); updates take a striped DRAM segment mutex;
//! splits and directory doubling take the directory's write lock.

use crate::hash64;
use crate::segtable::{Bucket, SegTable, BUCKET_ENTRIES};
use htm_sim::sync::Mutex;
use nvm_sim::{NvmAddr, NvmHeap};
use std::sync::Arc;

/// Block tag for CCEH segments.
pub const CCEH_SEG_TAG: u64 = 0x4343_4548; // "CCEH"

/// Striped per-segment update locks.
const SEG_LOCKS: usize = 256;

/// The strictly durable extendible hash table.
pub struct Cceh {
    pub(crate) table: SegTable,
    seg_locks: Box<[Mutex<()>]>,
}

impl Cceh {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        Self::with_table(SegTable::new(heap, CCEH_SEG_TAG))
    }

    fn with_table(table: SegTable) -> Self {
        Self {
            table,
            seg_locks: (0..SEG_LOCKS).map(|_| Mutex::new(())).collect(),
        }
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        self.table.heap()
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.table.nvm_bytes()
    }

    #[inline]
    fn seg_lock(&self, seg: NvmAddr) -> &Mutex<()> {
        &self.seg_locks[(hash64(seg.0) as usize) % SEG_LOCKS]
    }

    /// The entry of bucket `b` holding `key`, per the bitmap `meta`.
    fn find(&self, b: Bucket, meta: u64, key: u64) -> Option<u64> {
        (0..BUCKET_ENTRIES).find(|&i| meta & (1 << i) != 0 && self.heap().read(b.key(i)) == key)
    }

    /// Inserts or updates; returns the previous value. Strictly durable:
    /// the pair and its metadata are on media when this returns.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let h = hash64(key);
        let heap = self.heap();
        loop {
            let dir = self.table.read();
            let seg = *dir.segment(h);
            let _sl = self.seg_lock(seg).lock();
            let b = Bucket::of(seg, h);
            let meta = heap.read(b.meta());
            // Update in place?
            if let Some(i) = self.find(b, meta, key) {
                let old = heap.read(b.value(i));
                heap.write(b.value(i), value);
                heap.clwb(b.value(i));
                heap.fence();
                return Some(old);
            }
            // Fresh slot?
            if let Some(i) = (0..BUCKET_ENTRIES).find(|i| meta & (1 << i) == 0) {
                // CCEH's persistence schedule: key, value, then the meta
                // bit that publishes them — each written back, with a
                // fence before the publication so recovery never sees a
                // set bit over garbage.
                heap.write(b.key(i), key);
                heap.clwb(b.key(i));
                heap.write(b.value(i), value);
                heap.clwb(b.value(i));
                heap.fence();
                heap.write(b.meta(), meta | (1 << i));
                heap.clwb(b.meta());
                heap.fence();
                return None;
            }
            // Bucket full: split this segment.
            drop(_sl);
            drop(dir);
            self.table.split(h, NvmHeap::read);
        }
    }

    /// Search without a segment lock.
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let dir = self.table.read();
        let b = Bucket::of(*dir.segment(h), h);
        let meta = self.heap().read(b.meta());
        self.find(b, meta, key)
            .map(|i| self.heap().read(b.value(i)))
    }

    /// Removes `key`, returning its value. Durable on return.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let heap = self.heap();
        let dir = self.table.read();
        let seg = *dir.segment(h);
        let _sl = self.seg_lock(seg).lock();
        let b = Bucket::of(seg, h);
        let meta = heap.read(b.meta());
        let i = self.find(b, meta, key)?;
        let v = heap.read(b.value(i));
        heap.write(b.meta(), meta & !(1 << i));
        heap.clwb(b.meta());
        heap.fence();
        Some(v)
    }

    /// Post-crash recovery: rebuilds the directory from segment depths.
    pub fn recover(heap: Arc<NvmHeap>) -> Cceh {
        Self::with_table(SegTable::recover(heap, CCEH_SEG_TAG))
    }

    /// The segment table's invariants, the allocator's live blocks
    /// being exactly the directory's segments among them. Call while
    /// quiescent.
    pub fn validate(&self) -> Result<(), String> {
        self.table.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;
    use std::collections::HashMap;

    fn table() -> Cceh {
        Cceh::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20))))
    }

    #[test]
    fn basic_semantics() {
        let t = table();
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.insert(3, 31), Some(30));
        assert_eq!(t.get(3), Some(31));
        assert_eq!(t.remove(3), Some(31));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn matches_oracle() {
        let t = table();
        let mut oracle = HashMap::new();
        let mut rng = 13u64;
        for i in 0..15_000u64 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = rng % 4096;
            match rng % 3 {
                0 => assert_eq!(t.insert(key, i), oracle.insert(key, i)),
                1 => assert_eq!(t.remove(key), oracle.remove(&key)),
                _ => assert_eq!(t.get(key), oracle.get(&key).copied()),
            }
        }
    }

    #[test]
    fn every_insert_is_immediately_durable() {
        let t = table();
        for k in 0..3000 {
            t.insert(k, k + 100);
        }
        // Crash with no further cooperation: everything must survive.
        let heap2 = Arc::new(NvmHeap::from_image(t.heap().crash()));
        let t2 = Cceh::recover(heap2);
        for k in 0..3000 {
            assert_eq!(t2.get(k), Some(k + 100), "durable insert {k} lost");
        }
    }

    #[test]
    fn removes_are_immediately_durable() {
        let t = table();
        for k in 0..500 {
            t.insert(k, k);
        }
        for k in 0..250 {
            t.remove(k);
        }
        let t2 = Cceh::recover(Arc::new(NvmHeap::from_image(t.heap().crash())));
        for k in 0..250 {
            assert_eq!(t2.get(k), None, "removed key {k} resurrected");
        }
        for k in 250..500 {
            assert_eq!(t2.get(k), Some(k));
        }
    }

    #[test]
    fn concurrent_inserts() {
        let t = Arc::new(table());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..3000u64 {
                        let k = tid * 1_000_000 + i;
                        t.insert(k, k ^ 7);
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..3000u64 {
                let k = tid * 1_000_000 + i;
                assert_eq!(t.get(k), Some(k ^ 7), "lost {k}");
            }
        }
    }

    #[test]
    fn insert_issues_several_flushes() {
        let t = table();
        // Warm segments so splits don't pollute the count.
        t.insert(0, 0);
        let before = t.heap().stats().snapshot();
        t.insert(1, 1);
        let delta = t.heap().stats().snapshot().since(&before);
        assert!(
            delta.flushes >= 3,
            "CCEH insert too cheap: {}",
            delta.flushes
        );
        assert!(delta.fences >= 2);
    }

    /// The strict-DL baseline's persist schedule, splits (segment
    /// allocation and free) included, pinned at its exact counts: the
    /// allocator's persisted allocation must keep costing what it did
    /// when every allocation flushed, so the Fig. 3–6 rows do not move.
    /// The run splits 117 times; each split writes back 133 lines and
    /// fences 5 times (two persisted allocations, both children whole
    /// and a fence, both commit flags and a fence, the parent's free).
    #[test]
    fn persist_op_counts_are_pinned() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20)));
        let t = Cceh::new(Arc::clone(&heap));
        for k in 0..4000 {
            t.insert(k, k);
        }
        for k in 0..1000 {
            t.remove(k);
        }
        let s = heap.stats().snapshot();
        assert_eq!((s.flushes, s.fences), (28_569, 9_593));
    }
}
