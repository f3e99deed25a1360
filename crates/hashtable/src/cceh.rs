//! CCEH: cache-line-conscious extendible hashing (Nam et al., FAST 2019).
//!
//! Fully persistent and strictly durable: segments live in NVM, every
//! insert/delete issues multiple `clwb`s and fences before returning
//! (the paper counts "at least 3 persist instructions per insert"), and
//! failure atomicity needs no logging — recovery reconstructs the
//! directory from the segments' persisted local depths, preferring
//! deeper (split-child) segments over their stale parents.
//!
//! Concurrency control: searches are lock-free (meta-bit-last publication
//! ordering); updates take a per-segment lock from a striped DRAM array;
//! splits and directory doubling take the directory's write lock.

use crate::hash64;
use htm_sim::sync::{Mutex, RwLock};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::sync::Arc;

/// Block tag for CCEH segments.
pub const CCEH_SEG_TAG: u64 = 0x4343_4548; // "CCEH"

const SEG_PAYLOAD: u64 = 508;
const SEG_DEPTH: u64 = 0;
const SEG_VALID: u64 = 1;
const SEG_BUCKETS: u64 = 8;
const BUCKET_WORDS: u64 = 8;
const BUCKET_ENTRIES: u64 = 3;
const NBUCKETS: u64 = (SEG_PAYLOAD - SEG_BUCKETS) / BUCKET_WORDS;

/// Striped per-segment update locks.
const SEG_LOCKS: usize = 256;

struct Directory {
    global_depth: u32,
    segments: Vec<NvmAddr>,
}

/// The strictly durable extendible hash table.
pub struct Cceh {
    heap: Arc<NvmHeap>,
    alloc: Arc<PAlloc>,
    dir: RwLock<Directory>,
    seg_locks: Box<[Mutex<()>]>,
}

impl Cceh {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        let alloc = Arc::new(PAlloc::new(Arc::clone(&heap)));
        let s0 = Self::new_segment(&heap, &alloc, 1);
        let s1 = Self::new_segment(&heap, &alloc, 1);
        Self {
            heap,
            alloc,
            dir: RwLock::new(Directory {
                global_depth: 1,
                segments: vec![s0, s1],
            }),
            seg_locks: (0..SEG_LOCKS).map(|_| Mutex::new(())).collect(),
        }
    }

    fn new_segment(heap: &NvmHeap, alloc: &PAlloc, depth: u32) -> NvmAddr {
        let seg = alloc.alloc_persisted(SEG_PAYLOAD);
        Header::set_tag(heap, seg, CCEH_SEG_TAG);
        Header::set_epoch(heap, seg, 0);
        heap.write(seg.offset(HDR_WORDS + SEG_DEPTH), depth as u64);
        heap.write(seg.offset(HDR_WORDS + SEG_VALID), 1);
        heap.persist_range(seg, HDR_WORDS + SEG_BUCKETS);
        heap.fence();
        seg
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    #[inline]
    fn bw(&self, seg: NvmAddr, bucket: u64, w: u64) -> NvmAddr {
        seg.offset(HDR_WORDS + SEG_BUCKETS + bucket * BUCKET_WORDS + w)
    }

    #[inline]
    fn bucket_of(h: u64) -> u64 {
        (h >> 32) % NBUCKETS
    }

    #[inline]
    fn seg_lock(&self, seg: NvmAddr) -> &Mutex<()> {
        &self.seg_locks[(hash64(seg.0) as usize) % SEG_LOCKS]
    }

    /// Inserts or updates; returns the previous value. Strictly durable:
    /// the pair and its metadata are on media when this returns.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let h = hash64(key);
        loop {
            let dir = self.dir.read();
            let seg = dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize];
            let _sl = self.seg_lock(seg).lock();
            let bucket = Self::bucket_of(h);
            let meta_a = self.bw(seg, bucket, 0);
            let meta = self.heap.read(meta_a);
            // Update in place?
            for i in 0..BUCKET_ENTRIES {
                if meta & (1 << i) != 0 && self.heap.read(self.bw(seg, bucket, 1 + 2 * i)) == key {
                    let va = self.bw(seg, bucket, 2 + 2 * i);
                    let old = self.heap.read(va);
                    self.heap.write(va, value);
                    self.heap.clwb(va);
                    self.heap.fence();
                    return Some(old);
                }
            }
            // Fresh slot?
            if let Some(i) = (0..BUCKET_ENTRIES).find(|i| meta & (1 << i) == 0) {
                // CCEH's persistence schedule: key, value, then the meta
                // bit that publishes them — each written back, with a
                // fence before the publication so recovery never sees a
                // set bit over garbage.
                let ka = self.bw(seg, bucket, 1 + 2 * i);
                let va = self.bw(seg, bucket, 2 + 2 * i);
                self.heap.write(ka, key);
                self.heap.clwb(ka);
                self.heap.write(va, value);
                self.heap.clwb(va);
                self.heap.fence();
                self.heap.write(meta_a, meta | (1 << i));
                self.heap.clwb(meta_a);
                self.heap.fence();
                return None;
            }
            // Bucket full: split this segment.
            drop(_sl);
            drop(dir);
            self.split(h);
        }
    }

    /// Lock-free search.
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let dir = self.dir.read();
        let seg = dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize];
        let bucket = Self::bucket_of(h);
        let meta = self.heap.read(self.bw(seg, bucket, 0));
        for i in 0..BUCKET_ENTRIES {
            if meta & (1 << i) != 0 && self.heap.read(self.bw(seg, bucket, 1 + 2 * i)) == key {
                return Some(self.heap.read(self.bw(seg, bucket, 2 + 2 * i)));
            }
        }
        None
    }

    /// Removes `key`, returning its value. Durable on return.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let dir = self.dir.read();
        let seg = dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize];
        let _sl = self.seg_lock(seg).lock();
        let bucket = Self::bucket_of(h);
        let meta_a = self.bw(seg, bucket, 0);
        let meta = self.heap.read(meta_a);
        for i in 0..BUCKET_ENTRIES {
            if meta & (1 << i) != 0 && self.heap.read(self.bw(seg, bucket, 1 + 2 * i)) == key {
                let v = self.heap.read(self.bw(seg, bucket, 2 + 2 * i));
                self.heap.write(meta_a, meta & !(1 << i));
                self.heap.clwb(meta_a);
                self.heap.fence();
                return Some(v);
            }
        }
        None
    }

    fn split(&self, h: u64) {
        let mut dir = self.dir.write();
        let mask = (1u64 << dir.global_depth) - 1;
        let idx = (h & mask) as usize;
        let old = dir.segments[idx];
        let ld = self.heap.read(old.offset(HDR_WORDS + SEG_DEPTH)) as u32;
        if ld == dir.global_depth {
            let n = dir.segments.len();
            let mut segs = Vec::with_capacity(2 * n);
            segs.extend_from_slice(&dir.segments);
            segs.extend_from_slice(&dir.segments);
            dir.segments = segs;
            dir.global_depth += 1;
        }
        let a = Self::new_segment(&self.heap, &self.alloc, ld + 1);
        let b = Self::new_segment(&self.heap, &self.alloc, ld + 1);
        for bucket in 0..NBUCKETS {
            let meta = self.heap.read(self.bw(old, bucket, 0));
            for i in 0..BUCKET_ENTRIES {
                if meta & (1 << i) == 0 {
                    continue;
                }
                let k = self.heap.read(self.bw(old, bucket, 1 + 2 * i));
                let v = self.heap.read(self.bw(old, bucket, 2 + 2 * i));
                let hk = hash64(k);
                let tgt = if hk & (1 << ld) == 0 { a } else { b };
                let tb = Self::bucket_of(hk);
                let tmeta = self.heap.read(self.bw(tgt, tb, 0));
                let slot = (0..BUCKET_ENTRIES)
                    .find(|j| tmeta & (1 << j) == 0)
                    .expect("split target bucket overflow");
                self.heap.write(self.bw(tgt, tb, 1 + 2 * slot), k);
                self.heap.write(self.bw(tgt, tb, 2 + 2 * slot), v);
                self.heap.write(self.bw(tgt, tb, 0), tmeta | (1 << slot));
            }
        }
        // Persist children completely, *then* publish and retire the
        // parent. A crash in between leaves a recoverable state: the
        // deeper children shadow the parent wherever they are valid.
        self.heap.persist_range(a, HDR_WORDS + SEG_PAYLOAD);
        self.heap.persist_range(b, HDR_WORDS + SEG_PAYLOAD);
        self.heap.fence();
        let gd = dir.global_depth;
        for e in 0..(1usize << gd) {
            if dir.segments[e] == old {
                dir.segments[e] = if (e as u64) & (1 << ld) == 0 { a } else { b };
            }
        }
        self.alloc.free(old); // FREE header is flushed by the allocator
    }

    /// Post-crash recovery: rebuilds the directory from segment depths.
    pub fn recover(heap: Arc<NvmHeap>) -> Cceh {
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let alloc = Arc::new(alloc);
        let mut segs: Vec<(NvmAddr, u32)> = Vec::new();
        let mut max_depth = 1;
        for b in &blocks {
            if b.tag != CCEH_SEG_TAG {
                continue;
            }
            if heap.read(b.addr.offset(HDR_WORDS + SEG_VALID)) != 1 {
                alloc.free(b.addr);
                continue;
            }
            let ld = heap.read(b.addr.offset(HDR_WORDS + SEG_DEPTH)) as u32;
            max_depth = max_depth.max(ld);
            segs.push((b.addr, ld));
        }
        let gd = max_depth;
        let mut directory = vec![(NvmAddr::NULL, 0u32); 1 << gd];
        for &(seg, ld) in &segs {
            // Derive the segment's prefix once from its first stored key,
            // then write exactly its 2^(gd-ld) matching slots: linear in
            // directory size instead of (segments x slots) probing.
            let Some(prefix) = Self::segment_prefix(&heap, seg, ld) else {
                continue; // empty segment: unrecoverable prefix
            };
            let step = 1u64 << ld;
            let mut e = prefix;
            while e < (1u64 << gd) {
                let slot = &mut directory[e as usize];
                if ld >= slot.1 {
                    *slot = (seg, ld);
                }
                e += step;
            }
        }
        for slot in directory.iter_mut() {
            if slot.0.is_null() {
                *slot = (Self::new_segment(&heap, &alloc, gd), gd);
            }
        }
        // Free shadowed parents (valid but unreferenced).
        let referenced: std::collections::HashSet<NvmAddr> =
            directory.iter().map(|&(s, _)| s).collect();
        for &(seg, _) in &segs {
            if !referenced.contains(&seg) {
                alloc.free(seg);
            }
        }
        Cceh {
            heap,
            alloc,
            dir: RwLock::new(Directory {
                global_depth: gd,
                segments: directory.into_iter().map(|(s, _)| s).collect(),
            }),
            seg_locks: (0..SEG_LOCKS).map(|_| Mutex::new(())).collect(),
        }
    }

    /// The directory prefix of a segment of depth `ld` (low `ld` bits of
    /// any stored key's hash); `None` for empty segments.
    fn segment_prefix(heap: &NvmHeap, seg: NvmAddr, ld: u32) -> Option<u64> {
        let mask = (1u64 << ld) - 1;
        for bucket in 0..NBUCKETS {
            let meta = heap.read(seg.offset(HDR_WORDS + SEG_BUCKETS + bucket * BUCKET_WORDS));
            for i in 0..BUCKET_ENTRIES {
                if meta & (1 << i) != 0 {
                    let k = heap.read(
                        seg.offset(HDR_WORDS + SEG_BUCKETS + bucket * BUCKET_WORDS + 1 + 2 * i),
                    );
                    return Some(hash64(k) & mask);
                }
            }
        }
        None
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
        assert_eq!((s.flushes, s.fences), (28_803, 9_710));
    }
}
