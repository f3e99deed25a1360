//! Spash (Zhang et al., ICDE 2024): the eADR-designed HTM hash table.
//!
//! Extendible hashing: a directory of pointers to NVM *segments* (4 KiB
//! blocks, a multiple of the 256 B XPLine), each holding 62 buckets of a
//! cache line each (3 inline KV pairs + occupancy metadata). Operations
//! are hardware transactions; the directory is guarded by a reader-writer
//! lock whose write side (directory doubling, segment splits) "happens
//! quickly" (§4.3) — workers assist by performing the split of the
//! segment they overflowed.
//!
//! Designed for **persistent caches**: crash consistency comes from eADR
//! (every committed cache line survives), and `clwb` is used purely as a
//! *performance* hint — the DRAM [`HotspotDetector`] flags cold keys whose
//! buckets are proactively written back, keeping cache space for hot data
//! and batching media traffic at XPLine granularity. On a plain-ADR heap
//! Spash runs but silently loses un-flushed data on a crash; that gap is
//! what [`BdSpash`](crate::BdSpash) closes.
//!
//! Simplification (DESIGN.md): the original's thread-local 256 B chunks
//! for *small* cold writes are approximated by the XPLine write-combining
//! accounting of `nvm-sim`; the hot/cold proactive-flush policy itself is
//! implemented faithfully.

use crate::hash64;
use crate::hotspot::HotspotDetector;
use htm_sim::sync::RwLock;
use htm_sim::{FallbackLock, Htm, MemAccess, TxResult};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Block tag for Spash segments.
pub const SPASH_SEG_TAG: u64 = 0x5350_5348; // "SPSH"

/// Segment payload geometry (class-4 blocks: 512 words, 508 payload).
const SEG_PAYLOAD: u64 = 508;
const SEG_DEPTH: u64 = 0; // local depth
const SEG_VALID: u64 = 1; // commit flag (recovery ignores invalid)
const SEG_BUCKETS: u64 = 8; // first bucket word (line-aligned-ish)
/// Words per bucket: meta + 3 * (key, value) + pad.
const BUCKET_WORDS: u64 = 8;
/// Entries per bucket.
const BUCKET_ENTRIES: u64 = 3;
/// Buckets per segment.
const NBUCKETS: u64 = (SEG_PAYLOAD - SEG_BUCKETS) / BUCKET_WORDS; // 62

enum Outcome {
    Done(Option<u64>),
    NeedSplit,
}

/// `scan` result: `(entry_index, value)` of a match, plus the first
/// free entry index in the bucket.
type ScanHit = (Option<(u64, u64)>, Option<u64>);

/// The eADR hash table.
pub struct Spash {
    heap: Arc<NvmHeap>,
    alloc: Arc<PAlloc>,
    htm: Arc<Htm>,
    lock: FallbackLock,
    dir: RwLock<Directory>,
    hotspot: HotspotDetector,
}

struct Directory {
    global_depth: u32,
    segments: Vec<NvmAddr>,
}

impl Spash {
    /// Creates a table on `heap` (normally an eADR-configured heap; see
    /// [`NvmConfig::optane_eadr`](nvm_sim::NvmConfig::optane_eadr)).
    pub fn new(heap: Arc<NvmHeap>, htm: Arc<Htm>) -> Self {
        let alloc = Arc::new(PAlloc::new(Arc::clone(&heap)));
        Self::with_alloc(heap, alloc, htm)
    }

    /// Creates a table over an existing allocator (shared heap).
    pub fn with_alloc(heap: Arc<NvmHeap>, alloc: Arc<PAlloc>, htm: Arc<Htm>) -> Self {
        let s0 = Self::new_segment(&heap, &alloc, 1);
        let s1 = Self::new_segment(&heap, &alloc, 1);
        Self {
            heap,
            alloc,
            htm,
            lock: FallbackLock::new(),
            dir: RwLock::new(Directory {
                global_depth: 1,
                segments: vec![s0, s1],
            }),
            hotspot: HotspotDetector::new(1 << 16, 4),
        }
    }

    fn new_segment(heap: &NvmHeap, alloc: &PAlloc, depth: u32) -> NvmAddr {
        let seg = alloc.alloc_persisted(SEG_PAYLOAD);
        Header::set_tag(heap, seg, SPASH_SEG_TAG);
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

    pub fn htm(&self) -> &Htm {
        &self.htm
    }

    /// NVM bytes held by segments.
    pub fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    #[inline]
    fn bucket_word(&self, seg: NvmAddr, bucket: u64, w: u64) -> NvmAddr {
        seg.offset(HDR_WORDS + SEG_BUCKETS + bucket * BUCKET_WORDS + w)
    }

    #[inline]
    fn bucket_of(h: u64) -> u64 {
        (h >> 32) % NBUCKETS
    }

    /// Proactive write-back of a (cold) bucket line — the Spash policy.
    fn flush_cold(&self, seg: NvmAddr, bucket: u64, hot: bool) {
        if !hot {
            self.heap.clwb(self.bucket_word(seg, bucket, 0));
        }
    }

    /// Transactional bucket scan. Returns `(entry_index, value)` for a
    /// match, or the first free entry index.
    fn scan<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        seg: NvmAddr,
        bucket: u64,
        key: u64,
    ) -> TxResult<ScanHit> {
        let meta = m.load(self.heap.word(self.bucket_word(seg, bucket, 0)))?;
        let mut free = None;
        for i in 0..BUCKET_ENTRIES {
            if meta & (1 << i) == 0 {
                if free.is_none() {
                    free = Some(i);
                }
                continue;
            }
            let k = m.load(self.heap.word(self.bucket_word(seg, bucket, 1 + 2 * i)))?;
            if k == key {
                let v = m.load(self.heap.word(self.bucket_word(seg, bucket, 2 + 2 * i)))?;
                return Ok((Some((i, v)), free));
            }
        }
        Ok((None, free))
    }

    /// Inserts or updates. Returns the previous value if present.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let h = hash64(key);
        let hot = self.hotspot.touch(h);
        loop {
            let dir = self.dir.read();
            let seg = dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize];
            let bucket = Self::bucket_of(h);
            let r = self
                .htm
                .run(&self.lock, |m| {
                    let (found, free) = self.scan(m, seg, bucket, key)?;
                    match (found, free) {
                        (Some((i, old)), _) => {
                            m.store(
                                self.heap.word(self.bucket_word(seg, bucket, 2 + 2 * i)),
                                value,
                            )?;
                            Ok(Outcome::Done(Some(old)))
                        }
                        (None, Some(i)) => {
                            let meta = m.load(self.heap.word(self.bucket_word(seg, bucket, 0)))?;
                            m.store(
                                self.heap.word(self.bucket_word(seg, bucket, 1 + 2 * i)),
                                key,
                            )?;
                            m.store(
                                self.heap.word(self.bucket_word(seg, bucket, 2 + 2 * i)),
                                value,
                            )?;
                            m.store(
                                self.heap.word(self.bucket_word(seg, bucket, 0)),
                                meta | (1 << i),
                            )?;
                            Ok(Outcome::Done(None))
                        }
                        (None, None) => Ok(Outcome::NeedSplit),
                    }
                })
                .expect("spash raises no explicit aborts");
            match r {
                Outcome::Done(old) => {
                    self.flush_cold(seg, bucket, hot);
                    return old;
                }
                Outcome::NeedSplit => {
                    drop(dir);
                    self.split(h);
                }
            }
        }
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        self.hotspot.touch(h);
        let dir = self.dir.read();
        let seg = dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize];
        let bucket = Self::bucket_of(h);
        self.htm
            .run(&self.lock, |m| {
                let (found, _) = self.scan(m, seg, bucket, key)?;
                Ok(found.map(|(_, v)| v))
            })
            .expect("spash raises no explicit aborts")
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let hot = self.hotspot.touch(h);
        let dir = self.dir.read();
        let seg = dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize];
        let bucket = Self::bucket_of(h);
        let r = self
            .htm
            .run(&self.lock, |m| {
                let (found, _) = self.scan(m, seg, bucket, key)?;
                match found {
                    None => Ok(None),
                    Some((i, v)) => {
                        let meta = m.load(self.heap.word(self.bucket_word(seg, bucket, 0)))?;
                        m.store(
                            self.heap.word(self.bucket_word(seg, bucket, 0)),
                            meta & !(1 << i),
                        )?;
                        Ok(Some(v))
                    }
                }
            })
            .expect("spash raises no explicit aborts");
        if r.is_some() {
            self.flush_cold(seg, bucket, hot);
        }
        r
    }

    /// Splits the segment covering hash `h`, doubling the directory if
    /// its local depth equals the global depth. This is the worker-assist
    /// path: the thread that overflowed performs the migration.
    fn split(&self, h: u64) {
        let mut dir = self.dir.write();
        let mask = (1u64 << dir.global_depth) - 1;
        let idx = (h & mask) as usize;
        let old = dir.segments[idx];
        let ld = self.heap.read(old.offset(HDR_WORDS + SEG_DEPTH)) as u32;
        if ld == dir.global_depth {
            // Directory doubling — quick, under the global lock.
            let n = dir.segments.len();
            let mut segs = Vec::with_capacity(2 * n);
            segs.extend_from_slice(&dir.segments);
            segs.extend_from_slice(&dir.segments);
            dir.segments = segs;
            dir.global_depth += 1;
        }
        // Split `old` (depth ld) into two depth-(ld+1) segments.
        let a = Self::new_segment(&self.heap, &self.alloc, ld + 1);
        let b = Self::new_segment(&self.heap, &self.alloc, ld + 1);
        for bucket in 0..NBUCKETS {
            let meta = self
                .heap
                .word(self.bucket_word(old, bucket, 0))
                .load(Ordering::Acquire);
            for i in 0..BUCKET_ENTRIES {
                if meta & (1 << i) == 0 {
                    continue;
                }
                let k = self
                    .heap
                    .word(self.bucket_word(old, bucket, 1 + 2 * i))
                    .load(Ordering::Acquire);
                let v = self
                    .heap
                    .word(self.bucket_word(old, bucket, 2 + 2 * i))
                    .load(Ordering::Acquire);
                let hk = hash64(k);
                let tgt = if hk & (1 << ld) == 0 { a } else { b };
                let tb = Self::bucket_of(hk);
                let tmeta_addr = self.bucket_word(tgt, tb, 0);
                let tmeta = self.heap.word(tmeta_addr).load(Ordering::Acquire);
                let slot = (0..BUCKET_ENTRIES)
                    .find(|j| tmeta & (1 << j) == 0)
                    .expect("split target bucket overflow");
                self.heap.write(self.bucket_word(tgt, tb, 1 + 2 * slot), k);
                self.heap.write(self.bucket_word(tgt, tb, 2 + 2 * slot), v);
                self.heap.write(tmeta_addr, tmeta | (1 << slot));
            }
        }
        // Publish: every directory entry that pointed at `old` now points
        // at `a` or `b` according to bit `ld` of the entry index.
        let gd = dir.global_depth;
        for e in 0..(1usize << gd) {
            if dir.segments[e] == old {
                dir.segments[e] = if (e as u64) & (1 << ld) == 0 { a } else { b };
            }
        }
        // Persist the children eagerly (cheap hints under eADR) and
        // retire the parent.
        self.heap.persist_range(a, HDR_WORDS + SEG_PAYLOAD);
        self.heap.persist_range(b, HDR_WORDS + SEG_PAYLOAD);
        self.heap.fence();
        self.alloc.free(old);
    }

    /// Rebuilds a Spash directory from a recovered (eADR) heap scan.
    pub fn recover(heap: Arc<NvmHeap>, htm: Arc<Htm>) -> Spash {
        assert!(
            heap.config().eadr,
            "Spash recovery is only meaningful with persistent caches"
        );
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let alloc = Arc::new(alloc);
        let mut segs: Vec<(NvmAddr, u32)> = Vec::new();
        let mut max_depth = 1;
        for b in &blocks {
            if b.tag != SPASH_SEG_TAG {
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
        // Place each non-empty segment into the directory slots matching
        // its key prefix; deeper segments win (they shadow a stale
        // parent). Slots left uncovered get fresh empty segments.
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
        let table = Spash {
            heap,
            alloc,
            htm,
            lock: FallbackLock::new(),
            dir: RwLock::new(Directory {
                global_depth: gd,
                segments: directory.iter().map(|&(s, _)| s).collect(),
            }),
            hotspot: HotspotDetector::new(1 << 16, 4),
        };
        table
    }

    /// The directory prefix of a segment of depth `ld`: the low `ld` bits
    /// of any stored key's hash (all keys in a segment share them).
    /// `None` if the segment is empty (its prefix is unrecoverable).
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
    use htm_sim::HtmConfig;
    use nvm_sim::NvmConfig;
    use std::collections::HashMap;

    fn eadr_table() -> Spash {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20).with_eadr(true)));
        Spash::new(heap, Arc::new(Htm::new(HtmConfig::for_tests())))
    }

    #[test]
    fn basic_semantics() {
        let t = eadr_table();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(1), Some(11));
        assert_eq!(t.remove(1), Some(11));
        assert_eq!(t.remove(1), None);
    }

    #[test]
    fn grows_through_splits_and_doubling() {
        let t = eadr_table();
        let n = 20_000u64;
        for k in 0..n {
            t.insert(k, k * 3);
        }
        assert!(t.dir.read().global_depth > 1, "no directory growth");
        for k in 0..n {
            assert_eq!(t.get(k), Some(k * 3), "key {k} lost in splits");
        }
    }

    #[test]
    fn matches_oracle() {
        let t = eadr_table();
        let mut oracle = HashMap::new();
        let mut rng = 3u64;
        for i in 0..20_000u64 {
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
    fn concurrent_inserts_and_reads() {
        let t = Arc::new(eadr_table());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let k = tid * 100_000 + i;
                        t.insert(k, k ^ 0xF0F0);
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..4000u64 {
                let k = tid * 100_000 + i;
                assert_eq!(t.get(k), Some(k ^ 0xF0F0), "lost {k}");
            }
        }
    }

    #[test]
    fn eadr_crash_preserves_everything() {
        let t = eadr_table();
        for k in 0..5000 {
            t.insert(k, k + 9);
        }
        let heap2 = Arc::new(NvmHeap::from_image(t.heap().crash()));
        let t2 = Spash::recover(heap2, Arc::new(Htm::new(HtmConfig::for_tests())));
        for k in 0..5000 {
            assert_eq!(t2.get(k), Some(k + 9), "eADR key {k} lost");
        }
    }

    #[test]
    fn adr_crash_loses_unflushed_data() {
        // The motivating failure: Spash on a volatile-cache machine.
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20)));
        let t = Spash::new(
            Arc::clone(&heap),
            Arc::new(Htm::new(HtmConfig::for_tests())),
        );
        for k in 0..100 {
            t.insert(k, k);
        }
        let img = heap.crash();
        // Hot (never-flushed) data must be missing from the media image:
        // the crash image and the live volatile image differ somewhere.
        let mut differs = false;
        for w in 0..img.len_words() as u64 {
            if img.word(NvmAddr(w)) != heap.word(NvmAddr(w)).load(Ordering::Relaxed) {
                differs = true;
                break;
            }
        }
        assert!(differs, "ADR crash unexpectedly preserved all Spash state");
    }
}
