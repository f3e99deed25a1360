//! Spash (Zhang et al., ICDE 2024): the eADR-designed HTM hash table.
//!
//! Extendible hashing over the shared NVM `SegTable`: a DRAM directory
//! of pointers to 4 KiB NVM segments of 62 one-line buckets (3 inline KV
//! pairs + an occupancy bitmap each). Operations are hardware
//! transactions over one bucket, run under the directory's read lock;
//! a worker that overflows a bucket splits its segment under the write
//! lock (§4.3: the directory update "happens quickly").
//!
//! Designed for **persistent caches**: crash consistency comes from eADR
//! (every committed cache line survives), and `clwb` is used purely as a
//! *performance* hint — the DRAM [`HotspotDetector`] flags cold keys whose
//! buckets are proactively written back, keeping cache space for hot data
//! and batching media traffic at XPLine granularity. On a plain-ADR heap
//! Spash runs but silently loses un-flushed data on a crash; that gap is
//! what [`BdSpash`](crate::BdSpash) closes. A split reads the parent with
//! plain loads, as a cached table does.
//!
//! Simplification (DESIGN.md): the original's thread-local 256 B chunks
//! for *small* cold writes are approximated by the XPLine write-combining
//! accounting of `nvm-sim`; the hot/cold proactive-flush policy itself is
//! implemented faithfully.

use crate::hash64;
use crate::hotspot::HotspotDetector;
use crate::segtable::{Bucket, SegTable, BUCKET_ENTRIES};
use htm_sim::{FallbackLock, Htm, MemAccess, TxResult};
use nvm_sim::NvmHeap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Block tag for Spash segments.
pub const SPASH_SEG_TAG: u64 = 0x5350_5348; // "SPSH"

enum Outcome {
    Done(Option<u64>),
    NeedSplit,
}

/// `scan` result: `(entry_index, value)` of a match, plus the first
/// free entry index in the bucket.
type ScanHit = (Option<(u64, u64)>, Option<u64>);

/// The eADR hash table.
pub struct Spash {
    pub(crate) table: SegTable,
    htm: Arc<Htm>,
    lock: FallbackLock,
    hotspot: HotspotDetector,
}

impl Spash {
    /// Creates a table on `heap` (normally an eADR-configured heap; see
    /// [`NvmConfig::optane_eadr`](nvm_sim::NvmConfig::optane_eadr)).
    pub fn new(heap: Arc<NvmHeap>, htm: Arc<Htm>) -> Self {
        Self::with_table(SegTable::new(heap, SPASH_SEG_TAG), htm)
    }

    fn with_table(table: SegTable, htm: Arc<Htm>) -> Self {
        Self {
            table,
            htm,
            lock: FallbackLock::new(),
            hotspot: HotspotDetector::new(1 << 16, 4),
        }
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        self.table.heap()
    }

    pub fn htm(&self) -> &Htm {
        &self.htm
    }

    /// NVM bytes held by segments.
    pub fn nvm_bytes(&self) -> u64 {
        self.table.nvm_bytes()
    }

    /// Proactive write-back of a (cold) bucket line — the Spash policy.
    fn flush_cold(&self, b: Bucket, hot: bool) {
        if !hot {
            self.heap().clwb(b.meta());
        }
    }

    /// Transactional bucket scan. Returns `(entry_index, value)` for a
    /// match, or the first free entry index.
    fn scan<'e>(&'e self, m: &mut dyn MemAccess<'e>, b: Bucket, key: u64) -> TxResult<ScanHit> {
        let heap = self.heap();
        let meta = m.load(heap.word(b.meta()))?;
        let mut free = None;
        for i in 0..BUCKET_ENTRIES {
            if meta & (1 << i) == 0 {
                if free.is_none() {
                    free = Some(i);
                }
                continue;
            }
            if m.load(heap.word(b.key(i)))? == key {
                let v = m.load(heap.word(b.value(i)))?;
                return Ok((Some((i, v)), free));
            }
        }
        Ok((None, free))
    }

    /// Inserts or updates. Returns the previous value if present.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let h = hash64(key);
        let hot = self.hotspot.touch(h);
        let heap = self.heap();
        loop {
            let dir = self.table.read();
            let b = Bucket::of(*dir.segment(h), h);
            let r = self
                .htm
                .run(&self.lock, |m| {
                    let (found, free) = self.scan(m, b, key)?;
                    match (found, free) {
                        (Some((i, old)), _) => {
                            m.store(heap.word(b.value(i)), value)?;
                            Ok(Outcome::Done(Some(old)))
                        }
                        (None, Some(i)) => {
                            let meta = m.load(heap.word(b.meta()))?;
                            m.store(heap.word(b.key(i)), key)?;
                            m.store(heap.word(b.value(i)), value)?;
                            m.store(heap.word(b.meta()), meta | (1 << i))?;
                            Ok(Outcome::Done(None))
                        }
                        (None, None) => Ok(Outcome::NeedSplit),
                    }
                })
                .expect("spash raises no explicit aborts");
            match r {
                Outcome::Done(old) => {
                    self.flush_cold(b, hot);
                    return old;
                }
                Outcome::NeedSplit => {
                    drop(dir);
                    // Segments live in persistent caches: plain loads.
                    self.table
                        .split(h, |heap, a| heap.word(a).load(Ordering::Acquire));
                }
            }
        }
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        self.hotspot.touch(h);
        let dir = self.table.read();
        let b = Bucket::of(*dir.segment(h), h);
        self.htm
            .run(&self.lock, |m| {
                let (found, _) = self.scan(m, b, key)?;
                Ok(found.map(|(_, v)| v))
            })
            .expect("spash raises no explicit aborts")
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let hot = self.hotspot.touch(h);
        let heap = self.heap();
        let dir = self.table.read();
        let b = Bucket::of(*dir.segment(h), h);
        let r = self
            .htm
            .run(&self.lock, |m| {
                let (found, _) = self.scan(m, b, key)?;
                match found {
                    None => Ok(None),
                    Some((i, v)) => {
                        let meta = m.load(heap.word(b.meta()))?;
                        m.store(heap.word(b.meta()), meta & !(1 << i))?;
                        Ok(Some(v))
                    }
                }
            })
            .expect("spash raises no explicit aborts");
        if r.is_some() {
            self.flush_cold(b, hot);
        }
        r
    }

    /// Rebuilds a Spash table from a recovered (eADR) heap.
    pub fn recover(heap: Arc<NvmHeap>, htm: Arc<Htm>) -> Spash {
        assert!(
            heap.config().eadr,
            "Spash recovery is only meaningful with persistent caches"
        );
        Self::with_table(SegTable::recover(heap, SPASH_SEG_TAG), htm)
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
    use htm_sim::HtmConfig;
    use nvm_sim::{NvmAddr, NvmConfig};
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
        assert!(t.table.read().global_depth > 1, "no directory growth");
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
