//! Plush: the write-optimized, log-structured persistent hash table
//! (Vogel et al., VLDB 2022).
//!
//! A DRAM *root level* absorbs writes; when a root bucket overflows, the
//! root is merged into the first NVM level, whose buckets spill into a
//! geometrically larger second NVM level, and so on. Failure atomicity
//! comes from a write-ahead log: **every update appends a log record and
//! persists it before returning** — the critical-path cost that makes
//! Plush slower than buffered designs in Fig. 6, and the contention point
//! under skewed workloads. Lookups consult per-level Bloom filters.
//!
//! Simplifications (DESIGN.md): two NVM levels with chained overflow
//! blocks at the deepest level (the original grows levels indefinitely);
//! per-level locking is a single merge mutex (the original locks
//! per-bucket). Both preserve the performance-relevant traits: log
//! persistence per update and downward spills.

use crate::hash64;
use htm_sim::sync::Mutex;
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Block tag for Plush NVM level buckets.
pub const PLUSH_BKT_TAG: u64 = 0x504C_5553; // "PLUS"
/// Block tag for Plush log blocks.
pub const PLUSH_LOG_TAG: u64 = 0x504C_4C47; // "PLLG"

/// Root slots for the persisted log generation.
const ROOT_PLUSH_MAGIC: u64 = 12;
const ROOT_PLUSH_GEN: u64 = 13;
const PLUSH_MAGIC: u64 = 0x606C_7573;

/// Tombstone value marking deletions.
const TOMB: u64 = u64::MAX;

/// Root-level geometry.
const L0_BUCKETS: usize = 64;
const L0_CAP: usize = 16;
/// NVM levels: level i has `L0_BUCKETS * FANOUT^(i+1)` buckets.
const FANOUT: usize = 8;
const NVM_LEVELS: usize = 2;

/// NVM bucket block (class 3): payload `[level, index, count, pairs...]`.
const B_META: u64 = 0; // level | (index << 8)
const B_NEXT: u64 = 1; // overflow chain
const B_COUNT: u64 = 2;
const B_PAIRS: u64 = 3;
const B_PAYLOAD: u64 = 124;
const B_CAP: u64 = (B_PAYLOAD - B_PAIRS) / 2; // 60 pairs

/// Log block (class 3): payload `[gen, count, pad, (key, value)...]` —
/// entries share the bucket layout (pairs from word [`B_PAIRS`]).
const LOG_GEN: u64 = 0;
const LOG_COUNT: u64 = 1;
const LOG_CAP: u64 = B_CAP;

struct Bloom {
    bits: Vec<AtomicU64>,
}

impl Bloom {
    fn new(slots: usize) -> Self {
        Self {
            bits: (0..(slots / 32).max(16))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    #[inline]
    fn idx(&self, h: u64) -> (usize, u64, usize, u64) {
        let n = self.bits.len() as u64 * 64;
        let a = h % n;
        let b = (h >> 21) % n;
        (
            (a / 64) as usize,
            1 << (a % 64),
            (b / 64) as usize,
            1 << (b % 64),
        )
    }

    fn set(&self, h: u64) {
        let (i, m, j, n) = self.idx(h);
        self.bits[i].fetch_or(m, Ordering::Relaxed);
        self.bits[j].fetch_or(n, Ordering::Relaxed);
    }

    fn maybe(&self, h: u64) -> bool {
        let (i, m, j, n) = self.idx(h);
        self.bits[i].load(Ordering::Relaxed) & m != 0
            && self.bits[j].load(Ordering::Relaxed) & n != 0
    }
}

struct NvmLevel {
    /// Head block of each bucket chain.
    buckets: Vec<NvmAddr>,
    bloom: Bloom,
}

/// The log-structured hash table.
/// A thread's active log block and its entry cursor.
type LogCursor = Mutex<Option<(NvmAddr, u64)>>;

pub struct Plush {
    heap: Arc<NvmHeap>,
    alloc: Arc<PAlloc>,
    /// DRAM root level.
    l0: Vec<Mutex<Vec<(u64, u64)>>>,
    levels: Mutex<Vec<NvmLevel>>,
    /// Per-thread active log block + entry cursor.
    logs: Box<[LogCursor]>,
    /// Current log generation (entries of older generations are already
    /// reflected in the NVM levels).
    gen: AtomicU64,
    merge_lock: Mutex<()>,
}

impl Plush {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        let alloc = Arc::new(PAlloc::new(Arc::clone(&heap)));
        heap.write(heap.root(ROOT_PLUSH_MAGIC), PLUSH_MAGIC);
        heap.write(heap.root(ROOT_PLUSH_GEN), 1);
        heap.persist_range(heap.root(ROOT_PLUSH_MAGIC), 2);
        heap.fence();
        let mut levels = Vec::new();
        let mut n = L0_BUCKETS * FANOUT;
        for _ in 0..NVM_LEVELS {
            levels.push(NvmLevel {
                buckets: vec![NvmAddr::NULL; n],
                bloom: Bloom::new(n * 64),
            });
            n *= FANOUT;
        }
        Self {
            heap,
            alloc,
            l0: (0..L0_BUCKETS).map(|_| Mutex::new(Vec::new())).collect(),
            levels: Mutex::new(levels),
            logs: (0..htm_sim::max_threads())
                .map(|_| Mutex::new(None))
                .collect(),
            gen: AtomicU64::new(1),
            merge_lock: Mutex::new(()),
        }
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    /// Appends a log record and persists it — the critical-path cost.
    fn log_append(&self, key: u64, value: u64) {
        let tid = htm_sim::thread_id();
        let mut slot = self.logs[tid].lock();
        let (blk, used) = match slot.take() {
            Some((b, u)) if u < LOG_CAP => (b, u),
            _ => {
                let b = self.alloc.alloc_persisted(B_PAYLOAD);
                Header::set_tag(&self.heap, b, PLUSH_LOG_TAG);
                Header::set_epoch(&self.heap, b, 0);
                self.heap.write(
                    b.offset(HDR_WORDS + LOG_GEN),
                    self.gen.load(Ordering::Acquire),
                );
                self.heap.write(b.offset(HDR_WORDS + LOG_COUNT), 0);
                self.heap.persist_range(b, HDR_WORDS + B_PAIRS);
                self.heap.fence();
                (b, 0)
            }
        };
        let e = b_entry(blk, used);
        self.heap.write(e, key);
        self.heap.write(e.offset(1), value);
        self.heap.persist_range(e, 2); // a pair may straddle a line
        self.heap.write(blk.offset(HDR_WORDS + LOG_COUNT), used + 1);
        self.heap.clwb(blk.offset(HDR_WORDS + LOG_COUNT));
        self.heap.fence();
        *slot = Some((blk, used + 1));
    }

    /// Inserts or updates. Durable (via the log) on return.
    pub fn insert(&self, key: u64, value: u64) {
        assert_ne!(value, TOMB, "u64::MAX is the tombstone sentinel");
        self.log_append(key, value);
        self.root_put(key, value);
    }

    /// Removes `key` (tombstone insert). Durable on return.
    pub fn remove(&self, key: u64) {
        self.log_append(key, TOMB);
        self.root_put(key, TOMB);
    }

    fn root_put(&self, key: u64, value: u64) {
        let h = hash64(key);
        let mut overflow = false;
        {
            let mut b = self.l0[(h as usize) % L0_BUCKETS].lock();
            if let Some(p) = b.iter_mut().find(|p| p.0 == key) {
                p.1 = value;
            } else {
                b.push((key, value));
                overflow = b.len() > L0_CAP;
            }
        }
        if overflow {
            self.merge_root();
        }
    }

    /// The value of `key`, if present (newest level wins).
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        {
            let b = self.l0[(h as usize) % L0_BUCKETS].lock();
            if let Some(p) = b.iter().find(|p| p.0 == key) {
                return (p.1 != TOMB).then_some(p.1);
            }
        }
        let levels = self.levels.lock();
        for (li, level) in levels.iter().enumerate() {
            if !level.bloom.maybe(h) {
                continue;
            }
            let idx = (h as usize) % level.buckets.len();
            let mut blk = level.buckets[idx];
            let _ = li;
            // Chained blocks: newest appends are at the end, so remember
            // the last match found anywhere in the chain.
            let mut newest = None;
            while !blk.is_null() {
                let count = self.heap.read(blk.offset(HDR_WORDS + B_COUNT));
                for i in 0..count {
                    let e = b_entry(blk, i);
                    if self.heap.read(e) == key {
                        newest = Some(self.heap.read(e.offset(1)));
                    }
                }
                blk = NvmAddr(self.heap.read(blk.offset(HDR_WORDS + B_NEXT)));
            }
            if let Some(v) = newest {
                return (v != TOMB).then_some(v);
            }
        }
        None
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Merges the whole DRAM root into NVM level 0 and truncates the log
    /// (bumping the persisted generation).
    fn merge_root(&self) {
        let _g = self.merge_lock.lock();
        // Re-check: a concurrent merge may have already drained us.
        let total: usize = self.l0.iter().map(|b| b.lock().len()).sum();
        if total < L0_BUCKETS * L0_CAP / 2 {
            return;
        }
        // Drain the root and re-insert while *holding the levels lock*:
        // a lookup that misses the (drained) root must then block on the
        // levels lock and observe the appended pairs — otherwise there is
        // a window where a present key is in neither place.
        {
            let mut levels = self.levels.lock();
            let mut pairs = Vec::with_capacity(total);
            for b in self.l0.iter() {
                pairs.append(&mut b.lock());
            }
            for (key, value) in pairs {
                self.level_append(&mut levels, 0, key, value);
            }
        }
        self.heap.fence();
        // Log truncation: bump the persisted generation; entries of older
        // generations are now reflected in the levels.
        let g = self.gen.fetch_add(1, Ordering::AcqRel) + 1;
        self.heap.write(self.heap.root(ROOT_PLUSH_GEN), g);
        self.heap.clwb(self.heap.root(ROOT_PLUSH_GEN));
        self.heap.fence();
        // Retire every thread's active log block (stale generation).
        for slot in self.logs.iter() {
            if let Some((blk, _)) = slot.lock().take() {
                self.alloc.free(blk);
            }
        }
    }

    fn level_append(&self, levels: &mut [NvmLevel], li: usize, key: u64, value: u64) {
        let h = hash64(key);
        let idx = (h as usize) % levels[li].buckets.len();
        let mut blk = levels[li].buckets[idx];
        // Find the tail of the chain and its free space; count chain
        // length to trigger spilling.
        let mut chain = 0;
        let mut tail = NvmAddr::NULL;
        while !blk.is_null() {
            chain += 1;
            tail = blk;
            blk = NvmAddr(self.heap.read(blk.offset(HDR_WORDS + B_NEXT)));
        }
        if chain >= 2 && li + 1 < levels.len() {
            // Spill this bucket one level down, then retry the append.
            self.spill_bucket(levels, li, idx);
            return self.level_append(levels, li, key, value);
        }
        let target = if !tail.is_null() && self.heap.read(tail.offset(HDR_WORDS + B_COUNT)) < B_CAP
        {
            tail
        } else {
            let b = self.alloc.alloc_persisted(B_PAYLOAD);
            Header::set_tag(&self.heap, b, PLUSH_BKT_TAG);
            Header::set_epoch(&self.heap, b, 0);
            self.heap.write(
                b.offset(HDR_WORDS + B_META),
                li as u64 | ((idx as u64) << 8),
            );
            self.heap.write(b.offset(HDR_WORDS + B_NEXT), 0);
            self.heap.write(b.offset(HDR_WORDS + B_COUNT), 0);
            self.heap.persist_range(b, HDR_WORDS + B_PAIRS);
            if tail.is_null() {
                levels[li].buckets[idx] = b;
            } else {
                self.heap.write(tail.offset(HDR_WORDS + B_NEXT), b.0);
                self.heap.clwb(tail.offset(HDR_WORDS + B_NEXT));
            }
            b
        };
        let count = self.heap.read(target.offset(HDR_WORDS + B_COUNT));
        let e = b_entry(target, count);
        self.heap.write(e, key);
        self.heap.write(e.offset(1), value);
        self.heap.persist_range(e, 2); // a pair may straddle a line
        self.heap
            .write(target.offset(HDR_WORDS + B_COUNT), count + 1);
        self.heap.clwb(target.offset(HDR_WORDS + B_COUNT));
        levels[li].bloom.set(h);
    }

    /// Rehashes one bucket chain of level `li` into level `li + 1`.
    fn spill_bucket(&self, levels: &mut [NvmLevel], li: usize, idx: usize) {
        let mut pairs = Vec::new();
        let mut blk = levels[li].buckets[idx];
        let mut to_free = Vec::new();
        while !blk.is_null() {
            let count = self.heap.read(blk.offset(HDR_WORDS + B_COUNT));
            for i in 0..count {
                let e = b_entry(blk, i);
                pairs.push((self.heap.read(e), self.heap.read(e.offset(1))));
            }
            to_free.push(blk);
            blk = NvmAddr(self.heap.read(blk.offset(HDR_WORDS + B_NEXT)));
        }
        levels[li].buckets[idx] = NvmAddr::NULL;
        // Keep only the newest version of each key (later entries win).
        let mut newest: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (k, v) in pairs {
            newest.insert(k, v);
        }
        for (k, v) in newest {
            self.level_append(levels, li + 1, k, v);
        }
        self.heap.fence();
        for b in to_free {
            self.alloc.free(b);
        }
    }

    /// Post-crash recovery: rebuilds levels and Blooms from bucket
    /// blocks, then replays current-generation log entries into the root.
    pub fn recover(heap: Arc<NvmHeap>) -> Plush {
        assert_eq!(heap.read(heap.root(ROOT_PLUSH_MAGIC)), PLUSH_MAGIC);
        let gen = heap.read(heap.root(ROOT_PLUSH_GEN));
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let alloc = Arc::new(alloc);

        let mut levels = Vec::new();
        let mut n = L0_BUCKETS * FANOUT;
        for _ in 0..NVM_LEVELS {
            levels.push(NvmLevel {
                buckets: vec![NvmAddr::NULL; n],
                bloom: Bloom::new(n * 64),
            });
            n *= FANOUT;
        }
        // Re-chain bucket blocks by (level, index); B_NEXT pointers are
        // persisted, so follow heads only: a head is a block nobody links
        // to.
        let mut linked: std::collections::HashSet<u64> = Default::default();
        let mut bkts = Vec::new();
        for b in &blocks {
            if b.tag == PLUSH_BKT_TAG {
                bkts.push(b.addr);
                let nxt = heap.read(b.addr.offset(HDR_WORDS + B_NEXT));
                if nxt != 0 {
                    linked.insert(nxt);
                }
            }
        }
        for &addr in &bkts {
            if linked.contains(&addr.0) {
                continue; // interior of a chain
            }
            let meta = heap.read(addr.offset(HDR_WORDS + B_META));
            let li = (meta & 0xFF) as usize;
            let idx = (meta >> 8) as usize;
            if li < levels.len() && idx < levels[li].buckets.len() {
                levels[li].buckets[idx] = addr;
                // Rebuild the Bloom filter from chain contents.
                let mut blk = addr;
                while !blk.is_null() {
                    let count = heap.read(blk.offset(HDR_WORDS + B_COUNT));
                    for i in 0..count {
                        let k = heap.read(b_entry(blk, i));
                        levels[li].bloom.set(hash64(k));
                    }
                    blk = NvmAddr(heap.read(blk.offset(HDR_WORDS + B_NEXT)));
                }
            }
        }

        let t = Plush {
            heap: Arc::clone(&heap),
            alloc: Arc::clone(&alloc),
            l0: (0..L0_BUCKETS).map(|_| Mutex::new(Vec::new())).collect(),
            levels: Mutex::new(levels),
            logs: (0..htm_sim::max_threads())
                .map(|_| Mutex::new(None))
                .collect(),
            gen: AtomicU64::new(gen),
            merge_lock: Mutex::new(()),
        };
        // Replay current-generation log entries (the DRAM root was lost).
        for b in &blocks {
            if b.tag != PLUSH_LOG_TAG {
                continue;
            }
            let g = heap.read(b.addr.offset(HDR_WORDS + LOG_GEN));
            if g != gen {
                alloc.free(b.addr);
                continue;
            }
            let count = heap.read(b.addr.offset(HDR_WORDS + LOG_COUNT)).min(LOG_CAP);
            for i in 0..count {
                let e = b_entry(b.addr, i);
                let k = heap.read(e);
                let v = heap.read(e.offset(1));
                t.root_put(k, v);
            }
            alloc.free(b.addr);
        }
        t
    }
}

/// Entry `i` of a pairs-block payload (log or bucket): two words per pair
/// starting after the per-kind header words (both kinds use offset 2-3).
#[inline]
fn b_entry(blk: NvmAddr, i: u64) -> NvmAddr {
    blk.offset(HDR_WORDS + B_PAIRS + 2 * i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;
    use std::collections::HashMap;

    fn table() -> Plush {
        Plush::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20))))
    }

    #[test]
    fn basic_semantics() {
        let t = table();
        t.insert(4, 40);
        assert_eq!(t.get(4), Some(40));
        t.insert(4, 41);
        assert_eq!(t.get(4), Some(41));
        t.remove(4);
        assert_eq!(t.get(4), None);
    }

    #[test]
    fn spills_preserve_data() {
        let t = table();
        let n = 30_000u64;
        for k in 0..n {
            t.insert(k, k + 1);
        }
        for k in 0..n {
            assert_eq!(t.get(k), Some(k + 1), "key {k} lost in a spill");
        }
    }

    #[test]
    fn matches_oracle() {
        let t = table();
        let mut oracle = HashMap::new();
        let mut rng = 8u64;
        for i in 0..15_000u64 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = rng % 2048;
            match rng % 3 {
                0 => {
                    t.insert(key, i);
                    oracle.insert(key, i);
                }
                1 => {
                    t.remove(key);
                    oracle.remove(&key);
                }
                _ => assert_eq!(t.get(key), oracle.get(&key).copied(), "get({key})"),
            }
        }
    }

    #[test]
    fn crash_recovery_replays_the_log() {
        let t = table();
        for k in 0..2000 {
            t.insert(k, k * 2);
        }
        t.remove(7);
        let heap2 = Arc::new(NvmHeap::from_image(t.heap().crash()));
        let t2 = Plush::recover(heap2);
        for k in 0..2000 {
            if k == 7 {
                assert_eq!(t2.get(k), None, "removed key resurrected");
            } else {
                assert_eq!(t2.get(k), Some(k * 2), "logged insert {k} lost");
            }
        }
    }

    #[test]
    fn log_is_persisted_per_update() {
        let t = table();
        t.insert(0, 0); // warm log block
        let before = t.heap().stats().snapshot();
        t.insert(1, 1);
        let delta = t.heap().stats().snapshot().since(&before);
        assert!(
            delta.flushes >= 2,
            "log append must flush: {}",
            delta.flushes
        );
        assert!(delta.fences >= 1);
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
                        t.insert(k, k + 2);
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..3000u64 {
                let k = tid * 1_000_000 + i;
                assert_eq!(t.get(k), Some(k + 2), "lost {k}");
            }
        }
    }
}
