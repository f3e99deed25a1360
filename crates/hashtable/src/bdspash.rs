//! BD-Spash: the §4.3 back-port of Spash to plain-ADR machines.
//!
//! Directory and bucket metadata move to DRAM; each entry points at a KV
//! block in NVM managed by the epoch system, which supplies buffered
//! durability where eADR used to supply it for free. The hotspot detector
//! keeps its job with a new meaning: **large cold** values are written
//! back immediately (optimizing cache residency and NVM bandwidth, and
//! sparing the epoch flusher the work), while small or hot values ride
//! the epoch buffers — whose end-of-epoch batching naturally coalesces
//! adjacent writes, which is why BD-Spash drops Spash's small-write
//! chunking (§4.3). If the heap reports eADR, the epoch system disables
//! itself and BD-Spash runs Spash-style.

use crate::hash64;
use crate::hotspot::HotspotDetector;
use bdhtm_core::{
    payload, run_op, CommitEffects, EpochSys, LiveBlock, OpStep, PreallocSlots, UpdateKind,
    OLD_SEE_NEW,
};
use htm_sim::sync::RwLock;
use htm_sim::{FallbackLock, Htm, MemAccess, TxResult};
use nvm_sim::NvmAddr;
use persist_alloc::{class_for_payload, Header};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Block tag identifying BD-Spash KV blocks.
pub const BDSPASH_KV_TAG: u64 = 0x4244_5350; // "BDSP"

const P_KEY: u64 = 0;
const P_VAL: u64 = 1; // value words follow

/// DRAM segment geometry: 64 buckets of 8 slots.
const NBUCKETS: usize = 64;
const BUCKET_SLOTS: usize = 8;
const SEG_SLOTS: usize = NBUCKETS * BUCKET_SLOTS;

/// A value block counts as "large" (eagerly persisted when cold) from
/// this size class upward (256 B = one XPLine).
const LARGE_CLASS: usize = 2;

/// `scan` result: `(slot_index, block)` of a match, plus the first free
/// slot index seen on the probe path.
type ScanHit = (Option<(usize, NvmAddr)>, Option<usize>);

struct Segment {
    local_depth: u32,
    /// NVM block pointers (0 = empty).
    slots: Box<[AtomicU64; SEG_SLOTS]>,
}

impl Segment {
    fn boxed(local_depth: u32) -> Arc<Segment> {
        Arc::new(Segment {
            local_depth,
            slots: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        })
    }
}

struct Directory {
    global_depth: u32,
    segments: Vec<Arc<Segment>>,
}

enum Outcome {
    Inserted,
    Replaced(NvmAddr),
    InPlace(NvmAddr),
    Removed(NvmAddr),
    Absent,
    NeedSplit,
}

/// The buffered-durable Spash back-port.
pub struct BdSpash {
    esys: Arc<EpochSys>,
    htm: Arc<Htm>,
    lock: FallbackLock,
    dir: RwLock<Directory>,
    hotspot: HotspotDetector,
    /// Payload words per value (1 = the paper's 8-byte values; larger
    /// values exercise the large-cold eager-persist path).
    value_words: u64,
    new_blk: PreallocSlots,
}

impl BdSpash {
    pub fn new(esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        Self::with_value_words(esys, htm, 1)
    }

    /// A table whose values occupy `value_words` 8-byte words.
    pub fn with_value_words(esys: Arc<EpochSys>, htm: Arc<Htm>, value_words: u64) -> Self {
        assert!(value_words >= 1);
        Self {
            esys,
            htm,
            lock: FallbackLock::new(),
            dir: RwLock::new(Directory {
                global_depth: 1,
                segments: vec![Segment::boxed(1), Segment::boxed(1)],
            }),
            hotspot: HotspotDetector::new(1 << 16, 4),
            value_words,
            new_blk: PreallocSlots::new(1 + value_words),
        }
    }

    pub fn epoch_sys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    pub fn htm(&self) -> &Htm {
        &self.htm
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.esys.alloc_stats().bytes_in_use()
    }

    fn kv_payload_words(&self) -> u64 {
        1 + self.value_words
    }

    /// Whether this table's KV blocks are "large" (eager-persist class).
    fn blocks_are_large(&self) -> bool {
        class_for_payload(self.kv_payload_words())
            .map(|c| c >= LARGE_CLASS)
            .unwrap_or(false)
    }

    #[inline]
    fn bucket_of(h: u64) -> usize {
        ((h >> 32) as usize) % NBUCKETS
    }

    /// Transactional bucket scan over a DRAM segment.
    fn scan<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        seg: &'e Segment,
        bucket: usize,
        key: u64,
    ) -> TxResult<ScanHit> {
        let heap = self.esys.heap();
        let mut free = None;
        for i in 0..BUCKET_SLOTS {
            let idx = bucket * BUCKET_SLOTS + i;
            let blk = m.load(&seg.slots[idx])?;
            if blk == 0 {
                if free.is_none() {
                    free = Some(idx);
                }
                continue;
            }
            let k = m.load(heap.word(payload(NvmAddr(blk), P_KEY)))?;
            if k == key {
                return Ok((Some((idx, NvmAddr(blk))), free));
            }
        }
        Ok((None, free))
    }

    /// Persistence policy after a committed write: large cold blocks are
    /// flushed immediately (`persist_now` — the data reaches media right
    /// after commit, freeing cache and spreading NVM bandwidth, and the
    /// epoch flusher skips them entirely); everything else is tracked
    /// for the epoch flusher (the coalescing argument of §4.3).
    /// Visibility to recovery is still gated by the epoch frontier
    /// either way, so durability semantics are unchanged. An in-place
    /// update of an eagerly persisted block later in the same epoch
    /// re-tracks it (see the `InPlace` arm of `insert`).
    fn persist_effect<R>(&self, fx: CommitEffects<R>, blk: NvmAddr, hot: bool) -> CommitEffects<R> {
        if !hot && self.blocks_are_large() {
            fx.persist_now(blk)
        } else {
            fx.track(blk)
        }
    }

    /// Inserts or updates `key`. Returns `true` if newly inserted. The
    /// value's first word is `value`; remaining value words (if
    /// `value_words > 1`) are filled with `value` rotated (deterministic
    /// filler standing in for a payload).
    pub fn insert(&self, key: u64, value: u64) -> bool {
        let h = hash64(key);
        let hot = self.hotspot.touch(h);
        let heap = self.esys.heap();
        run_op(&self.esys, Some(&self.new_blk), |op| {
            let (blk, op_epoch) = (op.blk(), op.epoch());
            heap.word(payload(blk, P_KEY)).store(key, Ordering::Release);
            for w in 0..self.value_words {
                heap.word(payload(blk, P_VAL + w))
                    .store(value.rotate_left(w as u32), Ordering::Release);
            }
            Header::set_tag(heap, blk, BDSPASH_KV_TAG);

            let dir = self.dir.read();
            let seg = Arc::clone(&dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize]);
            let bucket = Self::bucket_of(h);
            let result = self.htm.run(&self.lock, |m| {
                self.esys.set_epoch(m, blk, op_epoch)?;
                let (found, free) = self.scan(m, &seg, bucket, key)?;
                match (found, free) {
                    (Some((_, old_blk)), _) => {
                        match self.esys.classify_update(m, old_blk, op_epoch)? {
                            UpdateKind::InPlace => {
                                self.esys.p_set(m, old_blk, P_VAL, value)?;
                                Ok(Outcome::InPlace(old_blk))
                            }
                            UpdateKind::Replace => {
                                let (idx, _) = found.unwrap();
                                m.store(&seg.slots[idx], blk.0)?;
                                Ok(Outcome::Replaced(old_blk))
                            }
                        }
                    }
                    (None, Some(idx)) => {
                        m.store(&seg.slots[idx], blk.0)?;
                        Ok(Outcome::Inserted)
                    }
                    (None, None) => Ok(Outcome::NeedSplit),
                }
            });
            drop(dir);

            match result? {
                Outcome::NeedSplit => OpStep::restart_after(move || self.split(h)),
                Outcome::InPlace(updated) => {
                    let mut fx = CommitEffects::of(false).keep_prealloc();
                    if self.blocks_are_large() {
                        // The updated block may have been eagerly
                        // persisted and skipped by the flusher:
                        // re-track so the new value reaches media.
                        fx = fx.track(updated);
                    }
                    OpStep::commit(fx)
                }
                Outcome::Replaced(old) => OpStep::commit(self.persist_effect(
                    CommitEffects::of(false).retire(old),
                    blk,
                    hot,
                )),
                Outcome::Inserted => {
                    OpStep::commit(self.persist_effect(CommitEffects::of(true), blk, hot))
                }
                _ => unreachable!(),
            }
        })
    }

    /// Removes `key`. Returns `true` if present.
    pub fn remove(&self, key: u64) -> bool {
        let h = hash64(key);
        self.hotspot.touch(h);
        run_op(&self.esys, None, |op| {
            let op_epoch = op.epoch();
            let dir = self.dir.read();
            let seg = Arc::clone(&dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize]);
            let bucket = Self::bucket_of(h);
            let result = self.htm.run(&self.lock, |m| {
                let (found, _) = self.scan(m, &seg, bucket, key)?;
                match found {
                    None => Ok(Outcome::Absent),
                    Some((idx, blk)) => {
                        let be = self.esys.get_epoch(m, blk)?;
                        if be > op_epoch {
                            return Err(m.abort(OLD_SEE_NEW));
                        }
                        m.store(&seg.slots[idx], 0)?;
                        Ok(Outcome::Removed(blk))
                    }
                }
            });
            drop(dir);
            match result? {
                Outcome::Absent => OpStep::commit(CommitEffects::of(false)),
                Outcome::Removed(blk) => OpStep::commit(CommitEffects::of(true).retire(blk)),
                _ => unreachable!(),
            }
        })
    }

    /// The first value word of `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        self.hotspot.touch(h);
        let dir = self.dir.read();
        let seg = Arc::clone(&dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize]);
        let bucket = Self::bucket_of(h);
        let r = self
            .htm
            .run(&self.lock, |m| {
                let (found, _) = self.scan(m, &seg, bucket, key)?;
                match found {
                    None => Ok(None),
                    Some((_, blk)) => Ok(Some(self.esys.p_get(m, blk, P_VAL)?)),
                }
            })
            .expect("lookups raise no explicit aborts");
        if r.is_some() {
            self.esys.heap().charge_media_read();
        }
        r
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Splits the segment covering `h`, doubling the directory when the
    /// local depth has reached the global depth.
    fn split(&self, h: u64) {
        let heap = self.esys.heap();
        let mut dir = self.dir.write();
        let mask = (1u64 << dir.global_depth) - 1;
        let idx = (h & mask) as usize;
        let old = Arc::clone(&dir.segments[idx]);
        let ld = old.local_depth;
        if ld == dir.global_depth {
            let n = dir.segments.len();
            let mut segs = Vec::with_capacity(2 * n);
            segs.extend(dir.segments.iter().cloned());
            segs.extend(dir.segments.iter().cloned());
            dir.segments = segs;
            dir.global_depth += 1;
        }
        let a = Segment::boxed(ld + 1);
        let b = Segment::boxed(ld + 1);
        for s in 0..SEG_SLOTS {
            let blk = old.slots[s].load(Ordering::Acquire);
            if blk == 0 {
                continue;
            }
            let k = heap
                .word(payload(NvmAddr(blk), P_KEY))
                .load(Ordering::Acquire);
            let hk = hash64(k);
            let tgt = if hk & (1 << ld) == 0 { &a } else { &b };
            let bucket = Self::bucket_of(hk);
            let slot = (0..BUCKET_SLOTS)
                .map(|i| bucket * BUCKET_SLOTS + i)
                .find(|&i| tgt.slots[i].load(Ordering::Relaxed) == 0)
                .expect("split target bucket overflow");
            tgt.slots[slot].store(blk, Ordering::Release);
        }
        let gd = dir.global_depth;
        for e in 0..(1usize << gd) {
            if Arc::ptr_eq(&dir.segments[e], &old) {
                dir.segments[e] = if (e as u64) & (1 << ld) == 0 {
                    Arc::clone(&a)
                } else {
                    Arc::clone(&b)
                };
            }
        }
    }

    /// Rebuilds a table from recovered live blocks.
    pub fn recover(esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock]) -> BdSpash {
        let t = BdSpash::new(esys, htm);
        let heap = Arc::clone(t.esys.heap());
        for b in live.iter().filter(|b| b.tag == BDSPASH_KV_TAG) {
            let key = heap.word(payload(b.addr, P_KEY)).load(Ordering::Acquire);
            let h = hash64(key);
            loop {
                let placed = {
                    let dir = t.dir.read();
                    let seg =
                        Arc::clone(&dir.segments[(h & ((1 << dir.global_depth) - 1)) as usize]);
                    let bucket = Self::bucket_of(h);
                    (0..BUCKET_SLOTS)
                        .map(|i| bucket * BUCKET_SLOTS + i)
                        .find(|&i| seg.slots[i].load(Ordering::Relaxed) == 0)
                        .inspect(|&i| seg.slots[i].store(b.addr.0, Ordering::Release))
                        .is_some()
                };
                if placed {
                    break;
                }
                t.split(h);
            }
        }
        t
    }

    /// Reclaims per-thread preallocated blocks (clean shutdown).
    pub fn drain_preallocated(&self) {
        self.new_blk.drain(&self.esys);
    }

    /// Structural invariant check for the fault-injection harness. Call
    /// while quiescent (e.g. right after recovery); verifies:
    ///
    /// * the directory holds `2^global_depth` entries, every segment's
    ///   local depth is at most the global depth, and all entries
    ///   sharing a segment agree with its canonical (low-bits) entry;
    /// * every occupied slot holds an allocated block tagged
    ///   [`BDSPASH_KV_TAG`] with a valid (claimed, not-from-the-future)
    ///   epoch, whose key hashes back to exactly that segment and
    ///   bucket;
    /// * no key and no block appears twice.
    pub fn validate(&self) -> Result<(), String> {
        use persist_alloc::BlockState;
        let heap = self.esys.heap();
        let clock = self.esys.current_epoch();
        let dir = self.dir.read();
        let mask = (1u64 << dir.global_depth) - 1;
        if dir.segments.len() != 1usize << dir.global_depth {
            return Err(format!(
                "validate: {} directory entries for global depth {}",
                dir.segments.len(),
                dir.global_depth
            ));
        }
        let mut entries: Vec<(u64, u64)> = Vec::new(); // (key, block)
        for (e, seg) in dir.segments.iter().enumerate() {
            if seg.local_depth > dir.global_depth {
                return Err(format!(
                    "validate: entry {e} has local depth {} > global {}",
                    seg.local_depth, dir.global_depth
                ));
            }
            let canon = e & ((1usize << seg.local_depth) - 1);
            if !Arc::ptr_eq(seg, &dir.segments[canon]) {
                return Err(format!(
                    "validate: entries {e} and {canon} disagree on a depth-{} segment",
                    seg.local_depth
                ));
            }
            if e != canon {
                continue; // scan each segment once, at its canonical entry
            }
            for idx in 0..SEG_SLOTS {
                let raw = seg.slots[idx].load(Ordering::Acquire);
                if raw == 0 {
                    continue;
                }
                let blk = NvmAddr(raw);
                match Header::state(heap, blk) {
                    Some((BlockState::Allocated, _)) => {}
                    other => {
                        return Err(format!(
                            "entry {e} slot {idx}: block {blk:?} not allocated ({other:?})"
                        ))
                    }
                }
                let tag = Header::tag(heap, blk);
                if tag != BDSPASH_KV_TAG {
                    return Err(format!(
                        "entry {e} slot {idx}: block {blk:?} has foreign tag {tag:#x}"
                    ));
                }
                let be = Header::epoch(heap, blk);
                if be == persist_alloc::INVALID_EPOCH || be > clock {
                    return Err(format!(
                        "entry {e} slot {idx}: block {blk:?} carries invalid epoch {be} \
                         (clock {clock})"
                    ));
                }
                let key = heap.word(payload(blk, P_KEY)).load(Ordering::Acquire);
                let h = hash64(key);
                if !Arc::ptr_eq(&dir.segments[(h & mask) as usize], seg) {
                    return Err(format!(
                        "key {key} stored in a segment its hash does not select"
                    ));
                }
                if idx / BUCKET_SLOTS != Self::bucket_of(h) {
                    return Err(format!(
                        "key {key} stored in bucket {} but hashes to bucket {}",
                        idx / BUCKET_SLOTS,
                        Self::bucket_of(h)
                    ));
                }
                entries.push((key, raw));
            }
        }
        // Duplicates, by sorting: equal keys end up adjacent, and since a
        // block holds one key so do two references to one block.
        entries.sort_unstable();
        for w in entries.windows(2) {
            if w[0].1 == w[1].1 {
                return Err(format!("block {:?} referenced twice", NvmAddr(w[0].1)));
            }
            if w[0].0 == w[1].0 {
                return Err(format!("key {} present twice", w[0].0));
            }
        }
        Ok(())
    }
}

bdhtm_core::impl_bdl_kv!(BdSpash, name: "bd-spash", tag: BDSPASH_KV_TAG,
    new: BdSpash::new, recover: BdSpash::recover);

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::EpochConfig;
    use htm_sim::HtmConfig;
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::collections::HashMap;

    fn setup() -> BdSpash {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        BdSpash::new(esys, Arc::new(Htm::new(HtmConfig::for_tests())))
    }

    #[test]
    fn basic_semantics() {
        let t = setup();
        assert!(t.insert(9, 90));
        assert!(!t.insert(9, 91));
        assert_eq!(t.get(9), Some(91));
        assert!(t.remove(9));
        assert!(!t.remove(9));
        assert_eq!(t.get(9), None);
    }

    #[test]
    fn grows_with_splits() {
        let t = setup();
        let n = 10_000u64;
        for k in 0..n {
            t.insert(k, k + 5);
        }
        assert!(t.dir.read().global_depth > 1);
        for k in 0..n {
            assert_eq!(t.get(k), Some(k + 5), "key {k} lost in split");
        }
        t.validate().expect("post-split invariants");
    }

    #[test]
    fn matches_oracle_with_epochs() {
        let t = setup();
        let mut oracle = HashMap::new();
        let mut rng = 17u64;
        for i in 0..12_000u64 {
            if i % 900 == 0 {
                t.epoch_sys().advance();
            }
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = rng % 4096;
            match rng % 3 {
                0 => assert_eq!(t.insert(key, i), oracle.insert(key, i).is_none()),
                1 => assert_eq!(t.remove(key), oracle.remove(&key).is_some()),
                _ => assert_eq!(t.get(key), oracle.get(&key).copied()),
            }
        }
    }

    #[test]
    fn concurrent_ops_with_splits() {
        let t = Arc::new(setup());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..5000u64 {
                        let k = tid * 1_000_000 + i;
                        t.insert(k, k + 1);
                        if i % 16 == 0 {
                            assert_eq!(t.get(k), Some(k + 1));
                        }
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..5000u64 {
                let k = tid * 1_000_000 + i;
                assert_eq!(t.get(k), Some(k + 1), "lost {k}");
            }
        }
    }

    #[test]
    fn crash_recovery_durable_prefix() {
        let t = setup();
        for k in 0..1000 {
            t.insert(k, k * 2);
        }
        t.epoch_sys().advance();
        t.epoch_sys().advance();
        for k in 1000..1200 {
            t.insert(k, k * 2); // lost
        }
        let heap2 = Arc::new(NvmHeap::from_image(t.epoch_sys().heap().crash()));
        let (esys2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 2);
        let t2 = BdSpash::recover(esys2, Arc::new(Htm::new(HtmConfig::for_tests())), &live);
        t2.validate().expect("post-recovery invariants");
        for k in 0..1000 {
            assert_eq!(t2.get(k), Some(k * 2), "durable key {k} lost");
        }
        for k in 1000..1200 {
            assert_eq!(t2.get(k), None, "undurable key {k} survived");
        }
    }

    #[test]
    fn eadr_heap_disables_epoch_tracking() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20).with_eadr(true)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        assert!(esys.is_disabled());
        let t = BdSpash::new(esys, Arc::new(Htm::new(HtmConfig::for_tests())));
        for k in 0..500 {
            t.insert(k, k);
        }
        // Everything committed survives an eADR crash, no advances needed.
        let img = t.epoch_sys().heap().crash();
        assert!(img.len_words() > 0);
        for k in 0..500 {
            assert_eq!(t.get(k), Some(k));
        }
    }

    #[test]
    fn large_values_use_eager_persist_path() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        // 40-word values → 41-word payload → class 3 (1 KiB): "large".
        let t = BdSpash::with_value_words(esys, Arc::new(Htm::new(HtmConfig::for_tests())), 40);
        assert!(t.blocks_are_large());
        let before = t.epoch_sys().heap().stats().snapshot();
        // Distinct (cold) keys: eager persistence fires per insert.
        for k in 0..50 {
            t.insert(k, k);
        }
        let delta = t.epoch_sys().heap().stats().snapshot().since(&before);
        assert!(
            delta.lines_written_back >= 50,
            "large-cold inserts should flush eagerly: {}",
            delta.lines_written_back
        );
        // And the epoch flusher has (almost) nothing left to do for them.
        let flushed_before = t.epoch_sys().stats().snapshot().blocks_persisted;
        t.epoch_sys().advance();
        t.epoch_sys().advance();
        let flushed_after = t.epoch_sys().stats().snapshot().blocks_persisted;
        assert_eq!(
            flushed_after - flushed_before,
            0,
            "eagerly persisted blocks must not be re-flushed"
        );
    }
}
