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
//!
//! The DRAM index answers most of a probe by itself. A slot word packs
//! the KV block's address (bits 0–47) with a 16-bit fingerprint, the key
//! hash's own bits 48–63 (disjoint from the segment-index bits and the
//! bucket bits 32–37), so a probe loads a block's key only when the
//! fingerprint matches. And every bucket's occupied slots form a prefix
//! — `remove` moves the bucket's last entry into the hole it leaves — so
//! a probe stops at the first empty slot.

use crate::hash64;
use crate::hotspot::HotspotDetector;
use bdhtm_core::{
    payload, run_op, CommitEffects, EpochSys, OpStep, PreallocSlots, Upsert, KV_KEY, KV_VALUE,
};
use htm_sim::sync::RwLock;
use htm_sim::{FallbackLock, Htm, MemAccess, TxResult};
use nvm_sim::NvmAddr;
use persist_alloc::class_for_payload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod recovery;

/// Block tag identifying BD-Spash KV blocks.
pub const BDSPASH_KV_TAG: u64 = 0x4244_5350; // "BDSP"

/// DRAM segment geometry: 64 buckets of 8 slots.
const NBUCKETS: usize = 64;
const BUCKET_SLOTS: usize = 8;

/// Slot words keep the block address in their low `ADDR_BITS` bits and
/// the fingerprint above them; 0 is an empty slot.
const ADDR_BITS: u32 = 48;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;

/// A value block counts as "large" (eagerly persisted when cold) from
/// this size class upward (256 B = one XPLine).
const LARGE_CLASS: usize = 2;

/// One bucket of slot words; its occupied slots are a prefix.
type Bucket = [AtomicU64; BUCKET_SLOTS];

/// The slot word of `blk` holding a key whose hash is `h`: the hash's
/// top 16 bits stay in place as the fingerprint.
#[inline]
fn slot_word(blk: NvmAddr, h: u64) -> u64 {
    (h & !ADDR_MASK) | blk.0
}

#[inline]
fn slot_blk(word: u64) -> NvmAddr {
    NvmAddr(word & ADDR_MASK)
}

/// Whether a slot word's fingerprint matches hash `h`.
#[inline]
fn fingerprint_matches(word: u64, h: u64) -> bool {
    (word ^ h) >> ADDR_BITS == 0
}

#[inline]
fn bucket_of(h: u64) -> usize {
    ((h >> 32) as usize) % NBUCKETS
}

/// The smallest `n` keys (from 1, ascending) with distinct fingerprints
/// that share key 1's bucket at directory depth 1 (the first 8 fit it).
pub fn keys_in_one_bucket(n: usize) -> Vec<u64> {
    let target = hash64(1);
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    for k in 1.. {
        if keys.len() == n {
            break;
        }
        let h = hash64(k);
        let fresh = keys.iter().all(|&o| (hash64(o) ^ h) >> ADDR_BITS != 0);
        if h & 1 == target & 1 && bucket_of(h) == bucket_of(target) && fresh {
            keys.push(k);
        }
    }
    keys
}

/// Where a probe found a key, or where it stopped.
enum Probe {
    /// Slot index within the bucket, and the key's block.
    Hit(usize, NvmAddr),
    /// Absent; the bucket's occupied prefix is this many slots long.
    Miss(usize),
}

struct Segment {
    local_depth: u32,
    buckets: Box<[Bucket; NBUCKETS]>,
}

impl Segment {
    fn boxed(local_depth: u32) -> Arc<Segment> {
        Arc::new(Segment {
            local_depth,
            buckets: Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| AtomicU64::new(0))
            })),
        })
    }
}

struct Directory {
    global_depth: u32,
    segments: Vec<Arc<Segment>>,
}

impl Directory {
    fn segment(&self, h: u64) -> &Arc<Segment> {
        &self.segments[(h & ((1 << self.global_depth) - 1)) as usize]
    }

    /// The bucket hash `h` selects, borrowed from the directory.
    fn bucket(&self, h: u64) -> &Bucket {
        &self.segment(h).buckets[bucket_of(h)]
    }
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
        assert!(
            esys.heap().capacity_words() <= 1 << ADDR_BITS,
            "BD-Spash slot words hold {ADDR_BITS}-bit block addresses"
        );
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
            new_blk: PreallocSlots::new(KV_VALUE + value_words),
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

    /// Whether this table's KV blocks are "large" (eager-persist class).
    fn blocks_are_large(&self) -> bool {
        class_for_payload(KV_VALUE + self.value_words)
            .map(|c| c >= LARGE_CLASS)
            .unwrap_or(false)
    }

    /// Transactional probe of `bucket` for `key` (hash `h`): walks the
    /// occupied prefix and loads a block's key only on a fingerprint
    /// match.
    fn probe<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        bucket: &'e Bucket,
        h: u64,
        key: u64,
    ) -> TxResult<Probe> {
        for (i, slot) in bucket.iter().enumerate() {
            let word = m.load(slot)?;
            if word == 0 {
                return Ok(Probe::Miss(i));
            }
            if fingerprint_matches(word, h) {
                let blk = slot_blk(word);
                if m.load(self.esys.heap().word(payload(blk, KV_KEY)))? == key {
                    return Ok(Probe::Hit(i, blk));
                }
            }
        }
        Ok(Probe::Miss(BUCKET_SLOTS))
    }

    /// The body of [`get`](Self::get)'s transaction: the first value
    /// word of `key`, if `bucket` holds it.
    fn lookup<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        bucket: &'e Bucket,
        h: u64,
        key: u64,
    ) -> TxResult<Option<u64>> {
        match self.probe(m, bucket, h, key)? {
            Probe::Hit(_, blk) => Ok(Some(self.esys.p_get(m, blk, KV_VALUE)?)),
            Probe::Miss(_) => Ok(None),
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
            let blk = op.blk();
            op.fill(key, value, BDSPASH_KV_TAG);
            for w in 1..self.value_words {
                heap.word(payload(blk, KV_VALUE + w))
                    .store(value.rotate_left(w as u32), Ordering::Release);
            }

            let dir = self.dir.read();
            let bucket = dir.bucket(h);
            let result = self.htm.run(&self.lock, |m| {
                op.claim(m)?;
                match self.probe(m, bucket, h, key)? {
                    Probe::Hit(i, old) => op
                        .update(m, old, value, |m| m.store(&bucket[i], slot_word(blk, h)))
                        .map(Some),
                    Probe::Miss(len) if len < BUCKET_SLOTS => {
                        m.store(&bucket[len], slot_word(blk, h))?;
                        Ok(Some(Upsert::Inserted))
                    }
                    // A full bucket: split, then retry.
                    Probe::Miss(_) => Ok(None),
                }
            });
            drop(dir);
            let Some(upsert) = result? else {
                return OpStep::restart_after(move || self.split(h));
            };

            // The §4.3 persistence policy: a large cold block is written
            // back right after commit (freeing cache and spreading NVM
            // bandwidth; the epoch flusher skips it), everything else
            // rides the epoch buffers (the coalescing argument).
            // Recovery visibility is gated by the epoch frontier either
            // way. A large block updated in place may have been
            // persisted eagerly and skipped by the flusher, so it is
            // tracked again for the new value to reach media.
            let fx = upsert.effects(blk);
            OpStep::commit(match upsert {
                Upsert::InPlace(old) if self.blocks_are_large() => fx.track(old),
                Upsert::Inserted | Upsert::Replaced(_) if !hot && self.blocks_are_large() => {
                    fx.persist_now(blk)
                }
                _ => fx,
            })
        })
    }

    /// Removes `key`. Returns `true` if present.
    pub fn remove(&self, key: u64) -> bool {
        let h = hash64(key);
        self.hotspot.touch(h);
        run_op(&self.esys, None, |op| {
            let dir = self.dir.read();
            let bucket = dir.bucket(h);
            let removed = self.htm.run(&self.lock, |m| {
                let Probe::Hit(i, blk) = self.probe(m, bucket, h, key)? else {
                    return Ok(None);
                };
                op.check_remove(m, blk)?;
                // Keep the occupied slots a prefix: the bucket's last
                // entry moves into the hole (0 if the hole is the last).
                let (mut last, mut moved) = (i, 0);
                for (j, slot) in bucket.iter().enumerate().skip(i + 1) {
                    let word = m.load(slot)?;
                    if word == 0 {
                        break;
                    }
                    (last, moved) = (j, word);
                }
                m.store(&bucket[i], moved)?;
                if last != i {
                    // The moved entry is in two slots until the next store.
                    htm_sim::chaos::point("bdspash::remove_move");
                    m.store(&bucket[last], 0)?;
                }
                Ok(Some(blk))
            });
            drop(dir);
            OpStep::commit(match removed? {
                None => CommitEffects::of(false),
                Some(blk) => CommitEffects::of(true).retire(blk),
            })
        })
    }

    /// The first value word of `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        self.hotspot.touch(h);
        let dir = self.dir.read();
        let bucket = dir.bucket(h);
        let r = self
            .htm
            .run(&self.lock, |m| self.lookup(m, bucket, h, key))
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
    /// local depth has reached the global depth. Entries keep their slot
    /// words and are appended in order, so every bucket stays a prefix.
    fn split(&self, h: u64) {
        let heap = self.esys.heap();
        let mut dir = self.dir.write();
        let old = Arc::clone(dir.segment(h));
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
        for (bucket, slots) in old.buckets.iter().enumerate() {
            let mut lens = [0usize; 2];
            for slot in slots {
                let word = slot.load(Ordering::Acquire);
                if word == 0 {
                    break;
                }
                let k = heap
                    .word(payload(slot_blk(word), KV_KEY))
                    .load(Ordering::Acquire);
                let half = (hash64(k) >> ld) as usize & 1;
                let tgt = if half == 0 { &a } else { &b };
                tgt.buckets[bucket][lens[half]].store(word, Ordering::Release);
                lens[half] += 1;
            }
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
}

bdhtm_core::impl_bdl_kv!(BdSpash, name: "bd-spash", tag: BDSPASH_KV_TAG,
    new: BdSpash::new,
    recover: |esys, htm, live, _threads| BdSpash::recover(esys, htm, live));

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

    /// Records the address of every word a transaction body loads.
    struct Loads<'a, 'e> {
        inner: &'a mut dyn MemAccess<'e>,
        seen: Vec<*const AtomicU64>,
    }

    impl<'e> MemAccess<'e> for Loads<'_, 'e> {
        fn load(&mut self, cell: &'e AtomicU64) -> TxResult<u64> {
            self.seen.push(cell);
            self.inner.load(cell)
        }
        fn store(&mut self, cell: &'e AtomicU64, val: u64) -> TxResult<()> {
            self.inner.store(cell, val)
        }
        fn abort(&mut self, code: u8) -> htm_sim::Abort {
            self.inner.abort(code)
        }
        fn is_txn(&self) -> bool {
            self.inner.is_txn()
        }
    }

    /// The bucket of `key`, held past the directory guard.
    fn bucket_of_key(t: &BdSpash, key: u64) -> (Arc<Segment>, usize) {
        let h = hash64(key);
        (Arc::clone(t.dir.read().segment(h)), bucket_of(h))
    }

    #[test]
    fn a_probe_loads_only_the_block_it_returns() {
        let t = setup();
        let heap = t.esys.heap();
        let keys = keys_in_one_bucket(BUCKET_SLOTS + 1);
        let (&absent, keys) = keys.split_last().unwrap();
        let (seg, b) = bucket_of_key(&t, absent);
        let bucket = &seg.buckets[b];
        let get_loads = |key: u64| {
            let h = hash64(key);
            t.htm
                .run(&t.lock, |m| {
                    let mut rec = Loads {
                        inner: m,
                        seen: Vec::new(),
                    };
                    Ok((t.lookup(&mut rec, bucket, h, key)?, rec.seen))
                })
                .unwrap()
        };
        let slots = |n: usize| -> Vec<*const AtomicU64> {
            bucket[..n].iter().map(|s| s as *const AtomicU64).collect()
        };
        for n in 1..=BUCKET_SLOTS {
            assert!(t.insert(keys[n - 1], n as u64));
            for (i, &k) in keys[..n].iter().enumerate() {
                // A hit: the slots up to the key's, then its key and
                // value words, and no other block's.
                let blk = slot_blk(bucket[i].load(Ordering::Relaxed));
                let mut want = slots(i + 1);
                want.push(heap.word(payload(blk, KV_KEY)));
                want.push(heap.word(payload(blk, KV_VALUE)));
                assert_eq!(
                    get_loads(k),
                    (Some(i as u64 + 1), want),
                    "hit on slot {i} of {n}"
                );
            }
            // A miss: the occupied prefix and the empty slot ending it.
            let want = slots((n + 1).min(BUCKET_SLOTS));
            assert_eq!(get_loads(absent), (None, want), "miss in a bucket of {n}");
        }
    }

    #[test]
    fn remove_moves_the_last_entry_into_the_hole() {
        let last = BUCKET_SLOTS - 1;
        for victim in [0, BUCKET_SLOTS / 2, last] {
            let t = setup();
            let keys = keys_in_one_bucket(BUCKET_SLOTS);
            for &k in &keys {
                assert!(t.insert(k, k + 1));
            }
            assert_eq!(t.dir.read().global_depth, 1, "a full bucket does not split");
            assert!(t.remove(keys[victim]));
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(t.get(k), (i != victim).then_some(k + 1), "key {i} of 8");
            }
            let (seg, b) = bucket_of_key(&t, keys[0]);
            let word = |i: usize| seg.buckets[b][i].load(Ordering::Relaxed);
            assert_eq!(word(last), 0, "the last slot empties");
            if victim != last {
                let moved = payload(slot_blk(word(victim)), KV_KEY);
                let moved = t.esys.heap().word(moved).load(Ordering::Relaxed);
                assert_eq!(moved, keys[last], "the last entry fills the hole");
            }
            t.validate().expect("a packed bucket after remove");
        }
    }

    #[test]
    fn validate_rejects_a_wrong_fingerprint_and_a_hole() {
        let t = setup();
        let keys = keys_in_one_bucket(3);
        for &k in &keys {
            t.insert(k, k);
        }
        t.validate().expect("three packed entries");
        let (seg, b) = bucket_of_key(&t, keys[0]);
        let slot = &seg.buckets[b][1];
        let word = slot.load(Ordering::Relaxed);
        slot.store(word ^ (1 << ADDR_BITS), Ordering::Relaxed);
        let err = t.validate().unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        slot.store(0, Ordering::Relaxed);
        let err = t.validate().unwrap_err();
        assert!(err.contains("slot 2 occupied after empty slot 1"), "{err}");
        slot.store(word, Ordering::Relaxed);
        t.validate().expect("restored");
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
