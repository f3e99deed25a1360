//! The Listing 1 hash table: the paper's reference BDL-HTM structure.
//!
//! A fixed array of DRAM buckets holds pointers to KV blocks in NVM.
//! Full buckets overflow by linear probing into subsequent buckets (the
//! paper "omits" this case; real code cannot). Each operation is one
//! hardware transaction following the preallocate / claim-epoch /
//! update-or-replace / defer-persist protocol, whose steps are
//! [`bdhtm_core::OpGuard`]'s; the table supplies its probe and slot
//! stores.

use crate::hash64;
use bdhtm_core::{
    kv_block_key, payload, run_op, CommitEffects, EpochSys, LiveBlock, OpStep, PreallocSlots,
    Upsert, KV_KEY, KV_UNIVERSE_BITS, KV_VALUE, KV_WORDS,
};
use htm_sim::{FallbackLock, Htm, MemAccess, RunError, TxResult};
use nvm_sim::NvmAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Block tag for Listing-1 KV pairs.
pub const LISTING1_KV_TAG: u64 = 0x4C31_4B56; // "L1KV"

/// Slots per bucket (Listing 1's `BUCKET_SIZE`).
pub const BUCKET_SIZE: usize = 8;
/// Buckets probed before declaring the table full.
const MAX_PROBE: usize = 16;

/// Explicit abort code raised when the probe window has no free slot.
/// Handled outside the transaction so the operation is cleanly ended
/// before the capacity error surfaces.
const TABLE_FULL: u8 = 0xF1;

/// `locate` result: `(slot_index, block)` of a match, plus the first
/// free slot index on the probe path.
type SlotHit = (Option<(usize, NvmAddr)>, Option<usize>);

/// The Listing 1 BDL hash map (fixed capacity).
pub struct BdhtHashMap {
    esys: Arc<EpochSys>,
    htm: Arc<Htm>,
    lock: FallbackLock,
    /// `n_buckets * BUCKET_SIZE` slots of NVM block pointers (0 = empty).
    slots: Box<[AtomicU64]>,
    n_buckets: usize,
    new_blk: PreallocSlots,
}

impl BdhtHashMap {
    /// Creates a table with `n_buckets` buckets of `BUCKET_SIZE` slots.
    pub fn new(n_buckets: usize, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        assert!(n_buckets.is_power_of_two());
        Self {
            esys,
            htm,
            lock: FallbackLock::new(),
            slots: (0..n_buckets * BUCKET_SIZE)
                .map(|_| AtomicU64::new(0))
                .collect(),
            n_buckets,
            new_blk: PreallocSlots::new(KV_WORDS),
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

    /// Transactionally locates `key`: `(slot_index, block)` if present,
    /// otherwise the first free slot index on the probe path.
    fn locate<'e>(&'e self, m: &mut dyn MemAccess<'e>, key: u64) -> TxResult<SlotHit> {
        let heap = self.esys.heap();
        let start = (hash64(key) as usize) & (self.n_buckets - 1);
        let mut free = None;
        for p in 0..MAX_PROBE {
            let b = (start + p) & (self.n_buckets - 1);
            for i in 0..BUCKET_SIZE {
                let idx = b * BUCKET_SIZE + i;
                let blk = m.load(&self.slots[idx])?;
                if blk == 0 {
                    if free.is_none() {
                        free = Some(idx);
                    }
                    continue;
                }
                let k = m.load(heap.word(payload(NvmAddr(blk), KV_KEY)))?;
                if k == key {
                    return Ok((Some((idx, NvmAddr(blk))), free));
                }
            }
            // A bucket with a free slot terminates the probe chain for
            // inserts only if the key cannot be further on; we keep the
            // scan simple and always probe the full window.
        }
        Ok((None, free))
    }

    /// Inserts or updates `key → value` (Listing 1). Returns `true` if
    /// the key was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the probe window is exhausted (table over-full); the
    /// Listing 1 table has no resizing, use [`BdSpash`](crate::BdSpash)
    /// for a growable table.
    pub fn insert(&self, key: u64, value: u64) -> bool {
        run_op(&self.esys, Some(&self.new_blk), |op| {
            // retry_regist:
            let blk = op.blk();
            op.fill(key, value, LISTING1_KV_TAG);

            let result = self.htm.run(&self.lock, |m| {
                op.claim(m)?;
                let (found, free) = self.locate(m, key)?;
                match found {
                    Some((idx, old)) => {
                        op.update(m, old, value, |m| m.store(&self.slots[idx], blk.0))
                    }
                    None => match free {
                        Some(idx) => {
                            m.store(&self.slots[idx], blk.0)?;
                            Ok(Upsert::Inserted)
                        }
                        // Probe window exhausted: abort explicitly so the
                        // operation can be ended *before* reporting the
                        // capacity error (a panic inside the op bracket
                        // would leave the epoch announcement set and
                        // stall every future advance).
                        None => Err(m.abort(TABLE_FULL)),
                    },
                }
            });

            // op_done:
            match result {
                Err(RunError(code)) if code == TABLE_FULL => OpStep::restart_after(|| {
                    panic!(
                        "Listing-1 table is full (fixed capacity; use BdSpash \
                         for a growable table)"
                    )
                }),
                Err(e) => Err(e),
                Ok(upsert) => OpStep::commit(upsert.effects(blk)),
            }
        })
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u64) -> bool {
        run_op(&self.esys, None, |op| {
            let removed = self.htm.run(&self.lock, |m| {
                let Some((idx, blk)) = self.locate(m, key)?.0 else {
                    return Ok(None);
                };
                op.check_remove(m, blk)?;
                m.store(&self.slots[idx], 0)?;
                Ok(Some(blk))
            });
            OpStep::commit(match removed? {
                None => CommitEffects::of(false),
                Some(blk) => CommitEffects::of(true).retire(blk),
            })
        })
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        let r = self
            .htm
            .run(&self.lock, |m| match self.locate(m, key)?.0 {
                None => Ok(None),
                Some((_, blk)) => self.esys.p_get(m, blk, KV_VALUE).map(Some),
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

    /// Rebuilds a table from recovered live blocks.
    pub fn recover(
        n_buckets: usize,
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
    ) -> BdhtHashMap {
        let t = BdhtHashMap::new(n_buckets, esys, htm);
        let heap = Arc::clone(t.esys.heap());
        for b in live.iter().filter(|b| b.tag == LISTING1_KV_TAG) {
            let key = heap.word(payload(b.addr, KV_KEY)).load(Ordering::Acquire);
            let start = (hash64(key) as usize) & (t.n_buckets - 1);
            let mut placed = false;
            'outer: for p in 0..MAX_PROBE {
                let bb = (start + p) & (t.n_buckets - 1);
                for i in 0..BUCKET_SIZE {
                    let idx = bb * BUCKET_SIZE + i;
                    if t.slots[idx].load(Ordering::Relaxed) == 0 {
                        t.slots[idx].store(b.addr.0, Ordering::Relaxed);
                        placed = true;
                        break 'outer;
                    }
                }
            }
            assert!(placed, "recovered table overflow");
        }
        t
    }

    /// Structural invariant check (call while quiescent):
    ///
    /// * every occupied slot holds an allocated block tagged
    ///   [`LISTING1_KV_TAG`] with a valid (claimed, not-from-the-future)
    ///   epoch;
    /// * the slot lies within the `MAX_PROBE` window of the bucket the
    ///   block's key hashes to;
    /// * no key and no block appears twice.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let heap = self.esys.heap();
        let clock = self.esys.current_epoch();
        let mut keys: HashSet<u64> = HashSet::new();
        let mut blocks: HashSet<u64> = HashSet::new();
        for idx in 0..self.slots.len() {
            let raw = self.slots[idx].load(Ordering::Acquire);
            if raw == 0 {
                continue;
            }
            let key = kv_block_key(heap, NvmAddr(raw), LISTING1_KV_TAG, clock)
                .map_err(|e| format!("slot {idx}: {e}"))?;
            let start = (hash64(key) as usize) & (self.n_buckets - 1);
            let dist = (idx / BUCKET_SIZE + self.n_buckets - start) & (self.n_buckets - 1);
            if dist >= MAX_PROBE {
                return Err(format!(
                    "key {key} stored {dist} buckets past its home (probe window {MAX_PROBE})"
                ));
            }
            if !keys.insert(key) {
                return Err(format!("key {key} present twice"));
            }
            if !blocks.insert(raw) {
                return Err(format!("block {:?} referenced twice", NvmAddr(raw)));
            }
        }
        Ok(())
    }
}

bdhtm_core::impl_bdl_kv!(BdhtHashMap, name: "listing1-bdht", tag: LISTING1_KV_TAG,
new: |esys, htm| BdhtHashMap::new(1 << KV_UNIVERSE_BITS, esys, htm),
recover: |esys, htm, live, _threads| {
    BdhtHashMap::recover(1 << KV_UNIVERSE_BITS, esys, htm, live)
});

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::EpochConfig;
    use htm_sim::HtmConfig;
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::collections::HashMap;

    fn setup() -> BdhtHashMap {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        BdhtHashMap::new(1 << 10, esys, Arc::new(Htm::new(HtmConfig::for_tests())))
    }

    #[test]
    fn basic_semantics() {
        let t = setup();
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 11));
        assert_eq!(t.get(1), Some(11));
        assert!(t.remove(1));
        assert!(!t.remove(1));
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn matches_oracle_with_epochs() {
        let t = setup();
        let mut oracle = HashMap::new();
        let mut rng = 5u64;
        for i in 0..8000u64 {
            if i % 600 == 0 {
                t.epoch_sys().advance();
            }
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = rng % 2048;
            match rng % 3 {
                0 => assert_eq!(t.insert(key, i), oracle.insert(key, i).is_none()),
                1 => assert_eq!(t.remove(key), oracle.remove(&key).is_some()),
                _ => assert_eq!(t.get(key), oracle.get(&key).copied()),
            }
        }
    }

    #[test]
    fn concurrent_ops_with_ticker() {
        use bdhtm_core::EpochTicker;
        use std::time::Duration;
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20)));
        let esys = EpochSys::format(
            heap,
            EpochConfig::manual().with_epoch_len(Duration::from_millis(2)),
        );
        let t = Arc::new(BdhtHashMap::new(
            1 << 12,
            Arc::clone(&esys),
            Arc::new(Htm::new(HtmConfig::for_tests())),
        ));
        let ticker = EpochTicker::spawn(esys);
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let mut rng = tid + 91;
                    for _ in 0..4000 {
                        rng ^= rng >> 12;
                        rng ^= rng << 25;
                        rng ^= rng >> 27;
                        let k = rng % 4096;
                        match rng % 3 {
                            0 => {
                                t.insert(k, k * 7);
                            }
                            1 => {
                                t.remove(k);
                            }
                            _ => {
                                if let Some(v) = t.get(k) {
                                    assert_eq!(v, k * 7);
                                }
                            }
                        }
                    }
                });
            }
        });
        ticker.stop();
    }

    #[test]
    fn crash_recovery_keeps_durable_prefix() {
        let t = setup();
        for k in 0..300 {
            t.insert(k, k + 1);
        }
        t.epoch_sys().advance();
        t.epoch_sys().advance();
        for k in 300..400 {
            t.insert(k, k + 1); // lost
        }
        t.remove(5); // lost

        let heap2 = Arc::new(NvmHeap::from_image(t.epoch_sys().heap().crash()));
        let (esys2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
        let t2 = BdhtHashMap::recover(
            1 << 10,
            esys2,
            Arc::new(Htm::new(HtmConfig::for_tests())),
            &live,
        );
        for k in 0..300 {
            assert_eq!(t2.get(k), Some(k + 1), "durable key {k} lost");
        }
        for k in 300..400 {
            assert_eq!(t2.get(k), None, "undurable key {k} survived");
        }
    }

    #[test]
    fn bucket_overflow_probes_to_neighbours() {
        // Tiny table: force collisions.
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        let t = BdhtHashMap::new(2, esys, Arc::new(Htm::new(HtmConfig::for_tests())));
        for k in 0..2 * BUCKET_SIZE as u64 {
            assert!(t.insert(k, k));
        }
        for k in 0..2 * BUCKET_SIZE as u64 {
            assert_eq!(t.get(k), Some(k));
        }
    }
}
