//! PHTM-vEB: the buffered-durable van Emde Boas tree (§4.1).
//!
//! The DRAM index is exactly [`HtmVeb`](crate::HtmVeb)'s; leaf slots hold
//! pointers to KV blocks in NVM managed by the epoch system. Every write
//! operation follows the Listing 1 strategy: preallocate outside the
//! transaction, claim the block's epoch inside it, classify updates
//! against the block's epoch (in-place / replace / `OldSeeNewException`),
//! and defer persistence and reclamation until after commit. After a
//! crash, the index is rebuilt by scanning the live KV blocks.

use crate::index::{AllocCtx, VebIndex};
use bdhtm_core::{
    live_keys_sorted, payload, run_op, CommitEffects, EpochSys, LiveBlock, OpStep, PreallocSlots,
    UpdateKind, KV_UNIVERSE_BITS, OLD_SEE_NEW,
};
use htm_sim::{AbortCause, FallbackLock, Htm, MemAccess, PlainAccess};
use nvm_sim::NvmAddr;
use persist_alloc::Header;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Block tag identifying PHTM-vEB key-value pairs in recovery scans.
pub const VEB_KV_TAG: u64 = 0x7EB0_4B56; // "vEB KV"

/// Payload layout of a KV block: `[key, value]`.
const P_KEY: u64 = 0;
const P_VAL: u64 = 1;
const KV_PAYLOAD_WORDS: u64 = 2;

const NO_ABORT: &str = "plain access never aborts";

enum WriteOutcome {
    Inserted,
    Replaced(NvmAddr),
    InPlace,
}

/// The buffered durably linearizable vEB tree.
pub struct PhtmVeb {
    index: VebIndex,
    esys: Arc<EpochSys>,
    htm: Arc<Htm>,
    lock: FallbackLock,
    /// Per-thread preallocated KV block (`new_blk` in Listing 1).
    new_blk: PreallocSlots,
    /// §4.1 MEMTYPE mitigation toggle.
    pub prewalk_on_memtype: bool,
}

impl PhtmVeb {
    /// Creates an empty tree over `[0, 2^universe_bits)` on the given
    /// epoch system.
    pub fn new(universe_bits: u32, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        Self {
            index: VebIndex::new(universe_bits),
            esys,
            htm,
            lock: FallbackLock::new(),
            new_blk: PreallocSlots::new(KV_PAYLOAD_WORDS),
            prewalk_on_memtype: true,
        }
    }

    pub fn universe_bits(&self) -> u32 {
        self.index.ubits
    }

    pub fn htm(&self) -> &Htm {
        &self.htm
    }

    pub fn epoch_sys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    /// DRAM consumed by index nodes (Table 3).
    pub fn dram_bytes(&self) -> u64 {
        self.index.dram_bytes()
    }

    /// NVM consumed by live + retired-pending blocks (Table 3, Fig. 8).
    pub fn nvm_bytes(&self) -> u64 {
        self.esys.alloc_stats().bytes_in_use()
    }

    fn hook(&self, key: u64) -> impl FnMut(AbortCause) + '_ {
        let prewalk = self.prewalk_on_memtype;
        move |cause| {
            if prewalk && cause == AbortCause::MemType {
                self.index.prewalk(key);
                htm_sim::suppress_memtype_once();
            }
        }
    }

    /// Inserts or updates `key → value`. Returns `true` if the key was
    /// newly inserted. The operation is linearizable immediately and
    /// durable once its epoch is two behind the clock.
    pub fn insert(&self, key: u64, value: u64) -> bool {
        let heap = self.esys.heap();
        run_op(&self.esys, Some(&self.new_blk), |op| {
            let (blk, op_epoch) = (op.blk(), op.epoch());
            // Initialize the (private) block: key and value.
            heap.word(payload(blk, P_KEY)).store(key, Ordering::Release);
            heap.word(payload(blk, P_VAL))
                .store(value, Ordering::Release);
            Header::set_tag(heap, blk, VEB_KV_TAG);

            let ctx = AllocCtx::default();
            let result = self.htm.run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| {
                    self.index.recycle_attempt(&ctx);
                    // Claim the preallocated block for this epoch before
                    // the linearization point (Listing 1 line 17).
                    self.esys.set_epoch(m, blk, op_epoch)?;
                    match self.index.get_tx(m, key)? {
                        Some(slot) => {
                            let old_blk = NvmAddr(slot);
                            match self.esys.classify_update(m, old_blk, op_epoch)? {
                                UpdateKind::InPlace => {
                                    self.esys.p_set(m, old_blk, P_VAL, value)?;
                                    Ok(WriteOutcome::InPlace)
                                }
                                UpdateKind::Replace => {
                                    self.index.insert_tx(m, key, blk.0, &ctx)?;
                                    Ok(WriteOutcome::Replaced(old_blk))
                                }
                            }
                        }
                        None => {
                            self.index.insert_tx(m, key, blk.0, &ctx)?;
                            Ok(WriteOutcome::Inserted)
                        }
                    }
                },
                self.hook(key),
            );
            match result {
                Err(e) => {
                    // Any DRAM nodes speculatively allocated by the failed
                    // attempt must be recycled before the retry.
                    self.index.recycle_attempt(&ctx);
                    Err(e)
                }
                Ok(outcome) => {
                    self.index.commit_attempt(&ctx);
                    OpStep::commit(match outcome {
                        WriteOutcome::InPlace => CommitEffects::of(false).keep_prealloc(),
                        WriteOutcome::Replaced(old) => {
                            CommitEffects::of(false).retire(old).track(blk)
                        }
                        WriteOutcome::Inserted => CommitEffects::of(true).track(blk),
                    })
                }
            }
        })
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u64) -> bool {
        run_op(&self.esys, None, |op| {
            let op_epoch = op.epoch();
            let removed = self.htm.run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| {
                    match self.index.get_tx(m, key)? {
                        None => Ok(None),
                        Some(slot) => {
                            let blk = NvmAddr(slot);
                            // BDL forbids an old operation destroying
                            // newer state: epoch check before any write.
                            let be = self.esys.get_epoch(m, blk)?;
                            if be > op_epoch {
                                return Err(m.abort(OLD_SEE_NEW));
                            }
                            self.index.remove_tx(m, key)?;
                            Ok(Some(blk))
                        }
                    }
                },
                self.hook(key),
            )?;
            OpStep::commit(match removed {
                None => CommitEffects::of(false),
                Some(blk) => CommitEffects::of(true).retire(blk),
            })
        })
    }

    /// The value of `key`, if present. Reads the KV block from NVM inside
    /// the transaction (lookups need no epoch registration: they modify
    /// nothing and TL2 opacity protects them from concurrent
    /// reclamation).
    pub fn get(&self, key: u64) -> Option<u64> {
        let r = self
            .htm
            .run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| match self.index.get_tx(m, key)? {
                    None => Ok(None),
                    Some(slot) => Ok(Some(self.esys.p_get(m, NvmAddr(slot), P_VAL)?)),
                },
                self.hook(key),
            )
            .expect("lookups raise no explicit aborts");
        if r.is_some() {
            self.esys.heap().charge_media_read();
        }
        r
    }

    /// Whether `key` is present (index-only, no NVM read).
    pub fn contains(&self, key: u64) -> bool {
        self.htm
            .run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| Ok(self.index.get_tx(m, key)?.is_some()),
                self.hook(key),
            )
            .expect("lookups raise no explicit aborts")
    }

    /// Smallest `(key, value)` strictly greater than `key`.
    pub fn successor(&self, key: u64) -> Option<(u64, u64)> {
        let r = self
            .htm
            .run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| match self.index.successor_tx(m, key)? {
                    None => Ok(None),
                    Some((k, slot)) => Ok(Some((k, self.esys.p_get(m, NvmAddr(slot), P_VAL)?))),
                },
                self.hook(key),
            )
            .expect("lookups raise no explicit aborts");
        if r.is_some() {
            self.esys.heap().charge_media_read();
        }
        r
    }

    /// Largest `(key, value)` strictly smaller than `key`.
    pub fn predecessor(&self, key: u64) -> Option<(u64, u64)> {
        let r = self
            .htm
            .run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| match self.index.predecessor_tx(m, key)? {
                    None => Ok(None),
                    Some((k, slot)) => Ok(Some((k, self.esys.p_get(m, NvmAddr(slot), P_VAL)?))),
                },
                self.hook(key),
            )
            .expect("lookups raise no explicit aborts");
        if r.is_some() {
            self.esys.heap().charge_media_read();
        }
        r
    }

    /// All `(key, value)` pairs in `[lo, hi)`.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cur = match self.get(lo) {
            Some(v) => Some((lo, v)),
            None => self.successor(lo),
        };
        while let Some((k, v)) = cur {
            if k >= hi {
                break;
            }
            out.push((k, v));
            cur = self.successor(k);
        }
        out
    }

    /// Rebuilds a tree from the live blocks of a recovered epoch system
    /// (§5.2): filters blocks tagged [`VEB_KV_TAG`] and re-inserts their
    /// keys, in key order, into a fresh DRAM index.
    ///
    /// The tree is a local here — nobody else can reach it before this
    /// returns — so with one thread the inserts are plain stores
    /// ([`PlainAccess`]): no transaction, nothing to conflict with. With
    /// `threads > 1` the workers do share it, and each inserts its slice
    /// of the key range in hardware transactions (the paper's 20-thread
    /// recovery).
    pub fn recover(
        universe_bits: u32,
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
        threads: usize,
    ) -> PhtmVeb {
        let tree = PhtmVeb::new(universe_bits, esys, htm);
        let mine = live_keys_sorted(tree.esys.heap(), live, VEB_KV_TAG, P_KEY);
        let rebuild = |part: &[(u64, u64)], shared: bool| {
            let ctx = AllocCtx::default();
            for &(key, blk) in part {
                if shared {
                    tree.htm
                        .run(&tree.lock, |m| {
                            tree.index.recycle_attempt(&ctx);
                            tree.index.insert_tx(m, key, blk, &ctx)
                        })
                        .expect("rebuild raises no explicit aborts");
                } else {
                    tree.index
                        .insert_tx(&mut PlainAccess, key, blk, &ctx)
                        .expect(NO_ABORT);
                }
                tree.index.commit_attempt(&ctx);
            }
        };
        if threads <= 1 || mine.len() < 128 {
            rebuild(&mine, false);
        } else {
            let rebuild = &rebuild;
            std::thread::scope(|s| {
                for part in mine.chunks(mine.len().div_ceil(threads)) {
                    s.spawn(move || rebuild(part, true));
                }
            });
        }
        tree
    }

    /// Reclaims the per-thread preallocated blocks (clean shutdown).
    pub fn drain_preallocated(&self) {
        self.new_blk.drain(&self.esys);
    }

    /// Structural invariant check for the fault-injection harness: walks
    /// the index in key order and cross-checks every slot against its
    /// NVM block — allocated, tagged [`VEB_KV_TAG`], a valid (claimed,
    /// not-from-the-future) epoch, and a key word matching the index
    /// position. Call while quiescent, e.g. right after recovery.
    pub fn validate(&self) -> Result<(), String> {
        use persist_alloc::BlockState;
        let heap = self.esys.heap();
        let clock = self.esys.current_epoch();
        let cap = 1u64 << self.index.ubits;
        let mut prev: Option<u64> = None;
        let mut seen = 0u64;
        let m = &mut PlainAccess; // quiescent: nothing to synchronise with
        loop {
            let next = match prev {
                None => match self.index.get_tx(m, 0).expect(NO_ABORT) {
                    Some(slot) => Some((0u64, slot)),
                    None => self.index.successor_tx(m, 0).expect(NO_ABORT),
                },
                Some(p) => self.index.successor_tx(m, p).expect(NO_ABORT),
            };
            let Some((key, slot)) = next else {
                return Ok(());
            };
            if prev.is_some_and(|p| key <= p) {
                return Err(format!("validate: key order violated at {key}"));
            }
            seen += 1;
            if seen > cap {
                return Err("validate: walk exceeded the universe (index cycle)".into());
            }
            let blk = NvmAddr(slot);
            match Header::state(heap, blk) {
                Some((BlockState::Allocated, _)) => {}
                other => {
                    return Err(format!(
                        "key {key}: block {blk:?} not allocated ({other:?})"
                    ))
                }
            }
            let tag = Header::tag(heap, blk);
            if tag != VEB_KV_TAG {
                return Err(format!("key {key}: block {blk:?} has foreign tag {tag:#x}"));
            }
            let be = Header::epoch(heap, blk);
            if be == persist_alloc::INVALID_EPOCH || be > clock {
                return Err(format!(
                    "key {key}: block {blk:?} carries invalid epoch {be} (clock {clock})"
                ));
            }
            let k = heap.word(payload(blk, P_KEY)).load(Ordering::Acquire);
            if k != key {
                return Err(format!("index key {key} points at block holding key {k}"));
            }
            prev = Some(key);
        }
    }
}

// The generic BDL face: fault sweeps, benches, and the conformance
// suite drive PHTM-vEB through this impl with a `KV_UNIVERSE_BITS`
// universe and single-threaded recovery.
bdhtm_core::impl_bdl_kv!(PhtmVeb, name: "phtm-veb", tag: VEB_KV_TAG,
    new: |esys, htm| PhtmVeb::new(KV_UNIVERSE_BITS, esys, htm),
    recover: |esys, htm, live| PhtmVeb::recover(KV_UNIVERSE_BITS, esys, htm, live, 1));

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::EpochConfig;
    use htm_sim::HtmConfig;
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::collections::BTreeMap;

    fn setup(bits: u32) -> PhtmVeb {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        PhtmVeb::new(bits, esys, Arc::new(Htm::new(HtmConfig::for_tests())))
    }

    #[test]
    fn basic_map_semantics() {
        let t = setup(14);
        assert!(t.insert(10, 100));
        assert!(!t.insert(10, 101)); // update
        assert_eq!(t.get(10), Some(101));
        assert!(t.contains(10));
        assert!(t.remove(10));
        assert!(!t.remove(10));
        assert_eq!(t.get(10), None);
    }

    #[test]
    fn successor_reads_values_from_nvm() {
        let t = setup(16);
        for k in [7u64, 70, 700, 7000] {
            t.insert(k, k + 1);
        }
        assert_eq!(t.successor(0), Some((7, 8)));
        assert_eq!(t.successor(7), Some((70, 71)));
        assert_eq!(t.predecessor(7000), Some((700, 701)));
        assert_eq!(t.range(7, 701), vec![(7, 8), (70, 71), (700, 701)]);
    }

    #[test]
    fn in_place_update_within_an_epoch() {
        let t = setup(12);
        t.insert(5, 1);
        // The first update preallocates this thread's spare block and
        // then keeps it (in-place path); from then on, same-epoch updates
        // must not allocate at all.
        t.insert(5, 2);
        let nvm_before = t.nvm_bytes();
        for v in 3..50 {
            t.insert(5, v);
        }
        assert_eq!(t.get(5), Some(49));
        assert_eq!(
            t.nvm_bytes(),
            nvm_before,
            "in-place updates must not allocate"
        );
    }

    #[test]
    fn cross_epoch_update_replaces_block() {
        let t = setup(12);
        t.insert(5, 1);
        t.epoch_sys().advance();
        t.insert(5, 2);
        assert_eq!(t.get(5), Some(2));
        // Old + new + (maybe preallocated) blocks: strictly more than one
        // KV block of NVM is held until the retirement becomes durable.
        let stats = t.epoch_sys().alloc_stats();
        assert!(stats.live_blocks[0] >= 2, "out-of-place update expected");
    }

    #[test]
    fn matches_oracle_with_epoch_advances() {
        let t = setup(12);
        let mut oracle = BTreeMap::new();
        let mut rng = 0xBEEFu64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for i in 0..8000 {
            if i % 500 == 0 {
                t.epoch_sys().advance();
            }
            let key = next() % (1 << 12);
            match next() % 4 {
                0 | 1 => {
                    let newly = t.insert(key, key + i);
                    assert_eq!(newly, oracle.insert(key, key + i).is_none());
                }
                2 => {
                    assert_eq!(t.remove(key), oracle.remove(&key).is_some());
                }
                _ => {
                    assert_eq!(t.get(key), oracle.get(&key).copied());
                    let want = oracle.range(key + 1..).next().map(|(&k, &v)| (k, v));
                    assert_eq!(t.successor(key), want);
                }
            }
        }
    }

    #[test]
    fn crash_recovers_to_a_durable_prefix() {
        let t = setup(12);
        // Epoch 2: keys 0..100.
        for k in 0..100 {
            t.insert(k, k * 2);
        }
        t.epoch_sys().advance();
        t.epoch_sys().advance(); // epoch-2 data durable
                                 // Current epoch: keys 100..200 — will be lost.
        for k in 100..200 {
            t.insert(k, k * 2);
        }
        // And remove key 3 — also lost (resurrected on recovery).
        t.remove(3);

        let img = t.epoch_sys().heap().crash();
        let heap2 = Arc::new(NvmHeap::from_image(img));
        let (esys2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 2);
        let t2 = PhtmVeb::recover(
            12,
            esys2,
            Arc::new(Htm::new(HtmConfig::for_tests())),
            &live,
            2,
        );
        for k in 0..100 {
            assert_eq!(t2.get(k), Some(k * 2), "durable key {k} lost");
        }
        for k in 100..200 {
            assert_eq!(t2.get(k), None, "undurable key {k} survived");
        }
        // Ordered queries work on the rebuilt index.
        assert_eq!(t2.successor(50), Some((51, 102)));
    }

    #[test]
    fn old_see_new_restart_makes_progress() {
        // A thread operating with a stale epoch must restart and complete.
        let t = Arc::new(setup(10));
        t.insert(1, 10);
        // Force epoch churn while another thread updates the same key.
        std::thread::scope(|s| {
            let t1 = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..2000 {
                    t1.insert(1, i);
                }
            });
            let t2 = Arc::clone(&t);
            s.spawn(move || {
                for _ in 0..40 {
                    t2.epoch_sys().advance();
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        });
        assert!(t.get(1).is_some());
    }

    #[test]
    fn works_under_full_spurious_abort_injection() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        let htm = Arc::new(Htm::new(HtmConfig::for_tests().with_spurious(1.0)));
        let t = PhtmVeb::new(10, esys, htm);
        for k in 0..100 {
            t.insert(k, k);
        }
        for k in 0..100 {
            assert_eq!(t.get(k), Some(k));
        }
    }
}
