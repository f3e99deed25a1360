//! PHTM-vEB: the buffered-durable van Emde Boas tree (§4.1).
//!
//! The DRAM index is exactly [`HtmVeb`](crate::HtmVeb)'s; leaf slots hold
//! pointers to KV blocks in NVM managed by the epoch system. Every write
//! operation follows the Listing 1 strategy through
//! [`bdhtm_core::OpGuard`]: preallocate outside the transaction, claim
//! the block's epoch inside it, update in place, replace, or raise
//! `OldSeeNewException` by the existing block's epoch, and defer
//! persistence and reclamation until after commit. The tree supplies
//! only the index search and link. After a crash, the index is filled
//! bottom-up from the live KV blocks, sorted by key.

use crate::index::{AllocCtx, VebIndex};
use bdhtm_core::{
    kv_block_key, live_keys_sorted, run_op, CommitEffects, EpochSys, LiveBlock, OpStep,
    PreallocSlots, Upsert, KV_UNIVERSE_BITS, KV_VALUE, KV_WORDS,
};
use htm_sim::{AbortCause, FallbackLock, Htm, MemAccess, TxResult};
use nvm_sim::NvmAddr;
use std::sync::Arc;

/// Block tag identifying PHTM-vEB key-value pairs in recovery scans.
pub const VEB_KV_TAG: u64 = 0x7EB0_4B56; // "vEB KV"

/// Keys whose NVM blocks [`PhtmVeb::validate`] checks in one loop.
const BLOCK_BATCH: usize = 1024;

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
            new_blk: PreallocSlots::new(KV_WORDS),
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
        run_op(&self.esys, Some(&self.new_blk), |op| {
            let blk = op.blk();
            op.fill(key, value, VEB_KV_TAG);
            let ctx = AllocCtx::default();
            let result = self.htm.run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| {
                    self.index.recycle_attempt(&ctx);
                    op.claim(m)?;
                    match self.index.get_tx(m, key)? {
                        Some(slot) => op.update(m, NvmAddr(slot), value, |m| {
                            self.index.insert_tx(m, key, blk.0, &ctx).map(drop)
                        }),
                        None => {
                            self.index.insert_tx(m, key, blk.0, &ctx)?;
                            Ok(Upsert::Inserted)
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
                Ok(upsert) => {
                    self.index.commit_attempt(&ctx);
                    OpStep::commit(upsert.effects(blk))
                }
            }
        })
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u64) -> bool {
        run_op(&self.esys, None, |op| {
            let removed = self.htm.run_hooked(
                &self.lock,
                &mut |m: &mut dyn MemAccess| match self.index.get_tx(m, key)? {
                    None => Ok(None),
                    Some(slot) => {
                        let blk = NvmAddr(slot);
                        op.check_remove(m, blk)?;
                        self.index.remove_tx(m, key)?;
                        Ok(Some(blk))
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

    /// One lookup transaction: `find` locates a `(key, slot)` in the
    /// index, and the value is read from the slot's KV block in NVM
    /// inside the same transaction (lookups need no epoch registration:
    /// they modify nothing and TL2 opacity protects them from
    /// concurrent reclamation).
    fn read<'s>(
        &'s self,
        key: u64,
        mut find: impl FnMut(&mut dyn MemAccess<'s>) -> TxResult<Option<(u64, u64)>>,
    ) -> Option<(u64, u64)> {
        let r = self
            .htm
            .run_hooked(
                &self.lock,
                &mut |m| match find(m)? {
                    None => Ok(None),
                    Some((k, slot)) => Ok(Some((k, self.esys.p_get(m, NvmAddr(slot), KV_VALUE)?))),
                },
                self.hook(key),
            )
            .expect("lookups raise no explicit aborts");
        if r.is_some() {
            self.esys.heap().charge_media_read();
        }
        r
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.read(key, |m| Ok(self.index.get_tx(m, key)?.map(|s| (key, s))))
            .map(|(_, v)| v)
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
        self.read(key, |m| self.index.successor_tx(m, key))
    }

    /// Largest `(key, value)` strictly smaller than `key`.
    pub fn predecessor(&self, key: u64) -> Option<(u64, u64)> {
        self.read(key, |m| self.index.predecessor_tx(m, key))
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
    /// (§5.2): takes the blocks tagged [`VEB_KV_TAG`] sorted by key and
    /// fills a fresh DRAM index from them bottom-up, each node written
    /// once — the tree that inserting the keys in ascending order builds.
    ///
    /// The tree is a local here — nobody else can reach it before this
    /// returns — so the fill is plain stores: no transaction, nothing to
    /// conflict with. With `threads > 1` this thread writes the root's
    /// `min`, `max` and summary, and it and up to `threads - 1` spawned
    /// workers fill disjoint runs of whole root clusters.
    pub fn recover(
        universe_bits: u32,
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
        threads: usize,
    ) -> PhtmVeb {
        let tree = PhtmVeb::new(universe_bits, esys, htm);
        let pairs = live_keys_sorted(tree.esys.heap(), live, VEB_KV_TAG);
        tree.index.bulk_fill(&pairs, threads);
        tree
    }

    /// Structural invariant check for the fault-injection harness: one
    /// in-order walk of the index that checks its structure (child
    /// widths, each node's `min` below its clusters and `max` its last
    /// key, summaries naming exactly the non-empty clusters), in strictly
    /// ascending key order. Every 1,024 keys it cross-checks
    /// their NVM blocks in one tight loop, so the block reads overlap
    /// rather than wait behind the walk's pointer chase: allocated,
    /// tagged [`VEB_KV_TAG`], a valid (claimed, not-from-the-future)
    /// epoch, and a key word matching the index position. Call while
    /// quiescent, e.g. right after recovery.
    pub fn validate(&self) -> Result<(), String> {
        let heap = self.esys.heap();
        let clock = self.esys.current_epoch();
        let check = |batch: &mut Vec<(u64, u64)>| {
            for &(key, slot) in batch.iter() {
                let k = kv_block_key(heap, NvmAddr(slot), VEB_KV_TAG, clock)
                    .map_err(|e| format!("key {key}: {e}"))?;
                if k != key {
                    return Err(format!("index key {key} points at block holding key {k}"));
                }
            }
            batch.clear();
            Ok(())
        };
        let mut batch = Vec::with_capacity(BLOCK_BATCH);
        let mut prev: Option<u64> = None;
        self.index.walk_checked(&mut |key, slot| {
            if prev.is_some_and(|p| key <= p) {
                return Err(format!("validate: key order violated at {key}"));
            }
            prev = Some(key);
            batch.push((key, slot));
            if batch.len() == BLOCK_BATCH {
                check(&mut batch)?;
            }
            Ok(())
        })?;
        check(&mut batch)
    }
}

// The generic BDL face: fault sweeps, benches, and the conformance
// suite drive PHTM-vEB through this impl with a `KV_UNIVERSE_BITS`
// universe and single-threaded recovery.
bdhtm_core::impl_bdl_kv!(PhtmVeb, name: "phtm-veb", tag: VEB_KV_TAG,
new: |esys, htm| PhtmVeb::new(KV_UNIVERSE_BITS, esys, htm),
recover: |esys, htm, live, threads| {
    PhtmVeb::recover(KV_UNIVERSE_BITS, esys, htm, live, threads)
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use bdhtm_core::EpochConfig;
    use htm_sim::HtmConfig;
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// The recovered epoch system and live blocks of a crashed `bits`-bit
    /// tree that held `keys` (all durable), each mapped to `key + 1`.
    fn crashed(bits: u32, keys: &[u64]) -> (Arc<EpochSys>, Vec<LiveBlock>) {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        let t = PhtmVeb::new(bits, esys, Arc::new(Htm::new(HtmConfig::for_tests())));
        for &k in keys {
            t.insert(k, k + 1);
        }
        t.epoch_sys().advance();
        t.epoch_sys().advance();
        let heap = Arc::new(NvmHeap::from_image(t.epoch_sys().heap().crash()));
        EpochSys::recover(heap, EpochConfig::manual(), 1)
    }

    /// Crashes a tree holding `keys` (all durable), rebuilds it at one
    /// worker and at `threads`, and checks that neither rebuild runs a
    /// transaction, both validate, and both hold exactly `keys`.
    fn rebuilds_agree(bits: u32, keys: &[u64], threads: usize) {
        let (esys, live) = crashed(bits, keys);
        let rebuild = |threads: usize| {
            let htm = Arc::new(Htm::new(HtmConfig::for_tests()));
            let t = PhtmVeb::recover(bits, Arc::clone(&esys), Arc::clone(&htm), &live, threads);
            assert_eq!(htm.stats().snapshot().attempts(), 0, "{threads} workers");
            t.validate()
                .unwrap_or_else(|e| panic!("{threads} workers: {e}"));
            t.range(0, 1 << bits)
        };
        let mut want: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 1)).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(rebuild(1), want, "1 worker");
        assert_eq!(rebuild(threads), want, "{threads} workers");
    }

    #[test]
    fn split_rebuild_edge_cases() {
        // Fewer records than workers, down to none.
        for n in 0..4u64 {
            let keys: Vec<u64> = (0..n).map(|i| i * 20_011 + 5).collect();
            rebuilds_agree(16, &keys, 4);
        }
        rebuilds_agree(16, &[0, 300, 600, 900, 1200], 8);
        // Every key in one root cluster (256 keys each at 16 bits), with
        // and without the minimum in it.
        rebuilds_agree(16, &(256..512).collect::<Vec<_>>(), 4);
        rebuilds_agree(16, &[3, 1000, 1001, 1017, 1023], 4);
        // A single-leaf root: every key writes the root.
        rebuilds_agree(6, &(0..64).step_by(3).collect::<Vec<_>>(), 4);
        // Cuts between, and inside, runs of full clusters.
        rebuilds_agree(16, &(0..3000).collect::<Vec<_>>(), 4);
        let scattered: Vec<u64> = (1..2000u64).map(|i| (i * 7919) % (1 << 16)).collect();
        for threads in [2, 3, 7] {
            rebuilds_agree(16, &scattered, threads);
        }
    }

    #[test]
    fn validate_rejects_a_malformed_index() {
        // 12 bits: the root's clusters and its summary are 6-bit leaves.
        // Every cluster holds keys except cluster 40.
        let keys: Vec<u64> = (5..1 << 12).step_by(23).filter(|k| k >> 6 != 40).collect();
        let (esys, live) = crashed(12, &keys);
        let t = PhtmVeb::recover(
            12,
            esys,
            Arc::new(Htm::new(HtmConfig::for_tests())),
            &live,
            1,
        );
        t.validate().expect("the recovered tree is well formed");
        let Node::Internal(root) = t.index.root_node() else {
            panic!("a 12-bit root is internal");
        };
        let leaf = |ptr: &AtomicU64| {
            // SAFETY: a non-null node pointer of a live index; the index
            // is not dropped before the test ends.
            match unsafe { &*(ptr.load(Ordering::Relaxed) as *const Node) } {
                Node::Leaf(l) => l,
                Node::Internal(_) => panic!("a 12-bit root has leaf children"),
            }
        };
        // Sets each word to its bad value, requires an `Err` naming
        // `needle`, and restores the tree.
        let rejects = |what: &str, needle: &str, changes: &[(&AtomicU64, u64)]| {
            let old: Vec<u64> = changes
                .iter()
                .map(|&(w, bad)| w.swap(bad, Ordering::Relaxed))
                .collect();
            let verdict = t.validate();
            for (&(w, _), v) in changes.iter().zip(old).rev() {
                w.store(v, Ordering::Relaxed);
            }
            let err = verdict.expect_err(&format!("validate() accepts {what}"));
            assert!(err.contains(needle), "{what}: {err}");
            t.validate()
                .unwrap_or_else(|e| panic!("restored after {what}: {e}"));
        };
        let summary = &leaf(&root.summary).bits;
        let named = summary.load(Ordering::Relaxed);
        assert_eq!(named, !(1 << 40), "clusters 0..64 but 40 hold keys");
        rejects(
            "a summary missing a non-empty cluster",
            "summary",
            &[(summary, named & !(1 << 7))],
        );
        rejects(
            "a summary naming an empty cluster",
            "summary",
            &[(summary, !0)],
        );
        // The minimum (key 5) stored again in cluster 0, beside 28 and 51:
        // the walk hands key 5 over twice before the node's own check.
        let c0 = leaf(&root.clusters[0]);
        let min_val = root.min_val.load(Ordering::Relaxed);
        let c0_bits = c0.bits.load(Ordering::Relaxed);
        rejects(
            "a minimum not below its clusters' keys",
            "key order violated at 5",
            &[(&c0.bits, c0_bits | 1 << 5), (&c0.values[5], min_val)],
        );
        let max = root.max.load(Ordering::Relaxed);
        rejects("a stale maximum", "max", &[(&root.max, max + 1)]);
        let root_ptr = t.index.root_node() as *const Node as u64;
        rejects(
            "a cluster pointing up at the root",
            "not the 6-bit node",
            &[(&root.clusters[40], root_ptr)],
        );
        let c1 = leaf(&root.clusters[1]);
        let b = c1.bits.load(Ordering::Relaxed).trailing_zeros() as usize;
        let other = c1.values[b].load(Ordering::Relaxed);
        rejects(
            "a slot pointing at a block holding another key",
            "points at block holding key",
            &[(&c0.values[28], other)],
        );
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
