//! PHTM-vEB: the buffered-durable van Emde Boas tree (§4.1).
//!
//! The DRAM index is exactly [`HtmVeb`](crate::HtmVeb)'s; leaf slots hold
//! pointers to KV blocks in NVM managed by the epoch system. Every write
//! operation follows the Listing 1 strategy through
//! [`bdhtm_core::OpGuard`]: preallocate outside the transaction, claim
//! the block's epoch inside it, update in place, replace, or raise
//! `OldSeeNewException` by the existing block's epoch, and defer
//! persistence and reclamation until after commit. The tree supplies
//! only the index search and link. After a crash, the index is rebuilt
//! by scanning the live KV blocks.

use crate::index::{AllocCtx, VebIndex};
use bdhtm_core::{
    kv_block_key, live_keys_sorted, run_op, CommitEffects, EpochSys, LiveBlock, OpStep,
    PreallocSlots, Upsert, KV_UNIVERSE_BITS, KV_VALUE, KV_WORDS,
};
use htm_sim::{AbortCause, FallbackLock, Htm, MemAccess, PlainAccess, TxResult};
use nvm_sim::NvmAddr;
use std::ops::Range;
use std::sync::Arc;

/// Block tag identifying PHTM-vEB key-value pairs in recovery scans.
pub const VEB_KV_TAG: u64 = 0x7EB0_4B56; // "vEB KV"

const NO_ABORT: &str = "plain access never aborts";

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
    /// (§5.2): filters blocks tagged [`VEB_KV_TAG`] and re-inserts their
    /// keys, in key order, into a fresh DRAM index.
    ///
    /// The tree is a local here — nobody else can reach it before this
    /// returns — so every insert is plain stores ([`PlainAccess`]): no
    /// transaction, nothing to conflict with. `threads` cuts the sorted
    /// keys into runs of whole root clusters; with one run the rebuild is
    /// one in-order pass. A key writes the root only when it is the
    /// minimum, the maximum or the first key stored in its root cluster,
    /// so with several runs this thread inserts those keys first. Then
    /// each run's worker inserts the rest of its clusters, which lands
    /// below the root. Run 0 is this thread's; only the others spawn.
    pub fn recover(
        universe_bits: u32,
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
        threads: usize,
    ) -> PhtmVeb {
        let tree = PhtmVeb::new(universe_bits, esys, htm);
        let mine = live_keys_sorted(tree.esys.heap(), live, VEB_KV_TAG);
        let (index, n) = (&tree.index, mine.len());
        let insert = |pairs: &[(u64, u64)]| {
            let ctx = AllocCtx::default();
            for &(key, blk) in pairs {
                index
                    .insert_tx(&mut PlainAccess, key, blk, &ctx)
                    .expect(NO_ABORT);
                index.commit_attempt(&ctx);
            }
        };
        // Where each root cluster's keys start (a single-leaf root is one
        // cluster); a run is a range of clusters, cut as evenly as whole
        // clusters allow.
        let mut starts = Vec::new();
        let mut s = 0;
        while s < n {
            starts.push(s);
            let c = index.root_cluster(mine[s].0);
            s += mine[s..].partition_point(|&(k, _)| index.root_cluster(k) == c);
        }
        let threads = threads.max(1);
        let mut runs = Vec::new();
        let mut first = 0;
        for w in 1..=threads {
            let end = starts.partition_point(|&s| s < n * w / threads);
            if end > first {
                runs.push(first..end);
                first = end;
            }
        }
        if runs.len() <= 1 {
            insert(&mine);
            return tree;
        }
        // The root pass, before any spawn: the minimum (the root's own),
        // the next key (the first stored in a cluster), each cluster's
        // first key and the maximum.
        let mut root: Vec<_> = [0, 1, n - 1]
            .iter()
            .chain(&starts)
            .map(|&i| mine[i])
            .collect();
        root.sort_unstable();
        root.dedup();
        insert(&root);
        let below_root = |clusters: Range<usize>| {
            for c in clusters {
                let lo = (starts[c] + 1).max(2);
                let hi = starts.get(c + 1).map_or(n, |&e| e).min(n - 1);
                if lo < hi {
                    insert(&mine[lo..hi]);
                }
            }
        };
        let below_root = &below_root;
        std::thread::scope(|s| {
            let mut runs = runs.into_iter();
            let first = runs.next().expect("two runs or more");
            for run in runs {
                s.spawn(move || below_root(run));
            }
            below_root(first);
        });
        tree
    }

    /// Structural invariant check for the fault-injection harness: walks
    /// the index in key order and cross-checks every slot against its
    /// NVM block — allocated, tagged [`VEB_KV_TAG`], a valid (claimed,
    /// not-from-the-future) epoch, and a key word matching the index
    /// position. Call while quiescent, e.g. right after recovery.
    pub fn validate(&self) -> Result<(), String> {
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
            let k = kv_block_key(heap, blk, VEB_KV_TAG, clock)
                .map_err(|e| format!("key {key}: {e}"))?;
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
recover: |esys, htm, live, threads| {
    PhtmVeb::recover(KV_UNIVERSE_BITS, esys, htm, live, threads)
});

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

    /// Crashes a tree holding `keys` (all durable), rebuilds it at one
    /// worker and at `threads`, and checks that neither rebuild runs a
    /// transaction, both validate, and both hold exactly `keys`.
    fn rebuilds_agree(bits: u32, keys: &[u64], threads: usize) {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(4 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        let t = PhtmVeb::new(bits, esys, Arc::new(Htm::new(HtmConfig::for_tests())));
        for &k in keys {
            t.insert(k, k + 1);
        }
        t.epoch_sys().advance();
        t.epoch_sys().advance();
        let heap = Arc::new(NvmHeap::from_image(t.epoch_sys().heap().crash()));
        let (esys, live) = EpochSys::recover(heap, EpochConfig::manual(), 1);
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
