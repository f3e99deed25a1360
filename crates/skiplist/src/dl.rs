//! DL-Skiplist: the strictly durable lock-free skiplist (Wang et al.
//! style), plus the Fig. 5 ablation variants selected by [`PersistMode`].
//!
//! Everything — towers included — lives in NVM. Towers are linked and
//! unlinked atomically with one multi-word CAS over all levels; in
//! [`PersistMode::Strict`] that CAS is the fully persistent PMwCAS and
//! every node is flushed before it becomes reachable, so the structure
//! is durably linearizable: a crashed operation is rolled forward or
//! backward by [`DlSkiplist::recover`].

use crate::{random_level, MAX_LEVEL};
use htm_sim::chaos;
use htm_sim::ebr;
use htm_sim::sync::Mutex;
use htm_sim::{thread_serial, PerThread};
use mwcas::{HtmMwCas, MwCasPool, MwTarget};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Block tag for DL-Skiplist tower nodes.
pub const DL_NODE_TAG: u64 = 0x5343_4950; // "SKIP"

/// Root slots used by a standalone DL-Skiplist heap.
const ROOT_DL_MAGIC: u64 = 8;
const ROOT_DL_HEAD: u64 = 9;
const DL_MAGIC: u64 = 0xD15C_0BE1;

/// Node payload layout: `[key, value, level, next[0..level]]`.
const P_KEY: u64 = 0;
const P_VAL: u64 = 1;
const P_LEVEL: u64 = 2;
const P_NEXT: u64 = 3;

/// Tombstone stored in the next pointers of an unlinked node. Node
/// addresses are always ≥ the heap base, so 1 is unambiguous.
const TOMB: u64 = 1;

/// Which persistence/synchronization regime to run (Fig. 5 bars).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PersistMode {
    /// The real DL-Skiplist: PMwCAS + node flushes + read flushes.
    Strict,
    /// P-Skiplist-no-flush: same descriptor algorithm, zero persist
    /// instructions (not crash consistent). On a zero-latency heap this
    /// doubles as T-Skiplist.
    NoFlush,
    /// P-Skiplist-HTM-MwCAS: the multi-word CAS replaced by one hardware
    /// transaction (not crash consistent).
    HtmMwcas,
}

thread_local! {
    static LEVEL_RNG: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's next tower height. Seeded from the thread's
/// serial, not its recycled id, so a thread never replays the heights of
/// the thread that held its id before it.
pub(crate) fn next_level() -> usize {
    LEVEL_RNG.with(|r| {
        let mut x = r.get();
        if x == 0 {
            x = thread_serial() ^ 0xDEAD_BEEF_1234_5678;
        }
        let lvl = random_level(&mut x);
        r.set(x);
        lvl
    })
}

/// Per-thread spare node from a failed link attempt: `(level, addr)`.
type SpareNode = Mutex<Option<(usize, NvmAddr)>>;

/// A lock-free skiplist whose nodes live entirely in NVM.
pub struct DlSkiplist {
    heap: Arc<NvmHeap>,
    alloc: Arc<PAlloc>,
    pool: MwCasPool,
    htm: HtmMwCas,
    mode: PersistMode,
    head: NvmAddr,
    spare: PerThread<SpareNode>,
}

impl DlSkiplist {
    /// Creates a skiplist (and its allocator) on a fresh heap.
    pub fn new(heap: Arc<NvmHeap>, mode: PersistMode) -> Self {
        let alloc = Arc::new(PAlloc::new(Arc::clone(&heap)));
        let head = alloc.alloc_persisted(P_NEXT + MAX_LEVEL as u64);
        Header::set_tag(&heap, head, DL_NODE_TAG);
        Header::set_epoch(&heap, head, 0);
        heap.write(head.offset(HDR_WORDS + P_LEVEL), MAX_LEVEL as u64);
        heap.persist_range(head, HDR_WORDS + P_NEXT + MAX_LEVEL as u64);
        heap.write(heap.root(ROOT_DL_MAGIC), DL_MAGIC);
        heap.write(heap.root(ROOT_DL_HEAD), head.0);
        heap.persist_range(heap.root(ROOT_DL_MAGIC), 2);
        heap.fence();
        Self::open(heap, alloc, head, mode)
    }

    /// The volatile half of a list whose NVM half is `head` in `heap`:
    /// shared by [`new`](Self::new) and [`recover`](Self::recover).
    fn open(heap: Arc<NvmHeap>, alloc: Arc<PAlloc>, head: NvmAddr, mode: PersistMode) -> Self {
        Self {
            pool: MwCasPool::with_alloc(Arc::clone(&heap), Arc::clone(&alloc)),
            htm: HtmMwCas::new(Arc::clone(&heap)),
            heap,
            alloc,
            mode,
            head,
            spare: PerThread::default(),
        }
    }

    /// Reopens a DL-Skiplist after a crash: scans the heap, rolls every
    /// in-flight PMwCAS forward or backward, and reclaims nodes whose
    /// unlink had become durable. Returns the list plus
    /// `(rolled_forward, rolled_back)` descriptor counts.
    pub fn recover(heap: Arc<NvmHeap>) -> (Self, (usize, usize)) {
        assert_eq!(heap.read(heap.root(ROOT_DL_MAGIC)), DL_MAGIC);
        let head = NvmAddr(heap.read(heap.root(ROOT_DL_HEAD)));
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let rolled = MwCasPool::recover(&heap, &blocks);
        let alloc = Arc::new(alloc);
        // Nodes whose next[0] is tombstoned were durably unlinked but not
        // yet reclaimed when the crash hit.
        for b in &blocks {
            if b.tag == DL_NODE_TAG && b.addr != head {
                let nxt0 = heap.read(b.addr.offset(HDR_WORDS + P_NEXT));
                if nxt0 == TOMB {
                    alloc.free(b.addr);
                }
            }
        }
        (Self::open(heap, alloc, head, PersistMode::Strict), rolled)
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    pub fn mode(&self) -> PersistMode {
        self.mode
    }

    /// NVM bytes held (nodes + descriptors).
    pub fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    #[inline]
    fn pw(&self, node: NvmAddr, idx: u64) -> NvmAddr {
        node.offset(HDR_WORDS + idx)
    }

    #[inline]
    fn key_of(&self, node: NvmAddr) -> u64 {
        self.heap.word(self.pw(node, P_KEY)).load(Ordering::Acquire)
    }

    #[inline]
    fn level_of(&self, node: NvmAddr) -> usize {
        self.heap
            .word(self.pw(node, P_LEVEL))
            .load(Ordering::Acquire) as usize
    }

    /// Resolved read of `node.next[lvl]` (helps in-flight descriptor
    /// operations). `None` means the node is tombstoned.
    #[inline]
    fn next_of(&self, node: NvmAddr, lvl: usize) -> Option<u64> {
        let v = self.pool.read(self.pw(node, P_NEXT + lvl as u64));
        if v == TOMB {
            None
        } else {
            Some(v)
        }
    }

    /// Multi-word CAS dispatch per mode.
    fn do_cas(&self, targets: &[MwTarget]) -> bool {
        match self.mode {
            PersistMode::Strict => self.pool.pmwcas(targets),
            PersistMode::NoFlush => self.pool.mwcas(targets),
            PersistMode::HtmMwcas => self.htm.execute(targets),
        }
    }

    /// Search: per-level predecessors and successors, plus the node
    /// matching `key` exactly (if any).
    fn find(&self, key: u64) -> ([NvmAddr; MAX_LEVEL], [u64; MAX_LEVEL], Option<NvmAddr>) {
        'restart: loop {
            let mut preds = [self.head; MAX_LEVEL];
            let mut succs = [0u64; MAX_LEVEL];
            let mut pred = self.head;
            for lvl in (0..MAX_LEVEL).rev() {
                loop {
                    let Some(nxt) = self.next_of(pred, lvl) else {
                        // Predecessor was unlinked under us.
                        chaos::point("dl::find_restart");
                        continue 'restart;
                    };
                    if nxt != 0 && self.key_of(NvmAddr(nxt)) < key {
                        pred = NvmAddr(nxt);
                        continue;
                    }
                    preds[lvl] = pred;
                    succs[lvl] = nxt;
                    break;
                }
            }
            let found = if succs[0] != 0 && self.key_of(NvmAddr(succs[0])) == key {
                Some(NvmAddr(succs[0]))
            } else {
                None
            };
            return (preds, succs, found);
        }
    }

    /// Inserts or updates. Returns `true` if the key was newly inserted.
    pub fn insert(&self, key: u64, value: u64) -> bool {
        assert!(value < 1 << 63, "values must leave bit 63 clear");
        let guard = ebr::pin();
        loop {
            let (preds, succs, found) = self.find(key);
            if let Some(node) = found {
                // Value update: single-word (persistent) CAS.
                let vaddr = self.pw(node, P_VAL);
                let old = self.pool.read(vaddr);
                if old == value || self.do_cas(&[MwTarget::new(vaddr, old, value)]) {
                    drop(guard);
                    return false;
                }
                continue;
            }

            // Build a fresh (or recycled) tower.
            let (level, node) = {
                let mut spare = self.spare.mine().lock();
                match spare.take() {
                    Some(s) => s,
                    None => {
                        let lvl = next_level();
                        drop(spare);
                        let n = self.alloc.alloc_persisted(P_NEXT + lvl as u64);
                        Header::set_tag(&self.heap, n, DL_NODE_TAG);
                        Header::set_epoch(&self.heap, n, 0);
                        (lvl, n)
                    }
                }
            };
            self.heap.write(self.pw(node, P_KEY), key);
            self.heap.write(self.pw(node, P_VAL), value);
            self.heap.write(self.pw(node, P_LEVEL), level as u64);
            for (i, &s) in succs.iter().enumerate().take(level) {
                self.heap.write(self.pw(node, P_NEXT + i as u64), s);
            }
            if self.mode == PersistMode::Strict {
                // The tower must be durable before it becomes reachable.
                self.heap
                    .persist_range(node, HDR_WORDS + P_NEXT + level as u64);
                self.heap.fence();
            }

            let targets: Vec<MwTarget> = (0..level)
                .map(|i| MwTarget::new(self.pw(preds[i], P_NEXT + i as u64), succs[i], node.0))
                .collect();
            chaos::point("dl::link_cas");
            if self.do_cas(&targets) {
                drop(guard);
                return true;
            }
            // Lost the race: stash the tower for the retry.
            *self.spare.mine().lock() = Some((level, node));
        }
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u64) -> bool {
        let guard = ebr::pin();
        loop {
            let (preds, succs, found) = self.find(key);
            let Some(node) = found else {
                return false;
            };
            let level = self.level_of(node);
            // The tower is linked at all its levels; if a pred moved we
            // will simply fail the CAS and retry.
            let mut nexts = [0u64; MAX_LEVEL];
            let mut ok = true;
            for (i, nx) in nexts.iter_mut().enumerate().take(level) {
                match self.next_of(node, i) {
                    Some(v) => *nx = v,
                    None => {
                        ok = false; // concurrent removal won
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            for &s in succs.iter().take(level) {
                if s != node.0 {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }

            let mut targets = Vec::with_capacity(2 * level);
            for i in 0..level {
                targets.push(MwTarget::new(
                    self.pw(preds[i], P_NEXT + i as u64),
                    node.0,
                    nexts[i],
                ));
                targets.push(MwTarget::new(
                    self.pw(node, P_NEXT + i as u64),
                    nexts[i],
                    TOMB,
                ));
            }
            chaos::point("dl::unlink_cas");
            if self.do_cas(&targets) {
                // Quarantine the node until no reader can still hold it.
                let alloc = Arc::clone(&self.alloc);
                guard.defer(move || {
                    chaos::point("dl::free");
                    alloc.free(node);
                });
                drop(guard);
                return true;
            }
        }
    }

    /// The value of `key`, if present. In strict mode the read value is
    /// flushed before returning (the dirty-read-anomaly rule for DL
    /// structures, §2.3).
    pub fn get(&self, key: u64) -> Option<u64> {
        let _guard = ebr::pin();
        let (_, _, found) = self.find(key);
        let node = found?;
        let v = self.pool.read(self.pw(node, P_VAL));
        if self.mode == PersistMode::Strict {
            self.heap.clwb(self.pw(node, P_VAL));
            self.heap.fence();
        }
        Some(v)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Smallest `(key, value)` strictly greater than `key`.
    pub fn successor(&self, key: u64) -> Option<(u64, u64)> {
        let _guard = ebr::pin();
        let next = key.checked_add(1)?;
        let (_, succs, _) = self.find(next);
        if succs[0] == 0 {
            return None;
        }
        let node = NvmAddr(succs[0]);
        let k = self.key_of(node);
        let v = self.pool.read(self.pw(node, P_VAL));
        if self.mode == PersistMode::Strict {
            self.heap.clwb(self.pw(node, P_VAL));
            self.heap.fence();
        }
        Some((k, v))
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

    /// Number of keys (O(n) level-0 walk; test/diagnostic helper).
    pub fn len(&self) -> usize {
        let _guard = ebr::pin();
        let mut n = 0;
        let mut cur = self.next_of(self.head, 0).unwrap_or(0);
        while cur != 0 {
            n += 1;
            cur = self.next_of(NvmAddr(cur), 0).unwrap_or(0);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;
    use std::collections::BTreeMap;

    fn list(mode: PersistMode) -> DlSkiplist {
        DlSkiplist::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20))), mode)
    }

    #[test]
    fn basic_semantics_all_modes() {
        for mode in [
            PersistMode::Strict,
            PersistMode::NoFlush,
            PersistMode::HtmMwcas,
        ] {
            let l = list(mode);
            assert!(l.insert(10, 1));
            assert!(!l.insert(10, 2));
            assert_eq!(l.get(10), Some(2));
            assert!(l.remove(10));
            assert!(!l.remove(10));
            assert_eq!(l.get(10), None);
            assert!(l.is_empty());
        }
    }

    #[test]
    fn matches_oracle_randomized() {
        let l = list(PersistMode::Strict);
        let mut oracle = BTreeMap::new();
        let mut rng = 77u64;
        for _ in 0..5000 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = rng % 512;
            match rng % 3 {
                0 => assert_eq!(
                    l.insert(key, key + 7),
                    oracle.insert(key, key + 7).is_none()
                ),
                1 => assert_eq!(l.remove(key), oracle.remove(&key).is_some()),
                _ => assert_eq!(l.get(key), oracle.get(&key).copied()),
            }
        }
        assert_eq!(l.len(), oracle.len());
    }

    #[test]
    fn keys_iterate_sorted() {
        let l = list(PersistMode::NoFlush);
        for k in [5u64, 1, 9, 3, 7] {
            l.insert(k, k);
        }
        // Walk level 0 directly.
        let mut cur = l.next_of(l.head, 0).unwrap();
        let mut keys = Vec::new();
        while cur != 0 {
            keys.push(l.key_of(NvmAddr(cur)));
            cur = l.next_of(NvmAddr(cur), 0).unwrap();
        }
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn successor_and_range() {
        let l = list(PersistMode::Strict);
        for k in [2u64, 8, 32, 128] {
            l.insert(k, k + 1);
        }
        assert_eq!(l.successor(0), Some((2, 3)));
        assert_eq!(l.successor(2), Some((8, 9)));
        assert_eq!(l.successor(128), None);
        assert_eq!(l.range(8, 129), vec![(8, 9), (32, 33), (128, 129)]);
    }

    #[test]
    fn concurrent_mixed_ops_keep_per_key_invariant() {
        // Formerly quarantined (PR 4): the underlying MwCAS helping races
        // are fixed and root-caused in mwcas/src/descriptor.rs; the
        // workload now runs unwrapped here and, under seeded chaos
        // schedules, in the `chaos_stress` CI gate.
        crate::stress::dl_mixed_ops(PersistMode::Strict, 4, 2000, 128);
        crate::stress::dl_mixed_ops(PersistMode::HtmMwcas, 4, 2000, 128);
    }

    #[test]
    fn strict_inserts_survive_a_crash() {
        let l = list(PersistMode::Strict);
        for k in 0..200 {
            l.insert(k, k * 3);
        }
        let heap2 = Arc::new(NvmHeap::from_image(l.heap().crash()));
        let (l2, _rolled) = DlSkiplist::recover(heap2);
        for k in 0..200 {
            assert_eq!(l2.get(k), Some(k * 3), "durable insert {k} lost");
        }
        assert_eq!(l2.len(), 200);
    }

    #[test]
    fn strict_removes_survive_a_crash() {
        let l = list(PersistMode::Strict);
        for k in 0..100 {
            l.insert(k, k);
        }
        for k in 0..50 {
            l.remove(k);
        }
        let heap2 = Arc::new(NvmHeap::from_image(l.heap().crash()));
        let (l2, _) = DlSkiplist::recover(heap2);
        for k in 0..50 {
            assert_eq!(l2.get(k), None, "removed key {k} resurrected");
        }
        for k in 50..100 {
            assert_eq!(l2.get(k), Some(k));
        }
    }

    #[test]
    fn no_flush_mode_is_not_crash_consistent() {
        // The ablation variant really does lose data — that is the point
        // of the paper's "nonsensical" baselines.
        let l = list(PersistMode::NoFlush);
        for k in 0..50 {
            l.insert(k, k);
        }
        let img = l.heap().crash();
        // Level-0 head pointer never persisted: the list is empty (or
        // garbage) after recovery; we only check the data did not all
        // reach media.
        let head_next = img.word(l.pw(l.head, P_NEXT));
        assert_eq!(
            head_next, 0,
            "no-flush variant unexpectedly persisted links"
        );
    }

    #[test]
    fn strict_flushes_far_more_than_noflush() {
        let strict = list(PersistMode::Strict);
        let before = strict.heap().stats().snapshot();
        for k in 0..100 {
            strict.insert(k, k);
        }
        let strict_flushes = strict.heap().stats().snapshot().since(&before).flushes;

        let nf = list(PersistMode::NoFlush);
        let before = nf.heap().stats().snapshot();
        for k in 0..100 {
            nf.insert(k, k);
        }
        let nf_flushes = nf.heap().stats().snapshot().since(&before).flushes;
        // No-flush still pays one allocator-metadata flush per node (the
        // allocator persists its headers in every mode, like Ralloc);
        // strict adds node, descriptor, install, status and final flushes
        // on top — roughly an order of magnitude per operation.
        assert!(
            strict_flushes > 5 * nf_flushes.max(1),
            "strict {strict_flushes} vs no-flush {nf_flushes}"
        );
    }
}
