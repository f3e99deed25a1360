//! BDL-Skiplist: the paper's buffered-durable, HTM-optimized skiplist.
//!
//! Towers live in DRAM; each tower points at one KV block in NVM managed
//! by the epoch system. Searches run non-transactionally (preserving the
//! nonblocking algorithm's preemption tolerance); only the multi-word
//! link/unlink — an HTM-MwCAS with predecessor validation — runs inside
//! a (small-footprint) hardware transaction, together with the Listing 1
//! epoch discipline for the KV block. Persistence happens entirely in
//! the background.

use crate::{next_level, MAX_LEVEL};
use bdhtm_core::{
    run_op, CommitEffects, EpochSys, OpStep, PreallocSlots, Upsert, KV_VALUE, KV_WORDS,
};
use htm_sim::chaos;
use htm_sim::ebr;
use htm_sim::{FallbackLock, Htm, MemAccess, TxResult};
use nvm_sim::NvmAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod recovery;

/// Block tag identifying BDL-Skiplist KV pairs in recovery scans.
pub const SKIP_KV_TAG: u64 = 0x534B_4C56; // "SKLV"

/// Tombstone in a DRAM next pointer: the tower was unlinked.
const TOMB: u64 = 1;

/// A DRAM tower. `key` and `level` are immutable after construction;
/// `blk` (the NVM block pointer) and `next` are transactional.
struct Tower {
    key: u64,
    level: usize,
    blk: AtomicU64,
    next: [AtomicU64; MAX_LEVEL],
}

impl Tower {
    fn boxed(key: u64, level: usize, blk: u64) -> Box<Tower> {
        Box::new(Tower {
            key,
            level,
            blk: AtomicU64::new(blk),
            next: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }
}

/// This list's [`next_level`] salt.
pub(crate) const LEVEL_SALT: u64 = 0xFACE_FEED_0BAD_F00D;

/// The buffered durably linearizable skiplist (§4.2).
pub struct BdlSkiplist {
    esys: Arc<EpochSys>,
    htm: Arc<Htm>,
    lock: FallbackLock,
    head: *mut Tower,
    new_blk: PreallocSlots,
}

// SAFETY: tower pointers are published only through committed
// transactional (or locked, versioned) stores; reclamation is deferred
// through EBR.
unsafe impl Send for BdlSkiplist {}
unsafe impl Sync for BdlSkiplist {}

impl BdlSkiplist {
    pub fn new(esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        Self {
            esys,
            htm,
            lock: FallbackLock::new(),
            head: Box::into_raw(Tower::boxed(0, MAX_LEVEL, 0)),
            new_blk: PreallocSlots::new(KV_WORDS),
        }
    }

    pub fn epoch_sys(&self) -> &Arc<EpochSys> {
        &self.esys
    }

    pub fn htm(&self) -> &Htm {
        &self.htm
    }

    /// NVM bytes held by KV blocks (live + retirement-pending).
    pub fn nvm_bytes(&self) -> u64 {
        self.esys.alloc_stats().bytes_in_use()
    }

    /// The tower `ptr` points at.
    ///
    /// # Safety
    ///
    /// `ptr` must be the head, or a pointer read from a live link (a
    /// `next` word that was neither 0 nor [`TOMB`], or a tower's own
    /// address found that way) while an `ebr` guard is pinned, and the
    /// reference must not outlive that guard. A tower is freed only by
    /// an `ebr`-deferred drop after its unlink commits, so it stays
    /// allocated until every guard pinned before the unlink drops.
    #[inline]
    unsafe fn tower(&self, ptr: u64) -> &Tower {
        debug_assert!(ptr != 0 && ptr != TOMB);
        &*(ptr as *const Tower)
    }

    /// Non-transactional search (preemption tolerant): per-level preds
    /// and succs, plus the exact-match tower. Call under a pinned `ebr`
    /// guard; every pointer it returns was read from a live link under it.
    fn find(&self, key: u64) -> ([u64; MAX_LEVEL], [u64; MAX_LEVEL], Option<u64>) {
        'restart: loop {
            let mut preds = [self.head as u64; MAX_LEVEL];
            let mut succs = [0u64; MAX_LEVEL];
            let mut pred = self.head as u64;
            for lvl in (0..MAX_LEVEL).rev() {
                loop {
                    // SAFETY: `pred` is the head or a live link (checked below).
                    let nxt = unsafe { self.tower(pred) }.next[lvl].load(Ordering::Acquire);
                    if nxt == TOMB {
                        chaos::point("bdl::find_restart");
                        continue 'restart;
                    }
                    // SAFETY: `nxt` is a live link: neither 0 nor TOMB.
                    if nxt != 0 && unsafe { self.tower(nxt) }.key < key {
                        pred = nxt;
                        continue;
                    }
                    preds[lvl] = pred;
                    succs[lvl] = nxt;
                    break;
                }
            }
            let found = match succs[0] {
                0 => None,
                // SAFETY: a non-zero `succs[0]` is a live-link pointer.
                n if unsafe { self.tower(n) }.key == key => Some(n),
                _ => None,
            };
            return (preds, succs, found);
        }
    }

    /// Validates inside the transaction that the searched window is
    /// unchanged (the HTM-MwCAS "expected old values").
    fn validate_window<'e>(
        &'e self,
        m: &mut dyn MemAccess<'e>,
        preds: &[u64; MAX_LEVEL],
        succs: &[u64; MAX_LEVEL],
        levels: usize,
    ) -> TxResult<bool> {
        for i in 0..levels {
            // SAFETY: `preds` came from `find` under the caller's guard.
            let p = unsafe { self.tower(preds[i]) };
            if m.load(&p.next[i])? != succs[i] {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Inserts or updates. Returns `true` if the key was newly inserted.
    pub fn insert(&self, key: u64, value: u64) -> bool {
        let guard = ebr::pin();
        let mut tower: Option<Box<Tower>> = None;
        let inserted = run_op(&self.esys, Some(&self.new_blk), |op| {
            let blk = op.blk();
            op.fill(key, value, SKIP_KV_TAG);
            // A window-validation failure (`None`) retries the search
            // under the same registration; only OLD_SEE_NEW re-registers.
            loop {
                let (preds, succs, found) = self.find(key);
                let upsert = if let Some(node_ptr) = found {
                    // Update path: small transaction over the block epoch.
                    // SAFETY: `find` read `node_ptr` from a live link under `guard`.
                    let node = unsafe { self.tower(node_ptr) };
                    chaos::point("bdl::update_txn");
                    self.htm.run(&self.lock, |m| {
                        // The tower must still be linked at level 0.
                        // SAFETY: `preds[0]` is the head or a live link under `guard`.
                        let p = unsafe { self.tower(preds[0]) };
                        if m.load(&p.next[0])? != node_ptr {
                            return Ok(None);
                        }
                        op.claim(m)?;
                        let cur = NvmAddr(m.load(&node.blk)?);
                        op.update(m, cur, value, |m| m.store(&node.blk, blk.0))
                            .map(Some)
                    })
                } else {
                    // Link path: build (or reuse) a private tower.
                    let t = match tower.take() {
                        Some(t) if t.key == key => t,
                        _ => Tower::boxed(key, next_level(LEVEL_SALT), blk.0),
                    };
                    for (n, &s) in t.next.iter().zip(succs.iter()).take(t.level) {
                        n.store(s, Ordering::Relaxed);
                    }
                    t.blk.store(blk.0, Ordering::Relaxed);
                    let levels = t.level;
                    let t_ptr = Box::into_raw(t) as u64;
                    chaos::point("bdl::link_txn");
                    let r = self.htm.run(&self.lock, |m| {
                        if !self.validate_window(m, &preds, &succs, levels)? {
                            return Ok(None);
                        }
                        op.claim(m)?;
                        for (i, &pp) in preds.iter().enumerate().take(levels) {
                            // SAFETY: `pp` is the head or a live link under `guard`.
                            let p = unsafe { self.tower(pp) };
                            m.store(&p.next[i], t_ptr)?;
                        }
                        Ok(Some(Upsert::Inserted))
                    });
                    if !matches!(r, Ok(Some(_))) {
                        // Reclaim the unpublished tower for the retry.
                        // SAFETY: no link to `t_ptr` committed, so this thread still
                        // owns the box `Box::into_raw` made above; taken back once.
                        tower = Some(unsafe { Box::from_raw(t_ptr as *mut Tower) });
                    }
                    r
                };
                if let Some(upsert) = upsert? {
                    return OpStep::commit(upsert.effects(blk));
                }
            }
        });
        drop(guard);
        inserted
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u64) -> bool {
        let guard = ebr::pin();
        let removed = run_op(&self.esys, None, |op| loop {
            let (preds, _succs, found) = self.find(key);
            let Some(node_ptr) = found else {
                return OpStep::commit(CommitEffects::of(None));
            };
            // SAFETY: `find` read `node_ptr` from a live link under `guard`.
            let node = unsafe { self.tower(node_ptr) };
            let levels = node.level;
            chaos::point("bdl::unlink_txn");
            let r = self.htm.run(&self.lock, |m| {
                // All predecessors must still point at this tower.
                for (i, &pp) in preds.iter().enumerate().take(levels) {
                    // SAFETY: `pp` is the head or a live link under `guard`.
                    let p = unsafe { self.tower(pp) };
                    if m.load(&p.next[i])? != node_ptr {
                        return Ok(None);
                    }
                }
                let blk = NvmAddr(m.load(&node.blk)?);
                op.check_remove(m, blk)?;
                // Unlink every level and tombstone the tower.
                for (i, &pp) in preds.iter().enumerate().take(levels) {
                    let nx = m.load(&node.next[i])?;
                    // SAFETY: as in the validation loop above.
                    let p = unsafe { self.tower(pp) };
                    m.store(&p.next[i], nx)?;
                    m.store(&node.next[i], TOMB)?;
                }
                Ok(Some(blk))
            });
            if let Some(blk) = r? {
                return OpStep::commit(CommitEffects::of(Some(node_ptr)).retire(blk));
            }
        });
        if let Some(node_ptr) = removed {
            // Defer the DRAM tower until readers drain.
            // SAFETY: only this thread's committed unlink made `node_ptr`
            // unreachable, so its box is freed once, and `ebr` frees it only
            // after every guard that may still read it has dropped.
            unsafe {
                guard.defer_unchecked(move || {
                    chaos::point("bdl::tower_free");
                    drop(Box::from_raw(node_ptr as *mut Tower));
                });
            }
        }
        drop(guard);
        removed.is_some()
    }

    /// The key and value of the tower `node_ptr`, the value read in one
    /// transaction with the check that `pred` still links to it at
    /// level 0; `None` if it no longer does, and the caller searches
    /// again. Call under a pinned `ebr` guard, with both pointers read
    /// from live links under it (or `pred` the head).
    fn read_linked(&self, pred: u64, node_ptr: u64) -> Option<(u64, u64)> {
        // SAFETY: the caller's pinned guard keeps both towers allocated.
        let (p, node) = unsafe { (self.tower(pred), self.tower(node_ptr)) };
        let v = self
            .htm
            .run(&self.lock, |m| {
                if m.load(&p.next[0])? != node_ptr {
                    return Ok(None);
                }
                let blk = NvmAddr(m.load(&node.blk)?);
                self.esys.p_get(m, blk, KV_VALUE).map(Some)
            })
            .expect("lookups raise no explicit aborts")?;
        self.esys.heap().charge_media_read();
        Some((node.key, v))
    }

    /// The value of `key`, if present, read consistently (link validation
    /// and NVM value read share one transaction snapshot).
    pub fn get(&self, key: u64) -> Option<u64> {
        let _guard = ebr::pin();
        loop {
            let (preds, _, found) = self.find(key);
            if let Some((_, v)) = self.read_linked(preds[0], found?) {
                return Some(v);
            }
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        let _guard = ebr::pin();
        self.find(key).2.is_some()
    }

    /// Smallest `(key, value)` strictly greater than `key` — skiplists
    /// are ordered, and BDL preserves that: the successor's value is read
    /// in the same transactional snapshot that validates its linkage.
    pub fn successor(&self, key: u64) -> Option<(u64, u64)> {
        let _guard = ebr::pin();
        loop {
            let (preds, succs, _) = self.find(key.checked_add(1)?);
            if succs[0] == 0 {
                return None;
            }
            if let Some(kv) = self.read_linked(preds[0], succs[0]) {
                return Some(kv);
            }
        }
    }

    /// All `(key, value)` pairs in `[lo, hi)`, by successor chaining.
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

    /// Number of keys (O(n) diagnostic).
    pub fn len(&self) -> usize {
        let _guard = ebr::pin();
        let mut n = 0;
        // SAFETY: the head, then live links read under `_guard`.
        let mut cur = unsafe { self.tower(self.head as u64) }.next[0].load(Ordering::Acquire);
        while cur != 0 && cur != TOMB {
            n += 1;
            // SAFETY: as above.
            cur = unsafe { self.tower(cur) }.next[0].load(Ordering::Acquire);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

bdhtm_core::impl_bdl_kv!(BdlSkiplist, name: "bdl-skiplist", tag: SKIP_KV_TAG,
    new: BdlSkiplist::new, recover: BdlSkiplist::recover);

impl Drop for BdlSkiplist {
    fn drop(&mut self) {
        // Single-threaded at this point: free every tower.
        // SAFETY: `&mut self` excludes every other user, so each tower
        // still linked at level 0 is freed once, from its `Box`;
        // unlinked towers were handed to `ebr` by `remove`.
        unsafe {
            let mut cur = self.head as u64;
            while cur != 0 && cur != TOMB {
                let next = (*(cur as *mut Tower)).next[0].load(Ordering::Relaxed);
                drop(Box::from_raw(cur as *mut Tower));
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::EpochConfig;
    use htm_sim::HtmConfig;
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::collections::BTreeMap;

    fn setup() -> BdlSkiplist {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        BdlSkiplist::new(esys, Arc::new(Htm::new(HtmConfig::for_tests())))
    }

    #[test]
    fn basic_semantics() {
        let l = setup();
        assert!(l.insert(42, 1));
        assert!(!l.insert(42, 2));
        assert_eq!(l.get(42), Some(2));
        assert!(l.contains(42));
        assert!(l.remove(42));
        assert!(!l.remove(42));
        assert_eq!(l.get(42), None);
        assert!(l.is_empty());
    }

    #[test]
    fn matches_oracle_with_epoch_advances() {
        let l = setup();
        let mut oracle = BTreeMap::new();
        let mut rng = 99u64;
        for i in 0..6000u64 {
            if i % 400 == 0 {
                l.epoch_sys().advance();
            }
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = 1 + rng % 512;
            match rng % 3 {
                0 => assert_eq!(
                    l.insert(key, key + i),
                    oracle.insert(key, key + i).is_none()
                ),
                1 => assert_eq!(l.remove(key), oracle.remove(&key).is_some()),
                _ => assert_eq!(l.get(key), oracle.get(&key).copied(), "get({key})"),
            }
        }
        assert_eq!(l.len(), oracle.len());
    }

    #[test]
    fn concurrent_mixed_ops() {
        // Formerly quarantined (PR 4): the underlying MwCAS helping races
        // are fixed and root-caused in mwcas/src/descriptor.rs; the
        // workload now runs unwrapped here and, under seeded chaos
        // schedules, in the `chaos_stress` CI gate.
        crate::stress::bdl_mixed_ops(4, 3000, 256, 30);
    }

    #[test]
    fn successor_and_range_queries() {
        let l = setup();
        for k in [3u64, 9, 100, 4096] {
            l.insert(k, k * 10);
        }
        assert_eq!(l.successor(0), Some((3, 30)));
        assert_eq!(l.successor(3), Some((9, 90)));
        assert_eq!(l.successor(4096), None);
        assert_eq!(l.range(3, 101), vec![(3, 30), (9, 90), (100, 1000)]);
        l.remove(9);
        assert_eq!(l.successor(3), Some((100, 1000)));
    }

    #[test]
    fn crash_recovers_durable_prefix() {
        let l = setup();
        for k in 1..=100u64 {
            l.insert(k, k * 2);
        }
        l.epoch_sys().advance();
        l.epoch_sys().advance();
        for k in 101..=150u64 {
            l.insert(k, k * 2); // lost
        }
        l.remove(7); // lost → resurrected

        let heap2 = Arc::new(NvmHeap::from_image(l.epoch_sys().heap().crash()));
        let (esys2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 2);
        let l2 = BdlSkiplist::recover(esys2, Arc::new(Htm::new(HtmConfig::for_tests())), &live, 2);
        for k in 1..=100u64 {
            assert_eq!(l2.get(k), Some(k * 2), "durable key {k} lost");
        }
        for k in 101..=150u64 {
            assert_eq!(l2.get(k), None, "undurable key {k} survived");
        }
        assert_eq!(l2.len(), 100);
    }

    #[test]
    fn validate_rejects_an_unsorted_level() {
        let l = setup();
        for k in 1..=400u64 {
            l.insert(k, k);
        }
        l.validate().expect("intact list");
        // Swap the first two towers of level 1: a -> b -> c becomes
        // b -> a -> c, against level 0's order.
        let head = unsafe { l.tower(l.head as u64) };
        let a = head.next[1].load(Ordering::Relaxed);
        let b = unsafe { l.tower(a) }.next[1].load(Ordering::Relaxed);
        let c = unsafe { l.tower(b) }.next[1].swap(a, Ordering::Relaxed);
        unsafe { l.tower(a) }.next[1].store(c, Ordering::Relaxed);
        head.next[1].store(b, Ordering::Relaxed);
        let err = l.validate().expect_err("level 1 is out of order");
        assert!(err.contains("not a subsequence"), "{err}");
        // Put it back: the rejection was about the order, nothing else.
        unsafe { l.tower(b) }.next[1].store(c, Ordering::Relaxed);
        unsafe { l.tower(a) }.next[1].store(b, Ordering::Relaxed);
        head.next[1].store(a, Ordering::Relaxed);
        l.validate().expect("restored list");
    }

    #[test]
    fn epoch_write_back_is_off_the_critical_path() {
        let l = setup();
        let before = l.epoch_sys().heap().stats().snapshot();
        for k in 1..200 {
            l.insert(k, k);
        }
        let during = l.epoch_sys().heap().stats().snapshot().since(&before);
        // Allocation persists nothing: only extent registration (one
        // flush per carved extent) happens on the operation path.
        assert!(
            during.flushes <= 5,
            "critical-path flushes too high: {}",
            during.flushes
        );
        l.epoch_sys().advance();
        l.epoch_sys().advance();
        let after = l.epoch_sys().heap().stats().snapshot().since(&before);
        assert!(
            after.lines_written_back >= 199,
            "background flush did not cover the data: {}",
            after.lines_written_back
        );
    }
}
