//! BDL-Skiplist: the paper's buffered-durable, HTM-optimized skiplist.
//!
//! Towers live in DRAM; each tower points at one KV block in NVM managed
//! by the epoch system. Searches run non-transactionally (preserving the
//! nonblocking algorithm's preemption tolerance); only the multi-word
//! link/unlink — an HTM-MwCAS with predecessor validation — runs inside
//! a (small-footprint) hardware transaction, together with the Listing 1
//! epoch discipline for the KV block. Persistence happens entirely in
//! the background.

use crate::{random_level, MAX_LEVEL};
use bdhtm_core::{
    live_keys_sorted, payload, run_op, CommitEffects, EpochSys, LiveBlock, OpStep, PreallocSlots,
    UpdateKind, OLD_SEE_NEW,
};
use htm_sim::chaos;
use htm_sim::ebr;
use htm_sim::{thread_id, FallbackLock, Htm, MemAccess, TxResult};
use nvm_sim::NvmAddr;
use persist_alloc::Header;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Block tag identifying BDL-Skiplist KV pairs in recovery scans.
pub const SKIP_KV_TAG: u64 = 0x534B_4C56; // "SKLV"

const P_KEY: u64 = 0;
const P_VAL: u64 = 1;
const KV_PAYLOAD_WORDS: u64 = 2;

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

thread_local! {
    static LEVEL_RNG: Cell<u64> = const { Cell::new(0) };
}

fn next_level() -> usize {
    LEVEL_RNG.with(|r| {
        let mut x = r.get();
        if x == 0 {
            x = thread_id() as u64 ^ 0xFACE_FEED_0BAD_F00D;
        }
        let lvl = random_level(&mut x);
        r.set(x);
        lvl
    })
}

enum WriteOutcome {
    Linked,
    InPlace,
    Replaced(NvmAddr),
    Removed(NvmAddr),
    Validate,
    Value(u64),
}

/// The buffered durably linearizable skiplist (§4.2).
pub struct BdlSkiplist {
    esys: Arc<EpochSys>,
    htm: Arc<Htm>,
    lock: FallbackLock,
    head: *mut Tower,
    new_blk: PreallocSlots,
}

// Tower pointers are published only through committed transactional (or
// locked, versioned) stores; reclamation is deferred through EBR.
unsafe impl Send for BdlSkiplist {}
unsafe impl Sync for BdlSkiplist {}

impl BdlSkiplist {
    pub fn new(esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self {
        Self {
            esys,
            htm,
            lock: FallbackLock::new(),
            head: Box::into_raw(Tower::boxed(0, MAX_LEVEL, 0)),
            new_blk: PreallocSlots::new(KV_PAYLOAD_WORDS),
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

    #[inline]
    unsafe fn tower(&self, ptr: u64) -> &Tower {
        debug_assert!(ptr != 0 && ptr != TOMB);
        &*(ptr as *const Tower)
    }

    /// Non-transactional search (preemption tolerant): per-level preds
    /// and succs, plus the exact-match tower.
    fn find(&self, key: u64) -> ([u64; MAX_LEVEL], [u64; MAX_LEVEL], Option<u64>) {
        'restart: loop {
            let mut preds = [self.head as u64; MAX_LEVEL];
            let mut succs = [0u64; MAX_LEVEL];
            let mut pred = self.head as u64;
            for lvl in (0..MAX_LEVEL).rev() {
                loop {
                    let nxt = unsafe { self.tower(pred) }.next[lvl].load(Ordering::Acquire);
                    if nxt == TOMB {
                        chaos::point("bdl::find_restart");
                        continue 'restart;
                    }
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
        let heap = self.esys.heap();
        let mut tower: Option<Box<Tower>> = None;
        let inserted = run_op(&self.esys, Some(&self.new_blk), |op| {
            let (blk, op_epoch) = (op.blk(), op.epoch());
            heap.word(payload(blk, P_KEY)).store(key, Ordering::Release);
            heap.word(payload(blk, P_VAL))
                .store(value, Ordering::Release);
            Header::set_tag(heap, blk, SKIP_KV_TAG);

            // Window-validation failures retry the search under the
            // same registration; only OLD_SEE_NEW re-registers.
            'find: loop {
                let (preds, succs, found) = self.find(key);
                let outcome = if let Some(node_ptr) = found {
                    // Update path: small transaction over the block epoch.
                    let node = unsafe { self.tower(node_ptr) };
                    chaos::point("bdl::update_txn");
                    self.htm.run(&self.lock, |m| {
                        // The tower must still be linked at level 0.
                        let p = unsafe { self.tower(preds[0]) };
                        if m.load(&p.next[0])? != node_ptr {
                            return Ok(WriteOutcome::Validate);
                        }
                        self.esys.set_epoch(m, blk, op_epoch)?;
                        let cur = NvmAddr(m.load(&node.blk)?);
                        match self.esys.classify_update(m, cur, op_epoch)? {
                            UpdateKind::InPlace => {
                                self.esys.p_set(m, cur, P_VAL, value)?;
                                Ok(WriteOutcome::InPlace)
                            }
                            UpdateKind::Replace => {
                                m.store(&node.blk, blk.0)?;
                                Ok(WriteOutcome::Replaced(cur))
                            }
                        }
                    })
                } else {
                    // Link path: build (or reuse) a private tower.
                    let t = match tower.take() {
                        Some(t) if t.key == key => t,
                        _ => Tower::boxed(key, next_level(), blk.0),
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
                            return Ok(WriteOutcome::Validate);
                        }
                        self.esys.set_epoch(m, blk, op_epoch)?;
                        for (i, &pp) in preds.iter().enumerate().take(levels) {
                            let p = unsafe { self.tower(pp) };
                            m.store(&p.next[i], t_ptr)?;
                        }
                        Ok(WriteOutcome::Linked)
                    });
                    if !matches!(r, Ok(WriteOutcome::Linked)) {
                        // Reclaim the unpublished tower for the retry.
                        tower = Some(unsafe { Box::from_raw(t_ptr as *mut Tower) });
                    }
                    r
                };

                return match outcome? {
                    WriteOutcome::Validate => continue 'find,
                    WriteOutcome::Linked => OpStep::commit(CommitEffects::of(true).track(blk)),
                    WriteOutcome::InPlace => {
                        OpStep::commit(CommitEffects::of(false).keep_prealloc())
                    }
                    WriteOutcome::Replaced(old) => {
                        OpStep::commit(CommitEffects::of(false).retire(old).track(blk))
                    }
                    _ => unreachable!("insert produced an unexpected outcome"),
                };
            }
        });
        drop(guard);
        inserted
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u64) -> bool {
        let guard = ebr::pin();
        let removed = run_op(&self.esys, None, |op| {
            let op_epoch = op.epoch();
            'find: loop {
                let (preds, _succs, found) = self.find(key);
                let Some(node_ptr) = found else {
                    return OpStep::commit(CommitEffects::of(None));
                };
                let node = unsafe { self.tower(node_ptr) };
                let levels = node.level;
                chaos::point("bdl::unlink_txn");
                let r = self.htm.run(&self.lock, |m| {
                    // All predecessors must still point at this tower.
                    for (i, &pp) in preds.iter().enumerate().take(levels) {
                        let p = unsafe { self.tower(pp) };
                        if m.load(&p.next[i])? != node_ptr {
                            return Ok(WriteOutcome::Validate);
                        }
                    }
                    let blk = NvmAddr(m.load(&node.blk)?);
                    let be = self.esys.get_epoch(m, blk)?;
                    if be > op_epoch {
                        return Err(m.abort(OLD_SEE_NEW));
                    }
                    // Unlink every level and tombstone the tower.
                    for (i, &pp) in preds.iter().enumerate().take(levels) {
                        let nx = m.load(&node.next[i])?;
                        let p = unsafe { self.tower(pp) };
                        m.store(&p.next[i], nx)?;
                        m.store(&node.next[i], TOMB)?;
                    }
                    Ok(WriteOutcome::Removed(blk))
                });
                return match r? {
                    WriteOutcome::Validate => continue 'find,
                    WriteOutcome::Removed(blk) => {
                        OpStep::commit(CommitEffects::of(Some(node_ptr)).retire(blk))
                    }
                    _ => unreachable!("remove produced an unexpected outcome"),
                };
            }
        });
        match removed {
            Some(node_ptr) => {
                // Defer the DRAM tower until readers drain.
                unsafe {
                    guard.defer_unchecked(move || {
                        chaos::point("bdl::tower_free");
                        drop(Box::from_raw(node_ptr as *mut Tower));
                    });
                }
                drop(guard);
                true
            }
            None => {
                drop(guard);
                false
            }
        }
    }

    /// The value of `key`, if present, read consistently (link validation
    /// and NVM value read share one transaction snapshot).
    pub fn get(&self, key: u64) -> Option<u64> {
        let _guard = ebr::pin();
        loop {
            let (preds, succs, found) = self.find(key);
            let node_ptr = found?;
            let node = unsafe { self.tower(node_ptr) };
            let r = self.htm.run(&self.lock, |m| {
                let p = unsafe { self.tower(preds[0]) };
                if m.load(&p.next[0])? != succs[0] {
                    return Ok(WriteOutcome::Validate);
                }
                let blk = NvmAddr(m.load(&node.blk)?);
                let v = self.esys.p_get(m, blk, P_VAL)?;
                Ok(WriteOutcome::Value(v))
            });
            match r {
                Ok(WriteOutcome::Validate) => continue,
                Ok(WriteOutcome::Value(v)) => {
                    self.esys.heap().charge_media_read();
                    return Some(v);
                }
                _ => unreachable!("lookup raises no explicit aborts"),
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
            let node = unsafe { self.tower(succs[0]) };
            let r = self.htm.run(&self.lock, |m| {
                let p = unsafe { self.tower(preds[0]) };
                if m.load(&p.next[0])? != succs[0] {
                    return Ok(WriteOutcome::Validate);
                }
                let blk = NvmAddr(m.load(&node.blk)?);
                let v = self.esys.p_get(m, blk, P_VAL)?;
                Ok(WriteOutcome::Value(v))
            });
            match r {
                Ok(WriteOutcome::Validate) => continue,
                Ok(WriteOutcome::Value(v)) => {
                    self.esys.heap().charge_media_read();
                    return Some((node.key, v));
                }
                _ => unreachable!("lookup raises no explicit aborts"),
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
        let mut cur = unsafe { self.tower(self.head as u64) }.next[0].load(Ordering::Acquire);
        while cur != 0 && cur != TOMB {
            n += 1;
            cur = unsafe { self.tower(cur) }.next[0].load(Ordering::Acquire);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rebuilds a skiplist from recovered live blocks (§5.2): towers are
    /// regenerated in DRAM for every block tagged [`SKIP_KV_TAG`].
    ///
    /// The list is a local here — nobody else can reach it before this
    /// returns — so with one thread it is built in one left-to-right pass
    /// over the blocks sorted by key: each tower is appended, with plain
    /// stores, to the last tower linked at each of its levels. With
    /// `threads > 1` the workers do share it, and each links its slice
    /// of the key range the way `insert` does, search then HTM link (the
    /// paper's 20-thread recovery).
    pub fn recover(
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
        threads: usize,
    ) -> BdlSkiplist {
        let list = BdlSkiplist::new(esys, htm);
        let mine = live_keys_sorted(list.esys.heap(), live, SKIP_KV_TAG, P_KEY);
        assert!(
            mine.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate key in recovered heap"
        );
        if threads <= 1 || mine.len() < 128 {
            let mut tails = [list.head as u64; MAX_LEVEL];
            for &(key, blk) in &mine {
                let t = Tower::boxed(key, next_level(), blk);
                let level = t.level;
                let t_ptr = Box::into_raw(t) as u64;
                for (lvl, tail) in tails.iter_mut().enumerate().take(level) {
                    unsafe { list.tower(*tail) }.next[lvl].store(t_ptr, Ordering::Relaxed);
                    *tail = t_ptr;
                }
            }
            return list;
        }
        let link_one = |key: u64, blk: u64| loop {
            let (preds, succs, _) = list.find(key);
            let t = Tower::boxed(key, next_level(), blk);
            for (n, &s) in t.next.iter().zip(succs.iter()).take(t.level) {
                n.store(s, Ordering::Relaxed);
            }
            let levels = t.level;
            let t_ptr = Box::into_raw(t) as u64;
            let r = list.htm.run(&list.lock, |m| {
                if !list.validate_window(m, &preds, &succs, levels)? {
                    return Ok(false);
                }
                for (i, &pp) in preds.iter().enumerate().take(levels) {
                    let p = unsafe { list.tower(pp) };
                    m.store(&p.next[i], t_ptr)?;
                }
                Ok(true)
            });
            match r {
                Ok(true) => break,
                _ => unsafe {
                    drop(Box::from_raw(t_ptr as *mut Tower));
                },
            }
        };
        let link = &link_one;
        std::thread::scope(|s| {
            for part in mine.chunks(mine.len().div_ceil(threads)) {
                s.spawn(move || part.iter().for_each(|&(key, blk)| link(key, blk)));
            }
        });
        list
    }

    /// Reclaims per-thread preallocated blocks (clean shutdown).
    pub fn drain_preallocated(&self) {
        self.new_blk.drain(&self.esys);
    }

    /// Structural invariant check for the fault-injection harness. Call
    /// while quiescent (e.g. right after recovery); verifies:
    ///
    /// * the level-0 list is strictly increasing with no reachable
    ///   tombstones, and every tower's KV block is allocated, tagged
    ///   [`SKIP_KV_TAG`], carries a valid epoch, and holds the tower's
    ///   key;
    /// * every level-`l` list is a subsequence of level 0 containing
    ///   exactly towers taller than `l`, in the same order;
    /// * no two towers share a KV block.
    pub fn validate(&self) -> Result<(), String> {
        use persist_alloc::BlockState;
        let heap = self.esys.heap();
        let clock = self.esys.current_epoch();
        let head = self.head as u64;

        let mut blocks: Vec<u64> = Vec::new();
        let mut prev_key: Option<u64> = None;
        let mut cur = unsafe { self.tower(head) }.next[0].load(Ordering::Acquire);
        while cur != 0 {
            if cur == TOMB {
                return Err("validate: tombstone reachable at level 0".into());
            }
            let t = unsafe { self.tower(cur) };
            if prev_key.is_some_and(|p| t.key <= p) {
                return Err(format!("validate: level-0 order violated at key {}", t.key));
            }
            if t.level == 0 || t.level > MAX_LEVEL {
                return Err(format!("validate: tower {} has height {}", t.key, t.level));
            }
            let blk = NvmAddr(t.blk.load(Ordering::Acquire));
            match Header::state(heap, blk) {
                Some((BlockState::Allocated, _)) => {}
                other => {
                    return Err(format!(
                        "key {}: block {blk:?} not allocated ({other:?})",
                        t.key
                    ))
                }
            }
            let tag = Header::tag(heap, blk);
            if tag != SKIP_KV_TAG {
                return Err(format!(
                    "key {}: block {blk:?} has foreign tag {tag:#x}",
                    t.key
                ));
            }
            let be = Header::epoch(heap, blk);
            if be == persist_alloc::INVALID_EPOCH || be > clock {
                return Err(format!(
                    "key {}: block {blk:?} carries invalid epoch {be} (clock {clock})",
                    t.key
                ));
            }
            let k = heap.word(payload(blk, P_KEY)).load(Ordering::Acquire);
            if k != t.key {
                return Err(format!("tower {} points at block holding key {k}", t.key));
            }
            blocks.push(blk.0);
            prev_key = Some(t.key);
            cur = t.next[0].load(Ordering::Acquire);
        }
        blocks.sort_unstable();
        if let Some(w) = blocks.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("block {:?} shared by two towers", NvmAddr(w[0])));
        }

        // Level 0 is strictly increasing, hence acyclic. Each higher
        // level is walked in step with the one below it: `below` only
        // moves forward, past each match, so finding every level-`lvl`
        // tower on it shows the level is a subsequence of the lower one
        // — by induction of level 0 — in the same order, and a tower met
        // twice (a cycle) is not found the second time.
        for lvl in 1..MAX_LEVEL {
            let mut below = unsafe { self.tower(head) }.next[lvl - 1].load(Ordering::Acquire);
            let mut cur = unsafe { self.tower(head) }.next[lvl].load(Ordering::Acquire);
            while cur != 0 {
                if cur == TOMB {
                    return Err(format!("validate: tombstone reachable at level {lvl}"));
                }
                let t = unsafe { self.tower(cur) };
                if t.level <= lvl {
                    return Err(format!(
                        "tower {} (height {}) linked at level {lvl}",
                        t.key, t.level
                    ));
                }
                while below != 0 && below != cur {
                    below = unsafe { self.tower(below) }.next[lvl - 1].load(Ordering::Acquire);
                }
                if below == 0 {
                    return Err(format!(
                        "level {lvl} is not a subsequence of level {} at key {}",
                        lvl - 1,
                        t.key
                    ));
                }
                below = t.next[lvl - 1].load(Ordering::Acquire);
                cur = t.next[lvl].load(Ordering::Acquire);
            }
        }
        Ok(())
    }
}

bdhtm_core::impl_bdl_kv!(BdlSkiplist, name: "bdl-skiplist", tag: SKIP_KV_TAG,
    new: BdlSkiplist::new,
    recover: |esys, htm, live| BdlSkiplist::recover(esys, htm, live, 1));

impl Drop for BdlSkiplist {
    fn drop(&mut self) {
        // Single-threaded at this point: free every tower.
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
        // Only per-thread preallocation flushes (one live block header per
        // p_new) happen on the operation path.
        assert!(
            during.flushes < 500,
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
