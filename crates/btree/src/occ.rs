//! OCC-ABTree and Elim-ABTree (Srivastava & Brown, PPoPP 2022): fully
//! persistent (a,b)-trees — every node in NVM, zero DRAM for data.
//!
//! [`ElimAbTree`] adds *publishing elimination*: an updater that fails to
//! acquire a leaf's lock publishes its operation; the lock holder applies
//! published operations targeting its leaf in one batch under one fence,
//! and an insert–remove pair on the same key cancels outright — fewer
//! operations and fewer NVM writes on skewed workloads.

use crate::LEAF_CAP;
use htm_sim::sync::{Mutex, RwLock};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Block tag for OCC/Elim tree nodes.
pub const OCC_NODE_TAG: u64 = 0x4F43_4342; // "OCCB"

// Node block payload (class 3, 124 words):
const N_ISLEAF: u64 = 0;
const N_COUNT: u64 = 1;
// Leaves: pairs from word 3 (60 entries).
const N_PAIRS: u64 = 3;
// Inner: sorted keys at 3..3+K, children at 64..64+K+1 (K = 40).
const N_KEYS: u64 = 3;
const N_KIDS: u64 = 64;
const INNER_KEYS: u64 = 40;

const LEAF_LOCKS: usize = 512;
/// Pending-op slots per elimination stripe.
const ELIM_SPIN: usize = 4000;

#[derive(Clone, Copy, PartialEq, Debug)]
enum PendKind {
    Insert,
    Remove,
}

struct Pending {
    leaf: NvmAddr,
    kind: PendKind,
    key: u64,
    value: u64,
    /// 0 = pending; 1 = applied, no previous; 2 = applied, had previous
    /// (old value in `old`); 3 = abandoned by combiner (retry yourself).
    state: Arc<(AtomicU64, AtomicU64)>,
}

/// The strictly durable, fully-NVM (a,b)-tree.
pub struct OccAbTree {
    heap: Arc<NvmHeap>,
    alloc: Arc<PAlloc>,
    root: RwLock<NvmAddr>,
    leaf_locks: Box<[Mutex<()>]>,
    /// One sequence counter per leaf-lock stripe (DRAM only): odd while
    /// a lock holder is rewriting a leaf's pairs, so the lock-free
    /// [`get`](Self::get) can tell a torn read from a clean one.
    leaf_seq: Box<[AtomicU64]>,
    /// Publishing-elimination queues (used only by [`ElimAbTree`]).
    elim: Option<Box<[Mutex<Vec<Pending>>]>>,
}

/// OCC-ABTree with publishing elimination enabled.
pub struct ElimAbTree(pub OccAbTree);

/// An open write section of a leaf stripe's seqlock (see
/// `OccAbTree::leaf_write`).
struct LeafWrite<'a>(&'a AtomicU64);

impl Drop for LeafWrite<'_> {
    fn drop(&mut self) {
        // Release: every pair write of the section is visible before
        // the count turns even again.
        self.0
            .store(self.0.load(Ordering::Relaxed) + 1, Ordering::Release);
    }
}

impl OccAbTree {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        Self::build(heap, false)
    }

    fn build(heap: Arc<NvmHeap>, elim: bool) -> Self {
        let alloc = Arc::new(PAlloc::new(Arc::clone(&heap)));
        let root = Self::new_node(&heap, &alloc, true);
        Self {
            heap,
            alloc,
            root: RwLock::new(root),
            leaf_locks: (0..LEAF_LOCKS).map(|_| Mutex::new(())).collect(),
            leaf_seq: (0..LEAF_LOCKS).map(|_| AtomicU64::new(0)).collect(),
            elim: elim.then(|| (0..LEAF_LOCKS).map(|_| Mutex::new(Vec::new())).collect()),
        }
    }

    fn new_node(heap: &NvmHeap, alloc: &PAlloc, leaf: bool) -> NvmAddr {
        let n = alloc.alloc_persisted(124);
        Header::set_tag(heap, n, OCC_NODE_TAG);
        Header::set_epoch(heap, n, 0);
        heap.write(n.offset(HDR_WORDS + N_ISLEAF), leaf as u64);
        heap.persist_range(n, HDR_WORDS + 2);
        heap.fence();
        n
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    /// The trees keep no data in DRAM (Table 3).
    pub fn dram_bytes(&self) -> u64 {
        0
    }

    #[inline]
    fn w(&self, node: NvmAddr, idx: u64) -> u64 {
        self.heap
            .word(node.offset(HDR_WORDS + idx))
            .load(Ordering::Acquire)
    }

    #[inline]
    fn leaf_lock(&self, leaf: NvmAddr) -> (&Mutex<()>, usize) {
        let i = (leaf.0 as usize * 0x9E37) % LEAF_LOCKS;
        (&self.leaf_locks[i], i)
    }

    /// Descends to the leaf covering `key`, charging one media read per
    /// node visited (the all-NVM traversal cost that Fig. 3 punishes).
    fn descend(&self, root: NvmAddr, key: u64) -> NvmAddr {
        let mut n = root;
        loop {
            self.heap.charge_media_read();
            if self.w(n, N_ISLEAF) == 1 {
                return n;
            }
            let count = self.w(n, N_COUNT); // number of keys
            let mut i = 0;
            while i < count && self.w(n, N_KEYS + i) <= key {
                i += 1;
            }
            n = NvmAddr(self.w(n, N_KIDS + i));
        }
    }

    fn leaf_find(&self, leaf: NvmAddr, key: u64) -> Option<(u64, u64)> {
        let n = self.w(leaf, N_COUNT);
        for i in 0..n {
            if self.w(leaf, N_PAIRS + 2 * i) == key {
                return Some((i, self.w(leaf, N_PAIRS + 2 * i + 1)));
            }
        }
        None
    }

    /// Opens the write side of `leaf`'s stripe seqlock; the caller holds
    /// the stripe lock, so the counter has one writer at a time. Dropping
    /// the guard closes the section.
    fn leaf_write(&self, leaf: NvmAddr) -> LeafWrite<'_> {
        let seq = &self.leaf_seq[self.leaf_lock(leaf).1];
        seq.store(seq.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // Release fence: the odd count is visible before any pair write
        // that follows it (pairs with the Acquire fence in `get`).
        fence(Ordering::Release);
        LeafWrite(seq)
    }

    /// Applies an insert to a locked, non-full leaf. Returns the
    /// previous value (`None` = appended).
    fn apply_insert(&self, leaf: NvmAddr, key: u64, value: u64) -> Option<u64> {
        let _section = self.leaf_write(leaf);
        if let Some((i, old)) = self.leaf_find(leaf, key) {
            let va = leaf.offset(HDR_WORDS + N_PAIRS + 2 * i + 1);
            self.heap.write(va, value);
            self.heap.clwb(va);
            return Some(old);
        }
        let n = self.w(leaf, N_COUNT);
        debug_assert!((n as usize) < LEAF_CAP);
        let e = leaf.offset(HDR_WORDS + N_PAIRS + 2 * n);
        self.heap.write(e, key);
        self.heap.write(e.offset(1), value);
        self.heap.persist_range(e, 2);
        self.heap.write(leaf.offset(HDR_WORDS + N_COUNT), n + 1);
        self.heap.clwb(leaf.offset(HDR_WORDS + N_COUNT));
        None
    }

    fn apply_remove(&self, leaf: NvmAddr, key: u64) -> Option<u64> {
        let _section = self.leaf_write(leaf);
        let (i, v) = self.leaf_find(leaf, key)?;
        let n = self.w(leaf, N_COUNT);
        if i != n - 1 {
            let lk = self.w(leaf, N_PAIRS + 2 * (n - 1));
            let lv = self.w(leaf, N_PAIRS + 2 * (n - 1) + 1);
            let e = leaf.offset(HDR_WORDS + N_PAIRS + 2 * i);
            self.heap.write(e, lk);
            // The hole now pairs the last key with the removed key's
            // value until the next write lands.
            htm_sim::chaos::point("btree::remove_move");
            self.heap.write(e.offset(1), lv);
            self.heap.persist_range(e, 2);
        }
        self.heap.write(leaf.offset(HDR_WORDS + N_COUNT), n - 1);
        self.heap.clwb(leaf.offset(HDR_WORDS + N_COUNT));
        Some(v)
    }

    /// Inserts or updates; strictly durable on return.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        loop {
            let guard = self.root.read();
            let leaf = self.descend(*guard, key);
            let (lock, stripe) = self.leaf_lock(leaf);
            match lock.try_lock() {
                Some(_g) => {
                    let full = self.w(leaf, N_COUNT) as usize >= LEAF_CAP
                        && self.leaf_find(leaf, key).is_none();
                    if full {
                        drop(_g);
                        drop(guard);
                        self.split_leaf(key);
                        continue;
                    }
                    let old = self.apply_insert(leaf, key, value);
                    self.drain_elim(stripe, leaf);
                    self.heap.fence();
                    return old;
                }
                None => {
                    if let Some(r) =
                        self.eliminate(stripe, leaf, PendKind::Insert, key, value, &guard)
                    {
                        return r;
                    }
                    // No elimination (or abandoned): take the lock slowly.
                    let _g = lock.lock();
                    let full = self.w(leaf, N_COUNT) as usize >= LEAF_CAP
                        && self.leaf_find(leaf, key).is_none();
                    if full {
                        drop(_g);
                        drop(guard);
                        self.split_leaf(key);
                        continue;
                    }
                    let old = self.apply_insert(leaf, key, value);
                    self.drain_elim(stripe, leaf);
                    self.heap.fence();
                    return old;
                }
            }
        }
    }

    /// Removes `key`; strictly durable on return.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let guard = self.root.read();
        let leaf = self.descend(*guard, key);
        let (lock, stripe) = self.leaf_lock(leaf);
        if lock.try_lock().is_none() {
            if let Some(r) = self.eliminate(stripe, leaf, PendKind::Remove, key, 0, &guard) {
                return r;
            }
        }
        let _g = lock.lock();
        let v = self.apply_remove(leaf, key);
        self.drain_elim(stripe, leaf);
        self.heap.fence();
        v
    }

    /// Optimistic lock-free lookup: reads the leaf without its lock and
    /// retries if a writer's section overlapped the read, so a key is
    /// never returned with the value of a pair mid-move.
    pub fn get(&self, key: u64) -> Option<u64> {
        let guard = self.root.read();
        let leaf = self.descend(*guard, key);
        let seq = &self.leaf_seq[self.leaf_lock(leaf).1];
        loop {
            let before = seq.load(Ordering::Acquire);
            if before.is_multiple_of(2) {
                let found = self.leaf_find(leaf, key).map(|(_, v)| v);
                fence(Ordering::Acquire);
                if seq.load(Ordering::Relaxed) == before {
                    return found;
                }
            }
            std::thread::yield_now();
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Publishing elimination: enqueue the op and wait briefly for the
    /// current lock holder to apply it. `None` means the caller must
    /// perform the operation itself.
    fn eliminate(
        &self,
        stripe: usize,
        leaf: NvmAddr,
        kind: PendKind,
        key: u64,
        value: u64,
        _guard: &htm_sim::sync::RwLockReadGuard<'_, NvmAddr>,
    ) -> Option<Option<u64>> {
        let queues = self.elim.as_ref()?;
        let state = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        queues[stripe].lock().push(Pending {
            leaf,
            kind,
            key,
            value,
            state: Arc::clone(&state),
        });
        for _ in 0..ELIM_SPIN {
            match state.0.load(Ordering::Acquire) {
                0 => std::hint::spin_loop(),
                1 => return Some(None),
                2 => return Some(Some(state.1.load(Ordering::Acquire))),
                _ => return None, // abandoned: do it yourself
            }
        }
        // Timed out: withdraw the op if it is still pending.
        let mut q = queues[stripe].lock();
        if let Some(pos) = q
            .iter()
            .position(|p| Arc::ptr_eq(&p.state, &state) && p.state.0.load(Ordering::Acquire) == 0)
        {
            q.remove(pos);
            return None;
        }
        drop(q);
        // The combiner picked it up: wait for the verdict.
        loop {
            match state.0.load(Ordering::Acquire) {
                0 => std::thread::yield_now(),
                1 => return Some(None),
                2 => return Some(Some(state.1.load(Ordering::Acquire))),
                _ => return None,
            }
        }
    }

    /// Drains published operations for `leaf` while holding its lock:
    /// insert–remove pairs on the same key cancel (the elimination), the
    /// rest apply in one batch under the caller's single fence.
    fn drain_elim(&self, stripe: usize, leaf: NvmAddr) {
        let Some(queues) = self.elim.as_ref() else {
            return;
        };
        let mut mine: Vec<Pending> = Vec::new();
        {
            let mut q = queues[stripe].lock();
            let mut i = 0;
            while i < q.len() {
                if q[i].leaf == leaf {
                    mine.push(q.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        // Cancel opposite pairs on the same key.
        let mut i = 0;
        while i < mine.len() {
            let mut cancelled = false;
            let mut j = i + 1;
            while j < mine.len() {
                if mine[j].key == mine[i].key && mine[j].kind != mine[i].kind {
                    // Apply logically: the earlier op then the later one;
                    // net effect per current leaf state.
                    let (ins, rem) = if mine[i].kind == PendKind::Insert {
                        (i, j)
                    } else {
                        (j, i)
                    };
                    let existing = self.leaf_find(leaf, mine[i].key).map(|(_, v)| v);
                    // insert sees `existing`; remove sees the inserted
                    // value. Leaf memory is never touched: eliminated.
                    match existing {
                        Some(old) => {
                            // insert replaces old; remove removes new.
                            mine[ins].state.1.store(old, Ordering::Release);
                            mine[ins].state.0.store(2, Ordering::Release);
                            mine[rem].state.1.store(mine[ins].value, Ordering::Release);
                            mine[rem].state.0.store(2, Ordering::Release);
                            // Net effect: the original key is gone.
                            let full_remove = self.apply_remove(leaf, mine[i].key);
                            debug_assert!(full_remove.is_some());
                        }
                        None => {
                            mine[ins].state.0.store(1, Ordering::Release);
                            mine[rem].state.1.store(mine[ins].value, Ordering::Release);
                            mine[rem].state.0.store(2, Ordering::Release);
                        }
                    }
                    mine.remove(j);
                    mine.remove(i);
                    cancelled = true;
                    break;
                }
                j += 1;
            }
            if !cancelled {
                i += 1;
            }
        }
        // Apply the remainder (abandoning ops a full leaf cannot take).
        for p in mine {
            match p.kind {
                PendKind::Insert => {
                    if self.w(leaf, N_COUNT) as usize >= LEAF_CAP
                        && self.leaf_find(leaf, p.key).is_none()
                    {
                        p.state.0.store(3, Ordering::Release);
                        continue;
                    }
                    match self.apply_insert(leaf, p.key, p.value) {
                        None => p.state.0.store(1, Ordering::Release),
                        Some(old) => {
                            p.state.1.store(old, Ordering::Release);
                            p.state.0.store(2, Ordering::Release);
                        }
                    }
                }
                PendKind::Remove => match self.apply_remove(leaf, p.key) {
                    None => p.state.0.store(1, Ordering::Release),
                    Some(old) => {
                        p.state.1.store(old, Ordering::Release);
                        p.state.0.store(2, Ordering::Release);
                    }
                },
            }
        }
    }

    /// Splits the (full) leaf on the path to `key` under the structure
    /// write lock; children persist before the parent references them.
    fn split_leaf(&self, key: u64) {
        let mut root = self.root.write();
        let mut path = Vec::new();
        let mut n = *root;
        loop {
            if self.w(n, N_ISLEAF) == 1 {
                break;
            }
            let count = self.w(n, N_COUNT);
            let mut i = 0;
            while i < count && self.w(n, N_KEYS + i) <= key {
                i += 1;
            }
            path.push((n, i));
            n = NvmAddr(self.w(n, N_KIDS + i));
        }
        let leaf = n;
        if (self.w(leaf, N_COUNT) as usize) < LEAF_CAP {
            return;
        }
        // Redistribute into two fresh leaves.
        let cnt = self.w(leaf, N_COUNT);
        let mut pairs: Vec<(u64, u64)> = (0..cnt)
            .map(|i| {
                (
                    self.w(leaf, N_PAIRS + 2 * i),
                    self.w(leaf, N_PAIRS + 2 * i + 1),
                )
            })
            .collect();
        pairs.sort_unstable();
        let mid = pairs.len() / 2;
        let sep = pairs[mid].0;
        let left = Self::new_node(&self.heap, &self.alloc, true);
        let right = Self::new_node(&self.heap, &self.alloc, true);
        for (dst, part) in [(left, &pairs[..mid]), (right, &pairs[mid..])] {
            for (i, (k, v)) in part.iter().enumerate() {
                self.heap
                    .write(dst.offset(HDR_WORDS + N_PAIRS + 2 * i as u64), *k);
                self.heap
                    .write(dst.offset(HDR_WORDS + N_PAIRS + 2 * i as u64 + 1), *v);
            }
            self.heap
                .write(dst.offset(HDR_WORDS + N_COUNT), part.len() as u64);
            self.heap.persist_range(dst, HDR_WORDS + 124);
        }
        self.heap.fence();
        // Install into the parent (or grow a new root).
        self.insert_sep(&mut root, &path, leaf, sep, left, right);
        self.alloc.free(leaf);
    }

    fn insert_sep(
        &self,
        root: &mut NvmAddr,
        path: &[(NvmAddr, u64)],
        _old: NvmAddr,
        sep: u64,
        left: NvmAddr,
        right: NvmAddr,
    ) {
        let Some(&(parent, slot)) = path.last() else {
            // Leaf was the root: grow.
            let nr = Self::new_node(&self.heap, &self.alloc, false);
            self.heap.write(nr.offset(HDR_WORDS + N_COUNT), 1);
            self.heap.write(nr.offset(HDR_WORDS + N_KEYS), sep);
            self.heap.write(nr.offset(HDR_WORDS + N_KIDS), left.0);
            self.heap.write(nr.offset(HDR_WORDS + N_KIDS + 1), right.0);
            self.heap.persist_range(nr, HDR_WORDS + 124);
            self.heap.fence();
            *root = nr;
            return;
        };
        // Shift keys/children right of `slot` and install sep/left/right.
        let count = self.w(parent, N_COUNT);
        assert!(count < INNER_KEYS, "inner overflow; see recursive split");
        let mut i = count;
        while i > slot {
            let k = self.w(parent, N_KEYS + i - 1);
            self.heap.write(parent.offset(HDR_WORDS + N_KEYS + i), k);
            let c = self.w(parent, N_KIDS + i);
            self.heap
                .write(parent.offset(HDR_WORDS + N_KIDS + i + 1), c);
            i -= 1;
        }
        self.heap
            .write(parent.offset(HDR_WORDS + N_KEYS + slot), sep);
        self.heap
            .write(parent.offset(HDR_WORDS + N_KIDS + slot), left.0);
        self.heap
            .write(parent.offset(HDR_WORDS + N_KIDS + slot + 1), right.0);
        self.heap
            .write(parent.offset(HDR_WORDS + N_COUNT), count + 1);
        self.heap.persist_range(parent, HDR_WORDS + 124);
        self.heap.fence();
        // Split the parent too if it just filled up.
        if count + 1 >= INNER_KEYS {
            self.split_inner(root, &path[..path.len() - 1], parent);
        }
    }

    fn split_inner(&self, root: &mut NvmAddr, path: &[(NvmAddr, u64)], node: NvmAddr) {
        let count = self.w(node, N_COUNT);
        let mid = count / 2;
        let sep = self.w(node, N_KEYS + mid);
        let left = Self::new_node(&self.heap, &self.alloc, false);
        let right = Self::new_node(&self.heap, &self.alloc, false);
        // left: keys [0, mid), kids [0, mid]
        for i in 0..mid {
            let k = self.w(node, N_KEYS + i);
            self.heap.write(left.offset(HDR_WORDS + N_KEYS + i), k);
        }
        for i in 0..=mid {
            let c = self.w(node, N_KIDS + i);
            self.heap.write(left.offset(HDR_WORDS + N_KIDS + i), c);
        }
        self.heap.write(left.offset(HDR_WORDS + N_COUNT), mid);
        // right: keys (mid, count), kids (mid, count]
        let rn = count - mid - 1;
        for i in 0..rn {
            let k = self.w(node, N_KEYS + mid + 1 + i);
            self.heap.write(right.offset(HDR_WORDS + N_KEYS + i), k);
        }
        for i in 0..=rn {
            let c = self.w(node, N_KIDS + mid + 1 + i);
            self.heap.write(right.offset(HDR_WORDS + N_KIDS + i), c);
        }
        self.heap.write(right.offset(HDR_WORDS + N_COUNT), rn);
        self.heap.persist_range(left, HDR_WORDS + 124);
        self.heap.persist_range(right, HDR_WORDS + 124);
        self.heap.fence();
        self.insert_sep(root, path, node, sep, left, right);
        self.alloc.free(node);
    }

    /// Reopens a fully persistent tree (root address from the root slot
    /// is unnecessary: the scan locates the unique root as the node no
    /// other node references).
    pub fn recover(heap: Arc<NvmHeap>) -> OccAbTree {
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let alloc = Arc::new(alloc);
        let mut nodes = Vec::new();
        let mut referenced = std::collections::HashSet::new();
        for b in &blocks {
            if b.tag != OCC_NODE_TAG {
                continue;
            }
            nodes.push(b.addr);
            if heap.read(b.addr.offset(HDR_WORDS + N_ISLEAF)) == 0 {
                let count = heap.read(b.addr.offset(HDR_WORDS + N_COUNT));
                for i in 0..=count {
                    referenced.insert(heap.read(b.addr.offset(HDR_WORDS + N_KIDS + i)));
                }
            }
        }
        let root = nodes
            .iter()
            .copied()
            .find(|n| !referenced.contains(&n.0))
            .expect("no root found in recovered heap");
        OccAbTree {
            heap,
            alloc,
            root: RwLock::new(root),
            leaf_locks: (0..LEAF_LOCKS).map(|_| Mutex::new(())).collect(),
            leaf_seq: (0..LEAF_LOCKS).map(|_| AtomicU64::new(0)).collect(),
            elim: None,
        }
    }
}

impl ElimAbTree {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        ElimAbTree(OccAbTree::build(heap, true))
    }

    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        self.0.insert(key, value)
    }

    pub fn remove(&self, key: u64) -> Option<u64> {
        self.0.remove(key)
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        self.0.get(key)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.0.contains(key)
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        self.0.heap()
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.0.nvm_bytes()
    }

    pub fn dram_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;
    use std::collections::BTreeMap;

    fn occ() -> OccAbTree {
        OccAbTree::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20))))
    }

    #[test]
    fn basic_semantics() {
        let t = occ();
        assert_eq!(t.insert(1, 2), None);
        assert_eq!(t.insert(1, 3), Some(2));
        assert_eq!(t.get(1), Some(3));
        assert_eq!(t.remove(1), Some(3));
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn splits_preserve_data() {
        let t = occ();
        let n = 20_000u64;
        for k in 0..n {
            t.insert(k, k + 1);
        }
        for k in 0..n {
            assert_eq!(t.get(k), Some(k + 1), "key {k} lost");
        }
    }

    #[test]
    fn matches_oracle() {
        let t = occ();
        let mut oracle = BTreeMap::new();
        let mut rng = 31u64;
        for i in 0..12_000u64 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = rng % 8192;
            match rng % 3 {
                0 => assert_eq!(t.insert(key, i), oracle.insert(key, i)),
                1 => assert_eq!(t.remove(key), oracle.remove(&key)),
                _ => assert_eq!(t.get(key), oracle.get(&key).copied()),
            }
        }
    }

    #[test]
    fn fully_persistent_crash_recovery() {
        let t = occ();
        for k in 0..8000 {
            t.insert(k, k * 5);
        }
        for k in 0..1000 {
            t.remove(k);
        }
        let heap2 = Arc::new(NvmHeap::from_image(t.heap().crash()));
        let t2 = OccAbTree::recover(heap2);
        for k in 0..1000 {
            assert_eq!(t2.get(k), None, "removed key {k} resurrected");
        }
        for k in 1000..8000 {
            assert_eq!(t2.get(k), Some(k * 5), "durable key {k} lost");
        }
    }

    #[test]
    fn concurrent_inserts() {
        let t = Arc::new(occ());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..3000u64 {
                        let k = tid * 1_000_000 + i;
                        t.insert(k, k);
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..3000u64 {
                let k = tid * 1_000_000 + i;
                assert_eq!(t.get(k), Some(k), "lost {k}");
            }
        }
    }

    #[test]
    fn elim_tree_matches_oracle_under_contention() {
        let t = Arc::new(ElimAbTree::new(Arc::new(NvmHeap::new(
            NvmConfig::for_tests(64 << 20),
        ))));
        // Heavy contention on a tiny key range so elimination fires.
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let mut rng = tid + 41;
                    for _ in 0..4000 {
                        rng ^= rng >> 12;
                        rng ^= rng << 25;
                        rng ^= rng >> 27;
                        let k = rng % 32;
                        match rng % 3 {
                            0 => {
                                t.insert(k, k * 101);
                            }
                            1 => {
                                t.remove(k);
                            }
                            _ => {
                                if let Some(v) = t.get(k) {
                                    assert_eq!(v, k * 101);
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn elim_tree_basic_semantics() {
        let t = ElimAbTree::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20))));
        assert_eq!(t.insert(9, 90), None);
        assert_eq!(t.get(9), Some(90));
        assert_eq!(t.remove(9), Some(90));
        assert_eq!(t.get(9), None);
        for k in 0..5000 {
            t.insert(k, k);
        }
        for k in 0..5000 {
            assert_eq!(t.get(k), Some(k));
        }
    }
}
