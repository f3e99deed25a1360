//! OCC-ABTree and Elim-ABTree (Srivastava & Brown, PPoPP 2022): fully
//! persistent (a,b)-trees — every node in NVM, zero DRAM for data.
//!
//! The leaves are the crate's shared leaf. Inner nodes change only by
//! copy-on-write: a split makes its children and ancestor copies durable,
//! then swings one 8-byte pointer (a child word of the lowest unchanged
//! ancestor, or the heap's root slot). Recovery frees every block the
//! root slot does not reach.
//!
//! [`ElimAbTree`] adds *publishing elimination*: an updater that fails to
//! acquire a leaf's lock publishes its operation; the lock holder applies
//! published operations targeting its leaf in one batch under one fence,
//! and an insert–remove pair on the same key cancels outright — fewer
//! operations and fewer NVM writes on skewed workloads.

use crate::leaf::{self, Stripes};
use htm_sim::sync::{Mutex, RwLock};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Block tag for OCC/Elim tree nodes.
pub const OCC_NODE_TAG: u64 = 0x4F43_4342; // "OCCB"

/// The heap root slot holding the root's address (the tree owns its heap).
const ROOT_SLOT: u64 = 16;
// Inner node payload: word 0 (the leaf's kind word) reads 0, the key
// count at 2, sorted keys at 3..3+K, children at 64..64+K+1 (K = 40).
const N_COUNT: u64 = 2;
const N_KEYS: u64 = 3;
const N_KIDS: u64 = 64;
const INNER_KEYS: u64 = 40;
const INNER_PAYLOAD: u64 = N_KIDS + INNER_KEYS + 1;

/// Spins a published op waits before trying to withdraw.
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
    /// (old value in `.1`); 3 = abandoned by combiner (retry yourself).
    state: Arc<(AtomicU64, AtomicU64)>,
}

impl Pending {
    /// Reports the op applied, with the value it replaced or removed.
    fn finish(&self, old: Option<u64>) {
        if let Some(v) = old {
            self.state.1.store(v, Ordering::Release);
        }
        self.state
            .0
            .store(1 + old.is_some() as u64, Ordering::Release);
    }
}

/// The strictly durable, fully-NVM (a,b)-tree.
pub struct OccAbTree {
    heap: Arc<NvmHeap>,
    alloc: PAlloc,
    root: RwLock<NvmAddr>,
    leaves: Stripes,
    /// Publishing-elimination queues (used only by [`ElimAbTree`]).
    elim: Option<Box<[Mutex<Vec<Pending>>]>>,
}

/// OCC-ABTree with publishing elimination enabled.
pub struct ElimAbTree(pub OccAbTree);

impl OccAbTree {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        Self::build(heap, false)
    }

    fn build(heap: Arc<NvmHeap>, elim: bool) -> Self {
        let alloc = PAlloc::new(Arc::clone(&heap));
        let mut t = Self::with_root(heap, alloc, NvmAddr::NULL);
        t.plant_root();
        t.elim = elim.then(|| (0..leaf::STRIPES).map(|_| Mutex::new(Vec::new())).collect());
        t
    }

    fn with_root(heap: Arc<NvmHeap>, alloc: PAlloc, root: NvmAddr) -> Self {
        OccAbTree {
            heap,
            alloc,
            root: RwLock::new(root),
            leaves: Stripes::new(),
            elim: None,
        }
    }

    /// Makes an empty leaf the durable root.
    fn plant_root(&mut self) {
        let root = leaf::alloc(&self.alloc);
        leaf::commit(&self.heap, root, OCC_NODE_TAG, 0);
        self.heap.fence();
        self.swing(None, root);
        *self.root.get_mut() = root;
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

    /// The child of inner node `n` covering `key`, and its index.
    fn child(&self, n: NvmAddr, key: u64) -> (NvmAddr, u64) {
        let count = self.w(n, N_COUNT);
        let mut i = 0;
        while i < count && self.w(n, N_KEYS + i) <= key {
            i += 1;
        }
        (NvmAddr(self.w(n, N_KIDS + i)), i)
    }

    /// Descends to `key`'s leaf, charging one media read per node visited
    /// (the all-NVM traversal cost that Fig. 3 punishes).
    fn descend(&self, root: NvmAddr, key: u64) -> NvmAddr {
        let mut n = root;
        loop {
            self.heap.charge_media_read();
            if leaf::is_leaf(&self.heap, n) {
                return n;
            }
            n = self.child(n, key).0;
        }
    }

    /// Whether `leaf` has no room for `key`, which it does not hold.
    fn needs_split(&self, leaf: NvmAddr, key: u64) -> bool {
        leaf::is_full(&self.heap, leaf) && leaf::find(&self.heap, leaf, key).is_none()
    }

    /// Applies an insert to a locked leaf with room for it.
    fn apply_insert(&self, leaf: NvmAddr, key: u64, value: u64) -> Option<u64> {
        let heap = &*self.heap;
        if let Some((slot, old)) = leaf::find(heap, leaf, key) {
            leaf::update(heap, leaf, slot, value);
            return Some(old);
        }
        let slot = self
            .leaves
            .fill(heap, leaf, key, value)
            .expect("the caller checked the leaf has room");
        leaf::publish(heap, leaf, slot);
        None
    }

    fn apply_remove(&self, leaf: NvmAddr, key: u64) -> Option<u64> {
        let (slot, v) = leaf::find(&self.heap, leaf, key)?;
        leaf::remove(&self.heap, leaf, slot);
        Some(v)
    }

    /// Inserts or updates; strictly durable on return.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        loop {
            let guard = self.root.read();
            let leaf = self.descend(*guard, key);
            let lock = self.leaves.lock(leaf);
            let locked = match lock.try_lock() {
                Some(g) => g,
                None => {
                    if let Some(r) = self.eliminate(leaf, PendKind::Insert, key, value, &guard) {
                        return r;
                    }
                    // No elimination (or abandoned): take the lock slowly.
                    lock.lock()
                }
            };
            if self.needs_split(leaf, key) {
                drop(locked);
                drop(guard);
                self.split_leaf(key);
                continue;
            }
            let old = self.apply_insert(leaf, key, value);
            self.drain_elim(leaf);
            self.heap.fence();
            return old;
        }
    }

    /// Removes `key`; strictly durable on return.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let guard = self.root.read();
        let leaf = self.descend(*guard, key);
        let lock = self.leaves.lock(leaf);
        if lock.try_lock().is_none() {
            if let Some(r) = self.eliminate(leaf, PendKind::Remove, key, 0, &guard) {
                return r;
            }
        }
        let _locked = lock.lock();
        let v = self.apply_remove(leaf, key);
        self.drain_elim(leaf);
        self.heap.fence();
        v
    }

    /// Optimistic lock-free lookup (the shared leaf's validated read).
    pub fn get(&self, key: u64) -> Option<u64> {
        let guard = self.root.read();
        let leaf = self.descend(*guard, key);
        self.leaves.get(&self.heap, leaf, key)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Publishing elimination: enqueue the op and wait briefly for the lock
    /// holder to apply it. `None`: the caller performs it itself.
    fn eliminate(
        &self,
        leaf: NvmAddr,
        kind: PendKind,
        key: u64,
        value: u64,
        _guard: &htm_sim::sync::RwLockReadGuard<'_, NvmAddr>,
    ) -> Option<Option<u64>> {
        let queues = self.elim.as_ref()?;
        let stripe = Stripes::index(leaf);
        let state = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        queues[stripe].lock().push(Pending {
            leaf,
            kind,
            key,
            value,
            state: Arc::clone(&state),
        });
        // `None` while pending, then the caller's answer.
        let verdict = || match state.0.load(Ordering::Acquire) {
            0 => None,
            1 => Some(Some(None)),
            2 => Some(Some(Some(state.1.load(Ordering::Acquire)))),
            _ => Some(None), // abandoned: do it yourself
        };
        for _ in 0..ELIM_SPIN {
            if let Some(v) = verdict() {
                return v;
            }
            std::hint::spin_loop();
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
            if let Some(v) = verdict() {
                return v;
            }
            std::thread::yield_now();
        }
    }

    /// Drains published ops for the locked `leaf`: insert–remove pairs on a
    /// key cancel, the rest apply under the caller's single fence.
    fn drain_elim(&self, leaf: NvmAddr) {
        let Some(queues) = self.elim.as_ref() else {
            return;
        };
        let mut q = queues[Stripes::index(leaf)].lock();
        let (mut mine, rest): (Vec<Pending>, Vec<Pending>) = std::mem::take(&mut *q)
            .into_iter()
            .partition(|p| p.leaf == leaf);
        *q = rest;
        drop(q);
        let mut i = 0;
        while i < mine.len() {
            let (k, kind) = (mine[i].key, mine[i].kind);
            let Some(j) = (i + 1..mine.len()).find(|&j| mine[j].key == k && mine[j].kind != kind)
            else {
                i += 1;
                continue;
            };
            let (b, a) = (mine.remove(j), mine.remove(i));
            let (ins, rem) = if a.kind == PendKind::Insert {
                (a, b)
            } else {
                (b, a)
            };
            // The insert goes first and the remove takes its value, so
            // the pair leaves the key absent; the leaf changes only if
            // the key was there before.
            ins.finish(self.apply_remove(leaf, k));
            rem.finish(Some(ins.value));
        }
        // Apply the remainder (abandoning ops a full leaf cannot take).
        for p in mine {
            match p.kind {
                PendKind::Insert if self.needs_split(leaf, p.key) => {
                    p.state.0.store(3, Ordering::Release)
                }
                PendKind::Insert => p.finish(self.apply_insert(leaf, p.key, p.value)),
                PendKind::Remove => p.finish(self.apply_remove(leaf, p.key)),
            }
        }
    }

    /// Splits the (full) leaf on the path to `key` under the structure
    /// write lock (module docs); the replaced nodes are freed last.
    fn split_leaf(&self, key: u64) {
        let heap = &*self.heap;
        let mut root = self.root.write();
        let mut path = Vec::new();
        let mut n = *root;
        while !leaf::is_leaf(heap, n) {
            let (kid, i) = self.child(n, key);
            path.push((n, i));
            n = kid;
        }
        if !leaf::is_full(heap, n) {
            return;
        }
        let split = leaf::split(heap, &self.alloc, n);
        split.commit(heap, OCC_NODE_TAG);
        let mut retired = vec![n];
        let (mut sep, [mut left, mut right]) = (split.sep, split.children);
        // Copy ancestors bottom-up; one that fills up splits in two.
        let (at, top) = loop {
            let Some((parent, slot)) = path.pop() else {
                // The root split: grow a new one.
                break (None, self.new_inner(&[sep], &[left.0, right.0]));
            };
            retired.push(parent);
            let count = self.w(parent, N_COUNT);
            let mut keys: Vec<u64> = (0..count).map(|i| self.w(parent, N_KEYS + i)).collect();
            let mut kids: Vec<u64> = (0..=count).map(|i| self.w(parent, N_KIDS + i)).collect();
            let slot = slot as usize;
            keys.insert(slot, sep);
            kids[slot] = left.0;
            kids.insert(slot + 1, right.0);
            if (keys.len() as u64) < INNER_KEYS {
                break (path.last().copied(), self.new_inner(&keys, &kids));
            }
            let mid = keys.len() / 2;
            sep = keys[mid];
            left = self.new_inner(&keys[..mid], &kids[..=mid]);
            right = self.new_inner(&keys[mid + 1..], &kids[mid + 1..]);
        };
        heap.fence();
        self.swing(at, top);
        if at.is_none() {
            *root = top;
        }
        leaf::free(heap, &self.alloc, &retired);
    }

    /// A durable-once-fenced inner node over `keys` and `kids`.
    fn new_inner(&self, keys: &[u64], kids: &[u64]) -> NvmAddr {
        let heap = &*self.heap;
        let n = self.alloc.alloc_persisted(INNER_PAYLOAD);
        Header::set_tag(heap, n, OCC_NODE_TAG);
        Header::set_epoch(heap, n, 0);
        heap.write(n.offset(HDR_WORDS + N_COUNT), keys.len() as u64);
        for (i, &k) in keys.iter().enumerate() {
            heap.write(n.offset(HDR_WORDS + N_KEYS + i as u64), k);
        }
        for (i, &c) in kids.iter().enumerate() {
            heap.write(n.offset(HDR_WORDS + N_KIDS + i as u64), c);
        }
        heap.persist_range(n, HDR_WORDS + INNER_PAYLOAD);
        n
    }

    /// Durably points the child word `at` (node, index), or the root slot
    /// for `None`, at `node`: the one write that publishes a split.
    fn swing(&self, at: Option<(NvmAddr, u64)>, node: NvmAddr) {
        let word = match at {
            Some((parent, slot)) => parent.offset(HDR_WORDS + N_KIDS + slot),
            None => self.heap.root(ROOT_SLOT),
        };
        self.heap.write(word, node.0);
        self.heap.clwb(word);
        self.heap.fence();
    }

    /// The nodes reachable from `root`, each with the key range its
    /// ancestors give it, parents before children.
    fn reachable(&self, root: NvmAddr) -> Vec<(NvmAddr, Option<u64>, Option<u64>)> {
        let mut out = Vec::new();
        let mut stack = vec![(root, None, None)];
        while let Some((n, lo, hi)) = stack.pop() {
            out.push((n, lo, hi));
            if leaf::is_leaf(&self.heap, n) {
                continue;
            }
            let count = self.w(n, N_COUNT).min(INNER_KEYS);
            let key = |i| Some(self.w(n, N_KEYS + i));
            for i in 0..=count {
                let (klo, khi) = (if i == 0 { lo } else { key(i - 1) }, key(i));
                stack.push((
                    NvmAddr(self.w(n, N_KIDS + i)),
                    klo,
                    if i == count { hi } else { khi },
                ));
            }
        }
        out
    }

    /// Reopens the tree from the root slot, freeing every block the root
    /// does not reach: nodes of a split cut off before or after its swing.
    pub fn recover(heap: Arc<NvmHeap>) -> OccAbTree {
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let root = NvmAddr(heap.read(heap.root(ROOT_SLOT)));
        let mut t = Self::with_root(heap, alloc, root);
        let reached: HashSet<NvmAddr> = match root.is_null() {
            true => HashSet::new(),
            false => t.reachable(root).into_iter().map(|(n, ..)| n).collect(),
        };
        let garbage: Vec<NvmAddr> = (blocks.iter().map(|b| b.addr))
            .filter(|a| !reached.contains(a))
            .collect();
        leaf::free(&t.heap, &t.alloc, &garbage);
        if root.is_null() {
            t.plant_root();
        }
        t
    }

    /// Checks the root slot, sorted inner keys, leaf keys between the
    /// separators above them, and that the allocator's live blocks are
    /// exactly the nodes the root reaches. Call while quiescent.
    pub fn validate(&self) -> Result<(), String> {
        let heap = &*self.heap;
        let root = *self.root.read();
        let slot = NvmAddr(heap.read(heap.root(ROOT_SLOT)));
        if slot != root {
            return Err(format!("root slot holds {slot:?}, the root is {root:?}"));
        }
        let nodes = self.reachable(root);
        for &(n, lo, hi) in &nodes {
            if leaf::is_leaf(heap, n) {
                leaf::check(heap, n, lo, hi)?;
                continue;
            }
            let count = self.w(n, N_COUNT);
            let keys: Vec<u64> = (0..count.min(INNER_KEYS))
                .map(|i| self.w(n, N_KEYS + i))
                .collect();
            if count == 0 || count >= INNER_KEYS || !keys.is_sorted() {
                return Err(format!("inner node {n:?} has keys {keys:?}"));
            }
        }
        leaf::check_live(&self.alloc, nodes.len())
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
