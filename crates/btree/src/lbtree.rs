//! LB+Tree: DRAM inner nodes over strictly durable NVM leaves (Liu et
//! al., VLDB 2020). The leaves are the crate's shared leaf; only the
//! inner tree is LB+Tree's own, and recovery rebuilds it from the leaves
//! it finds.

use crate::leaf::{self, Stripes};
use htm_sim::sync::RwLock;
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{BlockState, PAlloc};
use std::collections::HashMap;
use std::sync::Arc;

/// Block tag for LB+Tree leaves.
pub const LBTREE_LEAF_TAG: u64 = 0x4C42_5452; // "LBTR"

/// Inner fanout before splitting.
const INNER_CAP: usize = 64;

enum Node {
    Inner { keys: Vec<u64>, kids: Vec<Node> },
    Leaf(NvmAddr),
}

/// The LB+Tree: log-depth DRAM traversal, strictly durable NVM leaves
/// with unsorted entries, rebuilt from the leaf layer after a crash.
pub struct LbTree {
    heap: Arc<NvmHeap>,
    alloc: PAlloc,
    root: RwLock<Node>,
    leaves: Stripes,
}

impl LbTree {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        let alloc = PAlloc::new(Arc::clone(&heap));
        let leaf = Self::new_leaf(&heap, &alloc);
        Self::with_root(heap, alloc, Node::Leaf(leaf))
    }

    fn with_root(heap: Arc<NvmHeap>, alloc: PAlloc, root: Node) -> Self {
        LbTree {
            heap,
            alloc,
            root: RwLock::new(root),
            leaves: Stripes::new(),
        }
    }

    /// A durable empty leaf.
    fn new_leaf(heap: &NvmHeap, alloc: &PAlloc) -> NvmAddr {
        let leaf = leaf::alloc(alloc);
        leaf::commit(heap, leaf, LBTREE_LEAF_TAG, 0);
        heap.fence();
        leaf
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    /// Approximate DRAM held by the inner tree (Table 3), a small
    /// fraction of the vEB trees'.
    pub fn dram_bytes(&self) -> u64 {
        fn walk(n: &Node) -> u64 {
            match n {
                Node::Leaf(_) => 16,
                Node::Inner { keys, kids } => {
                    (keys.len() * 8 + kids.len() * 8) as u64
                        + 48
                        + kids.iter().map(walk).sum::<u64>()
                }
            }
        }
        walk(&self.root.read())
    }

    fn descend(mut n: &Node, key: u64) -> NvmAddr {
        while let Node::Inner { keys, kids } = n {
            n = &kids[keys.partition_point(|&k| k <= key)];
        }
        let Node::Leaf(a) = n else { unreachable!() };
        *a
    }

    /// Inserts or updates; returns the previous value. Strictly durable
    /// on return.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let heap = &*self.heap;
        loop {
            let guard = self.root.read();
            let leaf = Self::descend(&guard, key);
            let locked = self.leaves.lock(leaf).lock();
            heap.charge_media_read(); // leaf visit
            if let Some((slot, old)) = leaf::find(heap, leaf, key) {
                leaf::update(heap, leaf, slot, value);
                heap.fence();
                return Some(old);
            }
            if let Some(slot) = self.leaves.fill(heap, leaf, key, value) {
                // The pair is durable before the bit that makes it live.
                heap.fence();
                leaf::publish(heap, leaf, slot);
                heap.fence();
                return None;
            }
            // Leaf full: split under the structure write lock.
            drop(locked);
            drop(guard);
            self.split_leaf(key);
        }
    }

    /// Removes `key`, returning its value. Durable on return.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let heap = &*self.heap;
        let guard = self.root.read();
        let leaf = Self::descend(&guard, key);
        let _locked = self.leaves.lock(leaf).lock();
        heap.charge_media_read();
        let (slot, v) = leaf::find(heap, leaf, key)?;
        leaf::remove(heap, leaf, slot);
        heap.fence();
        Some(v)
    }

    /// Lock-free lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        let guard = self.root.read();
        let leaf = Self::descend(&guard, key);
        self.heap.charge_media_read();
        self.leaves.get(&self.heap, leaf, key)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Splits the (full) leaf on the path to `key`. The parent stays live
    /// until both children are: recovery frees children beside it.
    fn split_leaf(&self, key: u64) {
        let heap = &*self.heap;
        let mut root = self.root.write();
        // Re-descend: the tree may have changed before we got the lock.
        let old = Self::descend(&root, key);
        if !leaf::is_full(heap, old) {
            return; // someone split it for us
        }
        let split = leaf::split(heap, &self.alloc, old);
        // Both halves are durable before either bitmap.
        heap.fence();
        split.commit(heap, LBTREE_LEAF_TAG);
        heap.fence();
        if let Some((sep, right)) = Self::replace_leaf(&mut root, key, split.sep, split.children) {
            // The root split: grow a new one.
            let left = std::mem::replace(&mut *root, Node::Leaf(NvmAddr::NULL));
            *root = Node::Inner {
                keys: vec![sep],
                kids: vec![left, right],
            };
        }
        leaf::free(heap, &self.alloc, &[old]);
    }

    /// Puts `left`, `sep` and `right` in place of the leaf on the path to
    /// `key`, splitting the inner nodes that overflow on the way back up;
    /// returns the separator and right half `node` split into, if it did.
    fn replace_leaf(
        node: &mut Node,
        key: u64,
        sep: u64,
        [left, right]: [NvmAddr; 2],
    ) -> Option<(u64, Node)> {
        let Node::Inner { keys, kids } = node else {
            *node = Node::Leaf(left);
            return Some((sep, Node::Leaf(right)));
        };
        let i = keys.partition_point(|&k| k <= key);
        let (sep, right) = Self::replace_leaf(&mut kids[i], key, sep, [left, right])?;
        keys.insert(i, sep);
        kids.insert(i + 1, right);
        if kids.len() <= INNER_CAP {
            return None;
        }
        let mid = keys.len() / 2;
        let right = Node::Inner {
            keys: keys.split_off(mid + 1),
            kids: kids.split_off(mid + 1),
        };
        Some((keys.pop().expect("mid < keys.len()"), right))
    }

    /// Rebuilds the DRAM inner tree over the leaves a crashed heap holds,
    /// recovering the allocator once. A leaf whose keys all live in one
    /// larger leaf is the child of a split the crash cut short, a copy of
    /// part of its live parent; it is freed, and so are empty leaves and
    /// every block that is no committed leaf.
    pub fn recover(heap: Arc<NvmHeap>) -> LbTree {
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let mut found = Vec::new();
        let mut garbage = Vec::new();
        for b in &blocks {
            let committed = b.tag == LBTREE_LEAF_TAG
                && b.state == BlockState::Allocated
                && leaf::is_leaf(&heap, b.addr);
            let pairs = leaf::pairs(&heap, b.addr).filter(|_| committed);
            let mut keys: Vec<u64> = pairs.map(|(k, _)| k).collect();
            if keys.is_empty() {
                garbage.push(b.addr);
            } else {
                keys.sort_unstable();
                found.push((b.addr, keys));
            }
        }
        // Largest first: a split's parent is kept before its children.
        found.sort_by_key(|(_, keys)| std::cmp::Reverse(keys.len()));
        let mut owner: HashMap<u64, NvmAddr> = HashMap::new();
        let mut leaves = Vec::new();
        for (addr, keys) in found {
            let first = owner.get(&keys[0]).copied();
            if first.is_some() && keys.iter().all(|k| owner.get(k).copied() == first) {
                garbage.push(addr);
                continue;
            }
            owner.extend(keys.iter().map(|&k| (k, addr)));
            leaves.push((keys[0], addr));
        }
        leaf::free(&heap, &alloc, &garbage);
        leaves.sort_unstable();
        let root = if leaves.is_empty() {
            Node::Leaf(Self::new_leaf(&heap, &alloc))
        } else {
            Self::build_inner(&leaves)
        };
        Self::with_root(heap, alloc, root)
    }

    /// Checks that leaf keys lie between the separators above them and
    /// that the live blocks are the leaves reached. Call while quiescent.
    pub fn validate(&self) -> Result<(), String> {
        type Bound = Option<u64>;
        fn walk(
            heap: &NvmHeap,
            n: &Node,
            lo: Bound,
            hi: Bound,
            leaves: &mut usize,
        ) -> Result<(), String> {
            let Node::Inner { keys, kids } = n else {
                let Node::Leaf(a) = n else { unreachable!() };
                *leaves += 1;
                return leaf::check(heap, *a, lo, hi);
            };
            if kids.len() != keys.len() + 1 || !keys.is_sorted() {
                return Err(format!("inner node with keys {keys:?}"));
            }
            kids.iter().enumerate().try_for_each(|(i, kid)| {
                let klo = if i == 0 { lo } else { Some(keys[i - 1]) };
                walk(heap, kid, klo, keys.get(i).copied().or(hi), leaves)
            })
        }
        let mut leaves = 0;
        walk(&self.heap, &self.root.read(), None, None, &mut leaves)?;
        leaf::check_live(&self.alloc, leaves)
    }

    fn build_inner(leaves: &[(u64, NvmAddr)]) -> Node {
        if leaves.len() == 1 {
            return Node::Leaf(leaves[0].1);
        }
        let mut level: Vec<(u64, Node)> = leaves.iter().map(|&(k, a)| (k, Node::Leaf(a))).collect();
        while level.len() > 1 {
            let mut next = Vec::new();
            for group in level.chunks_mut(INNER_CAP / 2) {
                let first_key = group[0].0;
                let keys: Vec<u64> = group[1..].iter().map(|(k, _)| *k).collect();
                let kids: Vec<Node> = group
                    .iter_mut()
                    .map(|(_, n)| std::mem::replace(n, Node::Leaf(NvmAddr::NULL)))
                    .collect();
                next.push((first_key, Node::Inner { keys, kids }));
            }
            level = next;
        }
        level.pop().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;
    use std::collections::BTreeMap;

    fn tree() -> LbTree {
        LbTree::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20))))
    }

    #[test]
    fn basic_semantics() {
        let t = tree();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.get(5), Some(51));
        assert_eq!(t.remove(5), Some(51));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn splits_preserve_data() {
        let t = tree();
        let n = 20_000u64;
        for k in 0..n {
            t.insert(k, k * 2);
        }
        for k in 0..n {
            assert_eq!(t.get(k), Some(k * 2), "key {k} lost in split");
        }
    }

    #[test]
    fn matches_oracle() {
        let t = tree();
        let mut oracle = BTreeMap::new();
        let mut rng = 21u64;
        for i in 0..15_000u64 {
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
    fn inserts_survive_crash_via_leaf_rebuild() {
        let t = tree();
        for k in 0..5000 {
            t.insert(k, k + 7);
        }
        let t2 = LbTree::recover(Arc::new(NvmHeap::from_image(t.heap().crash())));
        t2.validate().unwrap();
        for k in 0..5000 {
            assert_eq!(t2.get(k), Some(k + 7), "durable key {k} lost");
        }
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(tree());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let k = tid * 1_000_000 + i;
                        t.insert(k, k + 3);
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..4000u64 {
                let k = tid * 1_000_000 + i;
                assert_eq!(t.get(k), Some(k + 3), "lost {k}");
            }
        }
    }

    #[test]
    fn dram_footprint_is_modest() {
        let t = tree();
        for k in 0..50_000u64 {
            t.insert(k, k);
        }
        // Inner tree only: far below the 16 B/key the data would need.
        assert!(t.dram_bytes() < 50_000 * 8);
        assert!(t.nvm_bytes() > 50_000 * 16 / 2);
    }
}
