//! Recovery's two passes over a [`VebIndex`], which bypass `MemAccess`
//! and use plain relaxed loads and stores: `bulk_fill` builds an index no
//! other thread can reach yet, bottom-up, and `walk_checked` walks a
//! quiescent one in key order, checking its structure.

use super::VebIndex;
use crate::node::{Internal, Node, EMPTY, LEAF_BITS};
use std::sync::atomic::Ordering;

/// What [`VebIndex::walk_checked`] hands each `(key, slot)` to; an
/// `Err` stops the walk.
pub type Visit<'v> = &'v mut dyn FnMut(u64, u64) -> Result<(), String>;

/// A subtree's first and last key, unless it is empty, or why it is
/// malformed.
type Walked = Result<Option<(u64, u64)>, String>;

impl VebIndex {
    /// Fills this empty index with `pairs`, sorted by key with no key
    /// twice, bottom-up: each node is written once, with what ascending
    /// `insert_tx` calls would leave in it, so the nodes and
    /// [`dram_bytes`](Self::dram_bytes) are the same. With an internal
    /// root and `threads > 1`, this thread writes the root's `min`, `max`
    /// and summary, and up to `threads` workers (this thread is the
    /// first) fill disjoint runs of whole root clusters, cut by key count.
    pub fn bulk_fill(&self, pairs: &[(u64, u64)], threads: usize) {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(
            pairs.last().is_none_or(|&(k, _)| k >> self.ubits == 0),
            "key beyond the universe"
        );
        // SAFETY: the root lives as long as the index.
        match unsafe { self.node(self.root) } {
            Node::Internal(i) => self.fill_internal(i, pairs, threads),
            Node::Leaf(_) => self.fill(self.root, self.ubits, pairs),
        }
    }

    /// Fills the empty node at `ptr`, `ubits` wide, with `pairs` (keys
    /// taken modulo `2^ubits`).
    fn fill(&self, ptr: u64, ubits: u32, pairs: &[(u64, u64)]) {
        // SAFETY: `ptr` is the root or a node `new_node` just made; the
        // index owns both and frees them only when dropped.
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                let mut bits = 0u64;
                for &(k, v) in pairs {
                    let b = k & ((1 << ubits) - 1);
                    bits |= 1 << b;
                    l.values[b as usize].store(v, Ordering::Relaxed);
                }
                l.bits.store(bits, Ordering::Relaxed);
            }
            Node::Internal(i) => self.fill_internal(i, pairs, 1),
        }
    }

    /// Fills the empty internal node `i`: `min` from the first pair, `max`
    /// from the last, one cluster per run of equal high bits among the
    /// others, and a summary of those clusters' indices. The clusters are
    /// filled on up to `workers` threads.
    fn fill_internal(&self, i: &Internal, pairs: &[(u64, u64)], workers: usize) {
        let Some((&(min, min_val), rest)) = pairs.split_first() else {
            return;
        };
        let key = |k: u64| k & ((1 << i.ubits) - 1);
        i.min.store(key(min), Ordering::Relaxed);
        i.min_val.store(min_val, Ordering::Relaxed);
        i.max
            .store(key(pairs[pairs.len() - 1].0), Ordering::Relaxed);
        if rest.is_empty() {
            return;
        }
        // `(cluster index, where its run starts in rest)`, one per cluster.
        let high = |k: u64| key(k) >> i.lowbits;
        let mut runs = Vec::new();
        let mut start = 0;
        while start < rest.len() {
            let h = high(rest[start].0);
            runs.push((h, start));
            start += rest[start..].partition_point(|&(k, _)| high(k) == h);
        }
        let summary_bits = Node::summary_bits(i.ubits);
        let s = self.new_node(summary_bits);
        let indices: Vec<(u64, u64)> = runs.iter().map(|&(h, _)| (h, 0)).collect();
        self.fill(s, summary_bits, &indices);
        i.summary.store(s, Ordering::Relaxed);

        let n = rest.len();
        let child_bits = Node::child_bits(i.ubits);
        let fill_clusters = |from: usize, to: usize| {
            for j in from..to {
                let (h, lo) = runs[j];
                let hi = runs.get(j + 1).map_or(n, |&(_, next)| next);
                let c = self.new_node(child_bits);
                self.fill(c, child_bits, &rest[lo..hi]);
                i.clusters[h as usize].store(c, Ordering::Relaxed);
            }
        };
        let workers = workers.clamp(1, runs.len());
        if workers == 1 {
            return fill_clusters(0, runs.len());
        }
        // Worker `w` takes the clusters whose runs start in its share of
        // the keys; the scope's join orders every store before the return.
        let cut = |w: usize| runs.partition_point(|&(_, lo)| lo < n * w / workers);
        let (fill_clusters, cut) = (&fill_clusters, &cut);
        std::thread::scope(|s| {
            for w in 1..workers {
                if cut(w) < cut(w + 1) {
                    s.spawn(move || fill_clusters(cut(w), cut(w + 1)));
                }
            }
            fill_clusters(0, cut(1));
        });
    }

    /// Walks the whole index in key order, handing every `(key, slot)` to
    /// `visit`, and checks its structure on the way: every child has the
    /// width its parent expects (so a pointer back up the tree is an
    /// error, never a loop), each node's `min` lies below its clusters'
    /// keys and its `max` is its last key, and each summary holds exactly
    /// the indices of the non-empty clusters. Call on a quiescent index.
    pub fn walk_checked(&self, visit: Visit<'_>) -> Result<(), String> {
        self.walk(self.root, self.ubits, 0, visit).map(drop)
    }

    /// [`walk_checked`](Self::walk_checked) below the node at `ptr`, which
    /// must be `ubits` wide and holds the keys from `base` on; returns its
    /// first and last key, relative to `base`, unless it is empty.
    fn walk(&self, ptr: u64, ubits: u32, base: u64, visit: Visit<'_>) -> Walked {
        // SAFETY: `ptr` is the root or a non-null pointer read from one of
        // this index's nodes, and every such pointer is a node the index
        // owns and frees only when dropped.
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) if ubits <= LEAF_BITS => {
                let bits = l.bits.load(Ordering::Relaxed);
                if ubits < LEAF_BITS && bits >> (1 << ubits) != 0 {
                    return Err(format!("{ubits}-bit leaf at key {base} holds a wider key"));
                }
                let mut rest = bits;
                while rest != 0 {
                    let b = rest.trailing_zeros() as u64;
                    rest &= rest - 1;
                    visit(base | b, l.values[b as usize].load(Ordering::Relaxed))?;
                }
                Ok((bits != 0).then(|| {
                    (
                        bits.trailing_zeros() as u64,
                        63 - bits.leading_zeros() as u64,
                    )
                }))
            }
            Node::Internal(i) if i.ubits == ubits && ubits > LEAF_BITS => {
                self.walk_internal(i, base, visit)
            }
            _ => Err(format!(
                "node at key {base} is not the {ubits}-bit node expected"
            )),
        }
    }

    fn walk_internal(&self, i: &Internal, base: u64, visit: Visit<'_>) -> Walked {
        let at = |what: String| format!("{}-bit node at key {base}: {what}", i.ubits);
        let min = i.min.load(Ordering::Relaxed);
        if min != EMPTY {
            if min >> i.ubits != 0 {
                return Err(at(format!("min {min} beyond the universe")));
            }
            visit(base | min, i.min_val.load(Ordering::Relaxed))?;
        }
        let child_bits = Node::child_bits(i.ubits);
        let mut filled = Vec::new();
        let mut last = min;
        for (h, c) in i.clusters.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            let h = h as u64;
            if c == 0 {
                continue;
            }
            let Some((lo, hi)) = self.walk(c, child_bits, base | (h << i.lowbits), visit)? else {
                continue;
            };
            if ((h << i.lowbits) | lo) <= min {
                return Err(at(format!("min {min} not below cluster {h}")));
            }
            filled.push(h);
            last = (h << i.lowbits) | hi;
        }
        let max = i.max.load(Ordering::Relaxed);
        if max != last {
            return Err(at(format!("max {max}, but the last key is {last}")));
        }
        let mut named = Vec::new();
        let s = i.summary.load(Ordering::Relaxed);
        if s != 0 {
            let summary_bits = Node::summary_bits(i.ubits);
            self.walk(s, summary_bits, 0, &mut |h, _| {
                named.push(h);
                Ok(())
            })?;
        }
        if named != filled {
            return Err(at(format!(
                "summary names clusters {named:?}, non-empty are {filled:?}"
            )));
        }
        Ok((min != EMPTY).then_some((min, last)))
    }
}

#[cfg(test)]
impl VebIndex {
    /// The root node, for tests that corrupt the index under `validate`.
    pub(crate) fn root_node(&self) -> &Node {
        // SAFETY: the root lives as long as the index.
        unsafe { self.node(self.root) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::AllocCtx;
    use htm_sim::{PlainAccess, SplitMix64};

    const PLAIN: &str = "plain access never aborts";

    /// Every `(key, slot)` of `index`, from the checked walk.
    fn pairs_of(index: &VebIndex) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        index
            .walk_checked(&mut |k, v| {
                out.push((k, v));
                Ok(())
            })
            .unwrap_or_else(|e| panic!("malformed index: {e}"));
        out
    }

    /// `get`, `successor` and `predecessor` at every probe.
    fn answers(index: &VebIndex, probes: &[u64]) -> Vec<[Option<(u64, u64)>; 3]> {
        let m = &mut PlainAccess;
        probes
            .iter()
            .map(|&p| {
                [
                    index.get_tx(m, p).expect(PLAIN).map(|v| (p, v)),
                    index.successor_tx(m, p).expect(PLAIN),
                    index.predecessor_tx(m, p).expect(PLAIN),
                ]
            })
            .collect()
    }

    #[test]
    fn walk_rejects_a_minimum_not_below_its_clusters() {
        let index = VebIndex::new(12);
        index.bulk_fill(&[(5, 1), (28, 2), (51, 3)], 1);
        let Node::Internal(root) = index.root_node() else {
            panic!("a 12-bit root is internal");
        };
        root.min.store(28, Ordering::Relaxed);
        let err = index.walk_checked(&mut |_, _| Ok(())).unwrap_err();
        assert!(err.contains("min 28 not below cluster 0"), "{err}");
    }

    #[test]
    fn bulk_fill_builds_what_ascending_inserts_build() {
        for ubits in [6, 7, 20, 23] {
            let top = (1u64 << ubits) - 1;
            let mut rng = SplitMix64::new(0xB01C ^ ubits as u64);
            let mut random: Vec<u64> = (0..1500).map(|_| rng.next_below(top + 1)).collect();
            random.sort_unstable();
            random.dedup();
            let sets: [(&str, Vec<u64>); 7] = [
                ("no key", vec![]),
                ("{0}", vec![0]),
                ("{top}", vec![top]),
                ("{0, top}", vec![0, top]),
                ("dense", (0..=top.min(2047)).collect()),
                ("every 64th", (0..=top).step_by(64).take(1024).collect()),
                ("random", random),
            ];
            for (name, keys) in sets {
                let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0x5107)).collect();
                let reference = VebIndex::new(ubits);
                let ctx = AllocCtx::default();
                for &(k, v) in &pairs {
                    reference
                        .insert_tx(&mut PlainAccess, k, v, &ctx)
                        .expect(PLAIN);
                    reference.commit_attempt(&ctx);
                }
                assert_eq!(pairs_of(&reference), pairs, "{ubits} bits, {name}");
                let mut probes: Vec<u64> = keys.iter().flat_map(|&k| [k, k + 1]).collect();
                probes.extend([0, top]);
                probes.retain(|&p| p <= top);
                let want = answers(&reference, &probes);
                for threads in [1, 2, 3, 7] {
                    let at = format!("{ubits} bits, {name}, {threads} workers");
                    let bulk = VebIndex::new(ubits);
                    bulk.bulk_fill(&pairs, threads);
                    assert_eq!(pairs_of(&bulk), pairs, "{at}");
                    assert_eq!(bulk.dram_bytes(), reference.dram_bytes(), "{at}");
                    assert!(answers(&bulk, &probes) == want, "{at}: queries differ");
                }
            }
        }
    }
}
