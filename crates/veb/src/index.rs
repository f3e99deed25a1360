//! The transactional vEB index: every operation is expressed against
//! [`MemAccess`], so the same code runs speculatively inside a hardware
//! transaction and directly under the global fallback lock.
//!
//! Invariant required by the fallback path (whose stores apply
//! immediately): **no shared-memory store may precede a potential
//! explicit abort** in any operation composed around these methods. All
//! mutating methods here are therefore called only after the caller's
//! epoch checks have passed; the read-only methods (`get_tx`,
//! `successor_tx`, ...) never write.

use crate::node::{Node, EMPTY};
use htm_sim::sync::Mutex;
use htm_sim::{max_threads, thread_id, MemAccess, TxResult};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-attempt allocation context: nodes created speculatively during the
/// current attempt. If the attempt aborts, the caller recycles them into
/// the per-thread spare lists; if it commits they are owned by the tree
/// through the links the commit published.
#[derive(Default)]
pub struct AllocCtx {
    created: RefCell<Vec<(u32, u64)>>,
}

/// The shared DRAM vEB index. Keys are in `[0, 2^ubits)`; each present
/// key has one u64 *slot* (a value for the transient tree, an NVM block
/// pointer for the buffered-durable tree).
/// A thread's stash of preallocated nodes: `(ubits, node_ptr)` pairs.
type SpareNodes = Mutex<Vec<(u32, u64)>>;

pub struct VebIndex {
    pub ubits: u32,
    root: u64,
    spare: Box<[SpareNodes]>,
    dram_bytes: AtomicU64,
}

// Raw node pointers are published only through committed transactional
// stores and nodes are never freed while the tree is alive.
unsafe impl Send for VebIndex {}
unsafe impl Sync for VebIndex {}

impl VebIndex {
    pub fn new(ubits: u32) -> Self {
        assert!((1..=48).contains(&ubits), "universe bits out of range");
        let root = Box::new(Node::new(ubits));
        let bytes = root.footprint() as u64;
        Self {
            ubits,
            root: Box::into_raw(root) as u64,
            spare: (0..max_threads()).map(|_| Mutex::new(Vec::new())).collect(),
            dram_bytes: AtomicU64::new(bytes),
        }
    }

    /// Total DRAM allocated for index nodes (Table 3).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes.load(Ordering::Relaxed)
    }

    #[inline]
    unsafe fn node(&self, ptr: u64) -> &Node {
        debug_assert_ne!(ptr, 0);
        &*(ptr as *const Node)
    }

    /// Recycles nodes created by a failed attempt. Call at the top of
    /// every attempt closure.
    pub fn recycle_attempt(&self, ctx: &AllocCtx) {
        let mut created = ctx.created.borrow_mut();
        if created.is_empty() {
            return;
        }
        self.spare[thread_id()].lock().append(&mut created);
    }

    /// Marks the attempt's creations as committed (owned via tree links).
    pub fn commit_attempt(&self, ctx: &AllocCtx) {
        ctx.created.borrow_mut().clear();
    }

    fn alloc_node(&self, ubits: u32, ctx: &AllocCtx) -> u64 {
        let mut spare = self.spare[thread_id()].lock();
        let ptr = if let Some(pos) = spare.iter().position(|&(b, _)| b == ubits) {
            spare.swap_remove(pos).1
        } else {
            drop(spare);
            let node = Box::new(Node::new(ubits));
            self.dram_bytes
                .fetch_add(node.footprint() as u64, Ordering::Relaxed);
            Box::into_raw(node) as u64
        };
        ctx.created.borrow_mut().push((ubits, ptr));
        ptr
    }

    // ---- transactional helpers ------------------------------------------

    fn is_empty<'e, M: MemAccess<'e> + ?Sized>(&'e self, m: &mut M, ptr: u64) -> TxResult<bool> {
        Ok(match unsafe { self.node(ptr) } {
            Node::Leaf(l) => m.load(&l.bits)? == 0,
            Node::Internal(i) => m.load(&i.min)? == EMPTY,
        })
    }

    /// Smallest key in a non-empty subtree.
    fn min_key<'e, M: MemAccess<'e> + ?Sized>(&'e self, m: &mut M, ptr: u64) -> TxResult<u64> {
        Ok(match unsafe { self.node(ptr) } {
            Node::Leaf(l) => m.load(&l.bits)?.trailing_zeros() as u64,
            Node::Internal(i) => m.load(&i.min)?,
        })
    }

    /// Largest key in a non-empty subtree.
    fn max_key<'e, M: MemAccess<'e> + ?Sized>(&'e self, m: &mut M, ptr: u64) -> TxResult<u64> {
        Ok(match unsafe { self.node(ptr) } {
            Node::Leaf(l) => 63 - m.load(&l.bits)?.leading_zeros() as u64,
            Node::Internal(i) => m.load(&i.max)?,
        })
    }

    /// `(min key, its slot)` of a non-empty subtree.
    fn min_entry<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        ptr: u64,
    ) -> TxResult<(u64, u64)> {
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                let b = m.load(&l.bits)?.trailing_zeros() as u64;
                Ok((b, m.load(&l.values[b as usize])?))
            }
            Node::Internal(i) => Ok((m.load(&i.min)?, m.load(&i.min_val)?)),
        }
    }

    /// `(max key, its slot)` of a non-empty subtree (descends for the
    /// value, which is stored recursively unless min == max).
    fn max_entry<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        ptr: u64,
    ) -> TxResult<(u64, u64)> {
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                let b = 63 - m.load(&l.bits)?.leading_zeros() as u64;
                Ok((b, m.load(&l.values[b as usize])?))
            }
            Node::Internal(i) => {
                let min = m.load(&i.min)?;
                let max = m.load(&i.max)?;
                if min == max {
                    return Ok((min, m.load(&i.min_val)?));
                }
                let h = max >> i.lowbits;
                let c = m.load(&i.clusters[h as usize])?;
                let (lo, v) = self.max_entry(m, c)?;
                Ok(((h << i.lowbits) | lo, v))
            }
        }
    }

    // ---- lookup -----------------------------------------------------------

    /// The slot of `key`, if present.
    pub fn get_tx<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        key: u64,
    ) -> TxResult<Option<u64>> {
        debug_assert!(key < (1u64 << self.ubits));
        self.get_rec(m, self.root, key)
    }

    fn get_rec<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        ptr: u64,
        x: u64,
    ) -> TxResult<Option<u64>> {
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                if m.load(&l.bits)? & (1 << x) == 0 {
                    Ok(None)
                } else {
                    Ok(Some(m.load(&l.values[x as usize])?))
                }
            }
            Node::Internal(i) => {
                let min = m.load(&i.min)?;
                if min == EMPTY || x < min {
                    return Ok(None);
                }
                if x == min {
                    return Ok(Some(m.load(&i.min_val)?));
                }
                let c = m.load(&i.clusters[(x >> i.lowbits) as usize])?;
                if c == 0 {
                    return Ok(None);
                }
                self.get_rec(m, c, x & ((1 << i.lowbits) - 1))
            }
        }
    }

    // ---- insert -----------------------------------------------------------

    /// Sets the slot of `key` to `slot`, returning the previous slot if
    /// the key was present.
    pub fn insert_tx<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        key: u64,
        slot: u64,
        ctx: &AllocCtx,
    ) -> TxResult<Option<u64>> {
        debug_assert!(key < (1u64 << self.ubits));
        self.insert_rec(m, self.root, key, slot, ctx)
    }

    fn insert_rec<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        ptr: u64,
        x: u64,
        v: u64,
        ctx: &AllocCtx,
    ) -> TxResult<Option<u64>> {
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                let bits = m.load(&l.bits)?;
                let old = if bits & (1 << x) != 0 {
                    Some(m.load(&l.values[x as usize])?)
                } else {
                    m.store(&l.bits, bits | (1 << x))?;
                    None
                };
                m.store(&l.values[x as usize], v)?;
                Ok(old)
            }
            Node::Internal(i) => {
                let min = m.load(&i.min)?;
                if min == EMPTY {
                    m.store(&i.min, x)?;
                    m.store(&i.min_val, v)?;
                    m.store(&i.max, x)?;
                    return Ok(None);
                }
                if x == min {
                    let old = m.load(&i.min_val)?;
                    m.store(&i.min_val, v)?;
                    return Ok(Some(old));
                }
                let max = m.load(&i.max)?;
                if x > max {
                    m.store(&i.max, x)?;
                }
                // A key below the minimum displaces it; the old minimum
                // (which is not stored recursively) moves down.
                let (kx, kv, displaced) = if x < min {
                    let old_min_val = m.load(&i.min_val)?;
                    m.store(&i.min, x)?;
                    m.store(&i.min_val, v)?;
                    (min, old_min_val, true)
                } else {
                    (x, v, false)
                };
                let h = (kx >> i.lowbits) as usize;
                let l = kx & ((1 << i.lowbits) - 1);
                let mut c = m.load(&i.clusters[h])?;
                if c == 0 {
                    c = self.alloc_node(Node::child_bits(i.ubits), ctx);
                    m.store(&i.clusters[h], c)?;
                }
                if self.is_empty(m, c)? {
                    // First key of this cluster: reflect it in the summary
                    // (O(1): inserting into the just-emptied/fresh cluster
                    // below is the constant-time base case).
                    let mut s = m.load(&i.summary)?;
                    if s == 0 {
                        s = self.alloc_node(Node::summary_bits(i.ubits), ctx);
                        m.store(&i.summary, s)?;
                    }
                    self.insert_rec(m, s, h as u64, 0, ctx)?;
                }
                let old = self.insert_rec(m, c, l, kv, ctx)?;
                debug_assert!(!displaced || old.is_none());
                Ok(if displaced { None } else { old })
            }
        }
    }

    // ---- remove -----------------------------------------------------------

    /// Removes `key`, returning its slot if it was present.
    pub fn remove_tx<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        key: u64,
    ) -> TxResult<Option<u64>> {
        debug_assert!(key < (1u64 << self.ubits));
        self.remove_rec(m, self.root, key)
    }

    fn remove_rec<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        ptr: u64,
        x: u64,
    ) -> TxResult<Option<u64>> {
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                let bits = m.load(&l.bits)?;
                if bits & (1 << x) == 0 {
                    return Ok(None);
                }
                m.store(&l.bits, bits & !(1 << x))?;
                Ok(Some(m.load(&l.values[x as usize])?))
            }
            Node::Internal(i) => {
                let min = m.load(&i.min)?;
                if min == EMPTY || x < min {
                    return Ok(None);
                }
                if x == min {
                    let max = m.load(&i.max)?;
                    let old = m.load(&i.min_val)?;
                    if min == max {
                        m.store(&i.min, EMPTY)?;
                        m.store(&i.max, EMPTY)?;
                        return Ok(Some(old));
                    }
                    // Promote the smallest recursive key to be the new min.
                    let s = m.load(&i.summary)?;
                    debug_assert_ne!(s, 0);
                    let sh = self.min_key(m, s)?;
                    let c = m.load(&i.clusters[sh as usize])?;
                    let lo = self.min_key(m, c)?;
                    let promoted = self.remove_rec(m, c, lo)?.expect("promoted key must exist");
                    m.store(&i.min, (sh << i.lowbits) | lo)?;
                    m.store(&i.min_val, promoted)?;
                    if self.is_empty(m, c)? {
                        self.remove_rec(m, s, sh)?;
                        if self.is_empty(m, s)? {
                            // Single element left: max collapses onto min.
                            m.store(&i.max, (sh << i.lowbits) | lo)?;
                        }
                    }
                    return Ok(Some(old));
                }
                let max = m.load(&i.max)?;
                if x > max {
                    return Ok(None);
                }
                let h = (x >> i.lowbits) as usize;
                let lo = x & ((1 << i.lowbits) - 1);
                let c = m.load(&i.clusters[h])?;
                if c == 0 {
                    return Ok(None);
                }
                let old = self.remove_rec(m, c, lo)?;
                if old.is_some() {
                    if self.is_empty(m, c)? {
                        let s = m.load(&i.summary)?;
                        if s != 0 {
                            self.remove_rec(m, s, h as u64)?;
                        }
                    }
                    if x == max {
                        // Recompute the cached maximum.
                        let s = m.load(&i.summary)?;
                        if s == 0 || self.is_empty(m, s)? {
                            let new_max = m.load(&i.min)?;
                            m.store(&i.max, new_max)?;
                        } else {
                            let sh = self.max_key(m, s)?;
                            let c2 = m.load(&i.clusters[sh as usize])?;
                            let hi = self.max_key(m, c2)?;
                            m.store(&i.max, (sh << i.lowbits) | hi)?;
                        }
                    }
                }
                Ok(old)
            }
        }
    }

    // ---- order queries ------------------------------------------------------

    /// Smallest `(key, slot)` strictly greater than `key`.
    pub fn successor_tx<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        key: u64,
    ) -> TxResult<Option<(u64, u64)>> {
        self.succ_rec(m, self.root, key)
    }

    fn succ_rec<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        ptr: u64,
        x: u64,
    ) -> TxResult<Option<(u64, u64)>> {
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                if x >= 63 {
                    return Ok(None);
                }
                let mask = m.load(&l.bits)? & (!0u64 << (x + 1));
                if mask == 0 {
                    return Ok(None);
                }
                let b = mask.trailing_zeros() as u64;
                Ok(Some((b, m.load(&l.values[b as usize])?)))
            }
            Node::Internal(i) => {
                let min = m.load(&i.min)?;
                if min == EMPTY {
                    return Ok(None);
                }
                if x < min {
                    return Ok(Some((min, m.load(&i.min_val)?)));
                }
                let h = (x >> i.lowbits) as usize;
                let lo = x & ((1 << i.lowbits) - 1);
                let c = m.load(&i.clusters[h])?;
                if c != 0 && !self.is_empty(m, c)? && lo < self.max_key(m, c)? {
                    let (slo, v) = self.succ_rec(m, c, lo)?.expect("successor must exist");
                    return Ok(Some((((h as u64) << i.lowbits) | slo, v)));
                }
                let s = m.load(&i.summary)?;
                if s == 0 {
                    return Ok(None);
                }
                match self.succ_rec(m, s, h as u64)? {
                    None => Ok(None),
                    Some((sh, _)) => {
                        let c2 = m.load(&i.clusters[sh as usize])?;
                        let (lo2, v) = self.min_entry(m, c2)?;
                        Ok(Some(((sh << i.lowbits) | lo2, v)))
                    }
                }
            }
        }
    }

    /// Largest `(key, slot)` strictly smaller than `key`.
    pub fn predecessor_tx<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        key: u64,
    ) -> TxResult<Option<(u64, u64)>> {
        self.pred_rec(m, self.root, key)
    }

    fn pred_rec<'e, M: MemAccess<'e> + ?Sized>(
        &'e self,
        m: &mut M,
        ptr: u64,
        x: u64,
    ) -> TxResult<Option<(u64, u64)>> {
        match unsafe { self.node(ptr) } {
            Node::Leaf(l) => {
                if x == 0 {
                    return Ok(None);
                }
                let mask = m.load(&l.bits)? & ((1u64 << x) - 1);
                if mask == 0 {
                    return Ok(None);
                }
                let b = 63 - mask.leading_zeros() as u64;
                Ok(Some((b, m.load(&l.values[b as usize])?)))
            }
            Node::Internal(i) => {
                let min = m.load(&i.min)?;
                if min == EMPTY || x <= min {
                    return Ok(None);
                }
                let max = m.load(&i.max)?;
                if x > max {
                    return self.max_entry(m, ptr).map(Some);
                }
                let h = (x >> i.lowbits) as usize;
                let lo = x & ((1 << i.lowbits) - 1);
                let c = m.load(&i.clusters[h])?;
                if c != 0 && !self.is_empty(m, c)? && lo > self.min_key(m, c)? {
                    let (plo, v) = self.pred_rec(m, c, lo)?.expect("predecessor must exist");
                    return Ok(Some((((h as u64) << i.lowbits) | plo, v)));
                }
                let s = m.load(&i.summary)?;
                if s != 0 {
                    if let Some((sh, _)) = self.pred_rec(m, s, h as u64)? {
                        let c2 = m.load(&i.clusters[sh as usize])?;
                        let (lo2, v) = self.max_entry(m, c2)?;
                        return Ok(Some(((sh << i.lowbits) | lo2, v)));
                    }
                }
                // Only the (non-recursive) minimum remains below x.
                Ok(Some((min, m.load(&i.min_val)?)))
            }
        }
    }

    /// Non-transactional read-only descent toward `key`, used as the
    /// "pre-walk" mitigation after MEMTYPE aborts (§4.1): touches the
    /// nodes the retry will need. Values read here are never used.
    pub fn prewalk(&self, key: u64) {
        let mut ptr = self.root;
        loop {
            match unsafe { self.node(ptr) } {
                Node::Leaf(l) => {
                    std::hint::black_box(l.bits.load(Ordering::Relaxed));
                    return;
                }
                Node::Internal(i) => {
                    std::hint::black_box(i.min.load(Ordering::Relaxed));
                    std::hint::black_box(i.max.load(Ordering::Relaxed));
                    let h = ((key >> i.lowbits) as usize) % i.clusters.len();
                    let c = i.clusters[h].load(Ordering::Relaxed);
                    if c == 0 {
                        return;
                    }
                    ptr = c;
                }
            }
        }
    }
}

impl Drop for VebIndex {
    fn drop(&mut self) {
        unsafe {
            Node::free_subtree(self.root);
        }
        for s in self.spare.iter() {
            for (_, ptr) in s.lock().drain(..) {
                unsafe { Node::free_subtree(ptr) };
            }
        }
    }
}
