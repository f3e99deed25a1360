//! Descriptor-based MwCAS / PMwCAS (Wang et al., ICDE 2018) with helping
//! and post-crash roll-forward / roll-back.

use htm_sim::chaos;
use htm_sim::sync::Mutex;
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum words a single (P)MwCAS may update. The Fig. 4 experiment
/// uses 2, 4 and 8; the DL-Skiplist links/unlinks whole towers with one
/// operation, requiring up to `2 * MAX_LEVEL` targets.
pub const MAX_TARGETS: usize = 32;

/// Block tag marking MwCAS descriptors for the recovery scan.
pub const MWCAS_DESC_TAG: u64 = 0x4D57_4341; // "MWCA"

/// One `(address, expected, new)` triple.
#[derive(Clone, Copy, Debug)]
pub struct MwTarget {
    pub addr: NvmAddr,
    pub old: u64,
    pub new: u64,
}

impl MwTarget {
    pub fn new(addr: NvmAddr, old: u64, new: u64) -> Self {
        debug_assert!(
            old & MARK == 0 && new & MARK == 0,
            "values must leave bit 63 clear"
        );
        Self { addr, old, new }
    }
}

// Descriptor payload layout (word indices within the block payload).
const D_SEQ: u64 = 0;
const D_STATUS: u64 = 1;
const D_COUNT: u64 = 2;
/// Volatile count of helpers currently inside `help` for this
/// descriptor. The owner waits for it to drain before recycling, so a
/// stale helper can never install markers into, or finalize words of, a
/// *reused* descriptor (the classic descriptor-reclamation race; Wang et
/// al. solve it with an epoch-based descriptor pool).
const D_HELPERS: u64 = 3;
const D_TRIPLES: u64 = 4; // then 3 words per target: addr, old, new
const DESC_PAYLOAD_WORDS: u64 = D_TRIPLES + 3 * MAX_TARGETS as u64;

const ST_PENDING: u64 = 0;
const ST_COMMITTED: u64 = 1;
const ST_FAILED: u64 = 2;
const ST_FREE: u64 = 3;

/// The status word embeds the descriptor's sequence number so that a
/// stale helper's status CAS can never hit a recycled descriptor
/// (otherwise a helper that validated the sequence just before the owner
/// recycled could prematurely commit or fail the *next* operation,
/// allowing partial application).
#[inline]
fn st_word(seq: u64, code: u64) -> u64 {
    (seq << 2) | code
}

#[inline]
fn st_code(word: u64) -> u64 {
    word & 0b11
}

#[inline]
fn st_seq(word: u64) -> u64 {
    word >> 2
}

/// Bit 63 marks a word as holding a descriptor pointer.
const MARK: u64 = 1 << 63;
/// Bit 62 additionally marks an *intermediate* (conditional) install:
/// an RDCSS-style placeholder that is promoted to the full marker only
/// while the operation's status is still `(seq, PENDING)`. A decided or
/// recycled operation's placeholder is rolled back to the displaced old
/// value instead — so a late helper can never (re)install a full marker
/// for an operation that already completed, which is the race that
/// produced both the leaked-marker hang and the duplicate-application
/// value corruption (see DESIGN.md).
const RD: u64 = 1 << 62;
const SEQ_SHIFT: u32 = 48;
/// 14-bit sequence tag (bit 62 now carries [`RD`]). Wraps at 16384:
/// like the original 15-bit tag this is an ABA bound, not a proof —
/// documented in the memory-ordering inventory.
const SEQ_MASK: u64 = 0x3FFF;
const ADDR_MASK: u64 = (1 << SEQ_SHIFT) - 1;

#[inline]
fn marked(desc: NvmAddr, seq: u64) -> u64 {
    debug_assert!(desc.0 <= ADDR_MASK);
    MARK | ((seq & SEQ_MASK) << SEQ_SHIFT) | desc.0
}

#[inline]
fn rd_marked(desc: NvmAddr, seq: u64) -> u64 {
    marked(desc, seq) | RD
}

#[inline]
fn is_marked(v: u64) -> bool {
    v & MARK != 0
}

/// Decodes either marker flavor; [`RD`] sits outside both fields.
#[inline]
fn unmark(v: u64) -> (NvmAddr, u64) {
    (NvmAddr(v & ADDR_MASK), (v >> SEQ_SHIFT) & SEQ_MASK)
}

/// A pool of per-thread reusable NVM descriptors plus the (P)MwCAS
/// algorithms. Values stored through the pool must leave bit 63 clear
/// (it distinguishes descriptor pointers from data).
pub struct MwCasPool {
    heap: Arc<NvmHeap>,
    alloc: Arc<PAlloc>,
    /// Lazily created per-thread descriptor blocks.
    descs: Box<[Mutex<Option<NvmAddr>>]>,
}

impl MwCasPool {
    /// Creates a pool with its own allocator over `heap`.
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        let alloc = Arc::new(PAlloc::new(Arc::clone(&heap)));
        Self::with_alloc(heap, alloc)
    }

    /// Creates a pool over an existing allocator (sharing a heap with a
    /// data structure, as DL-Skiplist does).
    pub fn with_alloc(heap: Arc<NvmHeap>, alloc: Arc<PAlloc>) -> Self {
        Self {
            heap,
            alloc,
            descs: (0..htm_sim::max_threads())
                .map(|_| Mutex::new(None))
                .collect(),
        }
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    fn my_descriptor(&self) -> NvmAddr {
        let tid = htm_sim::thread_id();
        let mut slot = self.descs[tid].lock();
        if let Some(d) = *slot {
            return d;
        }
        let blk = self.alloc.alloc_persisted(DESC_PAYLOAD_WORDS);
        Header::set_tag(&self.heap, blk, MWCAS_DESC_TAG);
        Header::set_epoch(&self.heap, blk, 0); // descriptors are infrastructure
        self.heap
            .word(pw(blk, D_STATUS))
            .store(st_word(0, ST_FREE), Ordering::Release);
        self.heap.persist_range(blk, HDR_WORDS + DESC_PAYLOAD_WORDS);
        self.heap.fence();
        *slot = Some(blk);
        blk
    }

    /// Transient multi-word CAS: linearizable and lock-free, no
    /// persistence. Returns `true` on success (all `old` values matched).
    pub fn mwcas(&self, targets: &[MwTarget]) -> bool {
        self.run(targets, false)
    }

    /// Persistent multi-word CAS: additionally guarantees that after a
    /// crash the operation is completed (if its commit record persisted)
    /// or rolled back, via [`MwCasPool::recover`].
    pub fn pmwcas(&self, targets: &[MwTarget]) -> bool {
        self.run(targets, true)
    }

    fn run(&self, targets: &[MwTarget], persist: bool) -> bool {
        assert!(!targets.is_empty() && targets.len() <= MAX_TARGETS);
        let desc = self.my_descriptor();
        let h = &*self.heap;

        // Quiesce helpers from the *previous* operation before touching
        // a single descriptor word. A helper that validated the old
        // sequence holds a snapshot of the old triples; rewriting them
        // while it is still counted would let it act on torn state. The
        // drain below (after FREE) bounds how long this wait can be.
        while h.word(pw(desc, D_HELPERS)).load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        chaos::point("mwcas::reinit");

        // Initialize the descriptor with a fresh sequence number and the
        // targets in canonical (address) order.
        let seq = (h.word(pw(desc, D_SEQ)).load(Ordering::Acquire) + 1) & SEQ_MASK;
        let mut sorted: Vec<MwTarget> = targets.to_vec();
        sorted.sort_by_key(|t| t.addr);
        debug_assert!(
            sorted.windows(2).all(|w| w[0].addr != w[1].addr),
            "duplicate MwCAS target"
        );
        h.write(pw(desc, D_SEQ), seq);
        h.write(pw(desc, D_STATUS), st_word(seq, ST_PENDING));
        h.write(pw(desc, D_COUNT), sorted.len() as u64);
        for (i, t) in sorted.iter().enumerate() {
            let base = D_TRIPLES + 3 * i as u64;
            h.write(pw(desc, base), t.addr.0);
            h.write(pw(desc, base + 1), t.old);
            h.write(pw(desc, base + 2), t.new);
        }
        if persist {
            // The descriptor must be durable before any marked pointer to
            // it can appear in the heap. Only the used prefix is flushed.
            h.persist_range(desc, HDR_WORDS + D_TRIPLES + 3 * sorted.len() as u64);
            h.fence();
        }

        let committed = self.help_inner(desc, seq, persist);

        // Release the descriptor for reuse (recovery ignores FREE ones).
        // A CAS from the decided status, not a blind store: the FREE
        // transition participates in the same SeqCst RMW total order the
        // helpers' status gates read, so a helper that still observes
        // PENDING is ordered before this release — and the owner's
        // `help_inner` can only have returned with status decided.
        chaos::point("mwcas::release");
        let decided = st_word(seq, if committed { ST_COMMITTED } else { ST_FAILED });
        let released = h
            .cas(pw(desc, D_STATUS), decided, st_word(seq, ST_FREE))
            .is_ok();
        debug_assert!(released, "owner must win the FREE transition");
        if persist {
            h.clwb(pw(desc, D_STATUS));
            h.fence();
        }
        // Drain again after FREE: helpers that raced past the gate will
        // observe FREE, sweep their markers, and exit; no helper may
        // still be acting on this sequence when the next operation
        // reinitializes the descriptor.
        while h.word(pw(desc, D_HELPERS)).load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        committed
    }

    /// Entry point for non-owning helpers: brackets `help_inner` with the
    /// helpers counter the owner drains before recycling.
    fn help(&self, desc: NvmAddr, seq: u64, persist: bool) -> bool {
        let ctr = self.heap.word(pw(desc, D_HELPERS));
        ctr.fetch_add(1, Ordering::SeqCst);
        chaos::point("mwcas::help_enter");
        let r = self.help_inner(desc, seq, persist);
        ctr.fetch_sub(1, Ordering::SeqCst);
        r
    }

    /// Drives the descriptor `desc`/`seq` to completion (both phases).
    /// Reentrant: called by the owner (directly) and by helping threads
    /// (through [`MwCasPool::help`]). Returns whether the operation
    /// committed.
    ///
    /// The contract that keeps helping safe (root-caused with the chaos
    /// harness; DESIGN.md has the full inventory):
    ///
    /// 1. The triples are *snapshotted* first and the sequence number
    ///    validated after — the owner publishes `D_SEQ` before any other
    ///    word of a new operation, so a snapshot that read any newer
    ///    word fails the validation and bails before acting.
    /// 2. Every install is *conditional* (an [`RD`] placeholder promoted
    ///    only while status is `(seq, PENDING)`), so no full marker is
    ///    ever (re)installed for a decided operation.
    /// 3. Every exit path taken after validation either finalizes the
    ///    operation (phase 2b) or [`MwCasPool::sweep`]s — a helper never
    ///    leaves its own marker behind, which is what used to hang
    ///    `read` forever on a descriptor that no longer helps.
    fn help_inner(&self, desc: NvmAddr, seq: u64, persist: bool) -> bool {
        let h = &*self.heap;
        let me = marked(desc, seq);
        let rdv = rd_marked(desc, seq);
        let status_w = pw(desc, D_STATUS);

        // Snapshot the descriptor payload, then validate the sequence.
        let count = (h.word(pw(desc, D_COUNT)).load(Ordering::Acquire) as usize).min(MAX_TARGETS);
        let mut snap = [MwTarget {
            addr: NvmAddr(0),
            old: 0,
            new: 0,
        }; MAX_TARGETS];
        for (i, t) in snap.iter_mut().enumerate().take(count) {
            let base = D_TRIPLES + 3 * i as u64;
            t.addr = NvmAddr(h.word(pw(desc, base)).load(Ordering::Acquire));
            t.old = h.word(pw(desc, base + 1)).load(Ordering::Acquire);
            t.new = h.word(pw(desc, base + 2)).load(Ordering::Acquire);
        }
        if (h.word(pw(desc, D_SEQ)).load(Ordering::SeqCst) & SEQ_MASK) != seq {
            return false; // recycled before we read a consistent payload
        }
        let triples = &snap[..count];

        // Phase 1: install the marked pointer in every target, in order.
        let mut status_goal = ST_COMMITTED;
        'install: for t in triples {
            loop {
                // Status gate: never begin an install for an operation
                // that is already decided. SeqCst so this load sits in
                // the same total order as the decide/release RMWs.
                let st = h.word(status_w).load(Ordering::SeqCst);
                if st_seq(st) != seq || st_code(st) == ST_FREE {
                    self.sweep(triples, me, rdv);
                    return false;
                }
                if st_code(st) != ST_PENDING {
                    break 'install; // decided: go finalize
                }
                chaos::point("mwcas::install");
                let cur = h.word(t.addr).load(Ordering::Acquire);
                if cur == me {
                    break; // installed (possibly by a helper)
                }
                if cur == rdv {
                    // Our operation's placeholder: resolve it.
                    self.complete_install(status_w, seq, t, me, rdv, persist);
                    continue;
                }
                if is_marked(cur) {
                    // Help the conflicting operation first.
                    let (other, oseq) = unmark(cur);
                    self.help(other, oseq, persist);
                    continue;
                }
                if cur != t.old {
                    // A competitor changed the word: we fail.
                    status_goal = ST_FAILED;
                    break 'install;
                }
                if h.cas(t.addr, t.old, rdv).is_ok() {
                    chaos::point("mwcas::installed");
                    self.complete_install(status_w, seq, t, me, rdv, persist);
                    // Loop: sees `me` if promoted, or re-gates if the
                    // operation got decided while we installed.
                }
            }
        }

        // Phase 2a: decide. A single CAS publishes the outcome; whoever
        // loses the race reads the winner's verdict. The expected value
        // carries `seq`, so a CAS against a recycled descriptor misses.
        chaos::point("mwcas::decide");
        let _ = h.cas(
            status_w,
            st_word(seq, ST_PENDING),
            st_word(seq, status_goal),
        );
        let status = h.word(status_w).load(Ordering::SeqCst);
        if st_seq(status) != seq || st_code(status) == ST_FREE {
            self.sweep(triples, me, rdv);
            return false; // recycled under us: undo anything we left
        }
        if persist {
            h.clwb(status_w);
            h.fence();
        }
        let committed = st_code(status) == ST_COMMITTED;
        chaos::point("mwcas::finalize");

        // Phase 2b: replace every installed marker with its final value,
        // from the validated snapshot. A placeholder found here belongs
        // to an install that lost the decision race: roll it back.
        for t in triples {
            let finalv = if committed { t.new } else { t.old };
            if h.cas(t.addr, me, finalv).is_ok() && persist {
                h.clwb(t.addr);
            }
            let _ = h.cas(t.addr, rdv, t.old);
        }
        if persist {
            h.fence();
        }
        committed
    }

    /// Completes a conditional install: promotes the placeholder to the
    /// full marker if the operation is still `(seq, PENDING)`, restores
    /// the displaced old value otherwise. Idempotent and safe to race:
    /// whichever resolution wins, the other CAS misses.
    fn complete_install(
        &self,
        status_w: NvmAddr,
        seq: u64,
        t: &MwTarget,
        me: u64,
        rdv: u64,
        persist: bool,
    ) {
        let h = &*self.heap;
        let st = h.word(status_w).load(Ordering::SeqCst);
        if st == st_word(seq, ST_PENDING) {
            if h.cas(t.addr, rdv, me).is_ok() && persist {
                h.clwb(t.addr);
                h.fence();
            }
        } else {
            let _ = h.cas(t.addr, rdv, t.old);
        }
    }

    /// Removes every marker (placeholder or promoted) this operation may
    /// still hold in its targets, restoring the snapshot's old values.
    /// Called on every post-validation bail path so a helper that raced
    /// the owner's release can never strand a marker — the failure mode
    /// behind the quarantined hang.
    fn sweep(&self, triples: &[MwTarget], me: u64, rdv: u64) {
        chaos::point("mwcas::sweep");
        let h = &*self.heap;
        for t in triples {
            let _ = h.cas(t.addr, rdv, t.old);
            let _ = h.cas(t.addr, me, t.old);
        }
    }

    /// Resolves a word to its logical value, helping any in-flight
    /// operation that has a marker installed there.
    pub fn read(&self, addr: NvmAddr) -> u64 {
        loop {
            let v = self.heap.word(addr).load(Ordering::Acquire);
            if !is_marked(v) {
                return v;
            }
            chaos::point("mwcas::read_help");
            let (desc, seq) = unmark(v);
            self.help(desc, seq, false);
        }
    }

    /// Post-crash recovery: rolls every in-flight persistent descriptor
    /// forward (if its `COMMITTED` record persisted) or backward.
    /// `blocks` is the heap scan (e.g. from
    /// [`PAlloc::recover`](persist_alloc::PAlloc::recover)); only blocks
    /// tagged [`MWCAS_DESC_TAG`] are touched. Returns the number of
    /// descriptors rolled (forward + backward).
    pub fn recover(heap: &NvmHeap, blocks: &[persist_alloc::RecoveredBlock]) -> (usize, usize) {
        let mut fwd = 0;
        let mut back = 0;
        for b in blocks {
            if b.tag != MWCAS_DESC_TAG {
                continue;
            }
            let desc = b.addr;
            let status = heap.word(pw(desc, D_STATUS)).load(Ordering::Acquire);
            let seq = heap.word(pw(desc, D_SEQ)).load(Ordering::Acquire) & SEQ_MASK;
            // Only descriptors whose persisted status belongs to their
            // persisted sequence are in flight.
            if st_seq(status) != seq || st_code(status) == ST_FREE {
                continue;
            }
            let me = marked(desc, seq);
            let rdv = rd_marked(desc, seq);
            let count = heap.word(pw(desc, D_COUNT)).load(Ordering::Acquire) as usize;
            let commit = st_code(status) == ST_COMMITTED;
            for i in 0..count.min(MAX_TARGETS) {
                let base = D_TRIPLES + 3 * i as u64;
                let addr = NvmAddr(heap.word(pw(desc, base)).load(Ordering::Acquire));
                let old = heap.word(pw(desc, base + 1)).load(Ordering::Acquire);
                let new = heap.word(pw(desc, base + 2)).load(Ordering::Acquire);
                let cur = heap.word(addr).load(Ordering::Acquire);
                if cur == me {
                    heap.write(addr, if commit { new } else { old });
                    heap.clwb(addr);
                } else if cur == rdv {
                    // A placeholder never counted toward the decision:
                    // the displaced old value is the logical one, even
                    // for a committed operation (late install).
                    heap.write(addr, old);
                    heap.clwb(addr);
                }
            }
            heap.write(pw(desc, D_STATUS), st_word(seq, ST_FREE));
            heap.clwb(pw(desc, D_STATUS));
            heap.fence();
            if commit {
                fwd += 1;
            } else {
                back += 1;
            }
        }
        (fwd, back)
    }
}

/// Payload word address within a descriptor block.
#[inline]
fn pw(blk: NvmAddr, idx: u64) -> NvmAddr {
    blk.offset(HDR_WORDS + idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;

    fn setup() -> (Arc<NvmHeap>, MwCasPool) {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let pool = MwCasPool::new(Arc::clone(&heap));
        (heap, pool)
    }

    /// Slots far from the allocator's extents, for raw word targets.
    fn slots(heap: &NvmHeap, n: u64) -> Vec<NvmAddr> {
        let top = heap.capacity_words();
        (0..n).map(|i| NvmAddr(top - 8 * (i + 1))).collect()
    }

    #[test]
    fn mwcas_succeeds_and_fails_atomically() {
        let (heap, pool) = setup();
        let s = slots(&heap, 2);
        assert!(pool.mwcas(&[MwTarget::new(s[0], 0, 5), MwTarget::new(s[1], 0, 6)]));
        assert_eq!(pool.read(s[0]), 5);
        assert_eq!(pool.read(s[1]), 6);
        // One stale expectation: nothing changes.
        assert!(!pool.mwcas(&[MwTarget::new(s[0], 5, 7), MwTarget::new(s[1], 99, 8)]));
        assert_eq!(pool.read(s[0]), 5);
        assert_eq!(pool.read(s[1]), 6);
    }

    #[test]
    fn pmwcas_success_is_durable() {
        let (heap, pool) = setup();
        let s = slots(&heap, 4);
        let ts: Vec<MwTarget> = s.iter().map(|&a| MwTarget::new(a, 0, a.0)).collect();
        assert!(pool.pmwcas(&ts));
        let img = heap.crash();
        for &a in &s {
            assert_eq!(img.word(a), a.0, "PMwCAS result lost at {a:?}");
        }
    }

    #[test]
    fn concurrent_mwcas_transfers_conserve_sum() {
        // Classic bank-transfer test: N accounts, random 2-word transfers.
        let (heap, pool) = setup();
        let pool = Arc::new(pool);
        let accounts = slots(&heap, 16);
        for &a in &accounts {
            heap.write(a, 1000);
        }
        let threads = 4;
        let iters = 3000;
        std::thread::scope(|sc| {
            for t in 0..threads {
                let pool = Arc::clone(&pool);
                let accounts = accounts.clone();
                sc.spawn(move || {
                    let mut rng = 0x1234_5678u64 + t as u64;
                    let mut next = || {
                        rng ^= rng >> 12;
                        rng ^= rng << 25;
                        rng ^= rng >> 27;
                        rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
                    };
                    for _ in 0..iters {
                        let i = (next() % 16) as usize;
                        let mut j = (next() % 16) as usize;
                        if i == j {
                            j = (j + 1) % 16;
                        }
                        // Read consistent snapshot, attempt transfer of 1.
                        let a = pool.read(accounts[i]);
                        let b = pool.read(accounts[j]);
                        if a == 0 {
                            continue;
                        }
                        let _ = pool.mwcas(&[
                            MwTarget::new(accounts[i], a, a - 1),
                            MwTarget::new(accounts[j], b, b + 1),
                        ]);
                    }
                });
            }
        });
        let total: u64 = accounts.iter().map(|&a| pool.read(a)).sum();
        assert_eq!(total, 16 * 1000, "transfers lost or duplicated money");
    }

    #[test]
    fn helping_resolves_markers_left_by_peers() {
        // Install phase leaves markers; a concurrent read must resolve
        // them rather than return the marker bits.
        let (heap, pool) = setup();
        let pool = Arc::new(pool);
        let s = slots(&heap, 8);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|sc| {
            for t in 0..2 {
                let pool = Arc::clone(&pool);
                let s = s.clone();
                let stop = Arc::clone(&stop);
                sc.spawn(move || {
                    let mut v = 1u64 + t;
                    while !stop.load(Ordering::Relaxed) {
                        let cur: Vec<u64> = s.iter().map(|&a| pool.read(a)).collect();
                        let ts: Vec<MwTarget> = s
                            .iter()
                            .zip(&cur)
                            .map(|(&a, &c)| MwTarget::new(a, c, v & !(1 << 63)))
                            .collect();
                        let _ = pool.mwcas(&ts);
                        v = v.wrapping_add(2);
                    }
                });
            }
            let pool2 = Arc::clone(&pool);
            let s2 = s.clone();
            let stop2 = Arc::clone(&stop);
            sc.spawn(move || {
                for _ in 0..20_000 {
                    for &a in &s2 {
                        let v = pool2.read(a);
                        assert!(v & MARK == 0, "reader observed a raw marker");
                    }
                }
                stop2.store(true, Ordering::Relaxed);
            });
        });
    }

    #[test]
    fn recovery_rolls_back_uncommitted() {
        let (heap, pool) = setup();
        let s = slots(&heap, 2);
        heap.write(s[0], 1);
        heap.write(s[1], 2);
        heap.persist_range(s[1], 1);
        heap.persist_range(s[0], 1);
        heap.fence();

        // Simulate a crash mid-install: build a descriptor by hand,
        // persist it PENDING with one marker installed.
        let desc = pool.my_descriptor();
        let seq = 9;
        heap.write(pw(desc, D_SEQ), seq);
        heap.write(pw(desc, D_STATUS), st_word(seq, ST_PENDING));
        heap.write(pw(desc, D_COUNT), 2);
        for (i, (&a, old, new)) in [(&s[0], 1u64, 10u64), (&s[1], 2, 20)].iter().enumerate() {
            heap.write(pw(desc, D_TRIPLES + 3 * i as u64), a.0);
            heap.write(pw(desc, D_TRIPLES + 3 * i as u64 + 1), *old);
            heap.write(pw(desc, D_TRIPLES + 3 * i as u64 + 2), *new);
        }
        heap.persist_range(desc, HDR_WORDS + DESC_PAYLOAD_WORDS);
        heap.write(s[0], marked(desc, seq));
        heap.persist_range(s[0], 1);
        heap.fence();

        let img = heap.crash();
        let heap2 = Arc::new(NvmHeap::from_image(img));
        let (_alloc, blocks) = PAlloc::recover(Arc::clone(&heap2));
        let (fwd, back) = MwCasPool::recover(&heap2, &blocks);
        assert_eq!((fwd, back), (0, 1));
        assert_eq!(heap2.read(s[0]), 1, "roll-back must restore the old value");
        assert_eq!(heap2.read(s[1]), 2);
    }

    #[test]
    fn recovery_rolls_forward_committed() {
        let (heap, pool) = setup();
        let s = slots(&heap, 2);
        heap.write(s[0], 1);
        heap.write(s[1], 2);
        heap.persist_range(s[0], 1);
        heap.persist_range(s[1], 1);

        // Crash after the COMMITTED status persisted but before phase 2b.
        let desc = pool.my_descriptor();
        let seq = 4;
        heap.write(pw(desc, D_SEQ), seq);
        heap.write(pw(desc, D_STATUS), st_word(seq, ST_COMMITTED));
        heap.write(pw(desc, D_COUNT), 2);
        for (i, (&a, old, new)) in [(&s[0], 1u64, 10u64), (&s[1], 2, 20)].iter().enumerate() {
            heap.write(pw(desc, D_TRIPLES + 3 * i as u64), a.0);
            heap.write(pw(desc, D_TRIPLES + 3 * i as u64 + 1), *old);
            heap.write(pw(desc, D_TRIPLES + 3 * i as u64 + 2), *new);
        }
        heap.persist_range(desc, HDR_WORDS + DESC_PAYLOAD_WORDS);
        heap.write(s[0], marked(desc, seq));
        heap.write(s[1], marked(desc, seq));
        heap.persist_range(s[0], 1);
        heap.persist_range(s[1], 1);
        heap.fence();

        let heap2 = Arc::new(NvmHeap::from_image(heap.crash()));
        let (_alloc, blocks) = PAlloc::recover(Arc::clone(&heap2));
        let (fwd, back) = MwCasPool::recover(&heap2, &blocks);
        assert_eq!((fwd, back), (1, 0));
        assert_eq!(heap2.read(s[0]), 10);
        assert_eq!(heap2.read(s[1]), 20);
    }

    #[test]
    fn pmwcas_issues_many_more_flushes_than_mwcas() {
        let (heap, pool) = setup();
        let s = slots(&heap, 4);
        // Warm up the thread's descriptor so its one-time creation flush
        // is not charged to the transient path.
        let _ = pool.my_descriptor();
        let before = heap.stats().snapshot();
        assert!(pool.mwcas(&[MwTarget::new(s[0], 0, 1), MwTarget::new(s[1], 0, 1)]));
        let mid = heap.stats().snapshot();
        assert!(pool.pmwcas(&[MwTarget::new(s[2], 0, 1), MwTarget::new(s[3], 0, 1)]));
        let after = heap.stats().snapshot();
        let mwcas_flushes = mid.since(&before).flushes;
        let pmwcas_flushes = after.since(&mid).flushes;
        assert_eq!(mwcas_flushes, 0, "transient MwCAS must not flush");
        assert!(
            pmwcas_flushes >= 6,
            "PMwCAS flush schedule too thin: {pmwcas_flushes}"
        );
    }
}
