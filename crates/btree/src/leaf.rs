//! The NVM leaf that [`LbTree`](crate::LbTree) and
//! [`OccAbTree`](crate::OccAbTree) share. Each tree adds its own inner
//! nodes and places its own fences between the steps below.
//!
//! A leaf is one class-3 block: a kind word, a validity bitmap, and
//! [`LEAF_CAP`] unsorted key/value slots from the block's second line
//! on, four to a line. Bit `i` of the bitmap is set while slot `i` is
//! live. **Every change to a live leaf is one 8-byte word:** an update
//! rewrites a live value; an insert writes its pair into a free slot
//! and writes it back before setting the slot's bit ([`Stripes::fill`],
//! then [`publish`]); a remove clears a bit. A split fills fresh leaves
//! the same way, pairs before bitmaps ([`Split::commit`]). [`free`]
//! clears the bitmap in the header-line write-back that frees the block,
//! so a torn crash in the block's next allocation (`ALLOCATED` drained,
//! zeroed payload not) finds an empty leaf, not the stale one.

use crate::LEAF_CAP;
use htm_sim::sync::Mutex;
use nvm_sim::{NvmAddr, NvmHeap, WORDS_PER_LINE};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Payload word telling a leaf (`LEAF`) from other nodes (0).
const KIND: u64 = 0;
const LEAF: u64 = 1;
/// Payload word of the validity bitmap, in the header's line.
const BITMAP: u64 = 1;
/// Payload word of slot 0's key: the block's second line.
const PAIRS: u64 = WORDS_PER_LINE - HDR_WORDS;
/// Payload words of a leaf (a class-3 block holds 124).
pub(crate) const PAYLOAD: u64 = PAIRS + 2 * LEAF_CAP as u64;
const FULL: u64 = (1 << LEAF_CAP) - 1;
pub(crate) const STRIPES: usize = 512;

fn word(leaf: NvmAddr, w: u64) -> NvmAddr {
    leaf.offset(HDR_WORDS + w)
}

fn key_word(leaf: NvmAddr, slot: u64) -> NvmAddr {
    word(leaf, PAIRS + 2 * slot)
}

fn load(heap: &NvmHeap, addr: NvmAddr) -> u64 {
    heap.word(addr).load(Ordering::Acquire)
}

/// The slots a bitmap marks live, lowest first.
fn slots(bits: u64) -> impl Iterator<Item = u64> {
    (0..LEAF_CAP as u64).filter(move |i| bits & (1 << i) != 0)
}

/// Allocates a leaf that is not live until [`commit`].
pub(crate) fn alloc(alloc: &PAlloc) -> NvmAddr {
    alloc.alloc_persisted(PAYLOAD)
}

/// Makes `leaf` live under `tag` with the slots `bits`, whose pairs are
/// written back: writes its header line back. The caller fences.
pub(crate) fn commit(heap: &NvmHeap, leaf: NvmAddr, tag: u64, bits: u64) {
    Header::set_tag(heap, leaf, tag);
    Header::set_epoch(heap, leaf, 0);
    heap.write(word(leaf, KIND), LEAF);
    heap.write(word(leaf, BITMAP), bits);
    heap.clwb(leaf);
}

pub(crate) fn is_leaf(heap: &NvmHeap, node: NvmAddr) -> bool {
    load(heap, word(node, KIND)) == LEAF
}

pub(crate) fn is_full(heap: &NvmHeap, leaf: NvmAddr) -> bool {
    load(heap, word(leaf, BITMAP)) == FULL
}

/// The live pairs of `leaf`, in slot order.
pub(crate) fn pairs(heap: &NvmHeap, leaf: NvmAddr) -> impl Iterator<Item = (u64, u64)> + '_ {
    slots(load(heap, word(leaf, BITMAP))).map(move |i| {
        let k = key_word(leaf, i);
        (load(heap, k), load(heap, k.offset(1)))
    })
}

/// The slot and value of `key` in `leaf`, read under the leaf's lock or
/// validated by [`Stripes::get`].
pub(crate) fn find(heap: &NvmHeap, leaf: NvmAddr, key: u64) -> Option<(u64, u64)> {
    let slot =
        slots(load(heap, word(leaf, BITMAP))).find(|&i| load(heap, key_word(leaf, i)) == key)?;
    // A key matched, its value not yet loaded.
    htm_sim::chaos::point("btree::leaf_pair");
    Some((slot, load(heap, key_word(leaf, slot).offset(1))))
}

/// Rewrites live `slot`'s value and writes it back.
pub(crate) fn update(heap: &NvmHeap, leaf: NvmAddr, slot: u64, value: u64) {
    let v = key_word(leaf, slot).offset(1);
    heap.write(v, value);
    heap.clwb(v);
}

/// Makes the pair that [`Stripes::fill`] wrote into `slot` live: sets
/// its bit and writes the bitmap back.
pub(crate) fn publish(heap: &NvmHeap, leaf: NvmAddr, slot: u64) {
    let b = word(leaf, BITMAP);
    heap.write(b, load(heap, b) | 1 << slot);
    heap.clwb(b);
}

/// Frees live `slot`: clears its bit and writes the bitmap back.
pub(crate) fn remove(heap: &NvmHeap, leaf: NvmAddr, slot: u64) {
    let b = word(leaf, BITMAP);
    heap.write(b, load(heap, b) & !(1 << slot));
    heap.clwb(b);
}

/// A full leaf's pairs, sorted and halved into a lower and an upper
/// child, whose least key is `sep`.
pub(crate) struct Split {
    pub(crate) sep: u64,
    pub(crate) children: [NvmAddr; 2],
    counts: [usize; 2],
}

/// Writes `leaf`'s pairs into two fresh leaves and writes them back; the
/// caller fences and calls [`Split::commit`] before anything uses them.
pub(crate) fn split(heap: &NvmHeap, palloc: &PAlloc, leaf: NvmAddr) -> Split {
    let mut sorted: Vec<(u64, u64)> = pairs(heap, leaf).collect();
    sorted.sort_unstable();
    let (lo, hi) = sorted.split_at(sorted.len() / 2);
    let children = [lo, hi].map(|half| {
        let child = alloc(palloc);
        for (i, &(k, v)) in half.iter().enumerate() {
            let kw = key_word(child, i as u64);
            heap.write(kw, k);
            heap.write(kw.offset(1), v);
        }
        heap.persist_range(key_word(child, 0), 2 * half.len() as u64);
        child
    });
    Split {
        sep: hi[0].0,
        children,
        counts: [lo.len(), hi.len()],
    }
}

impl Split {
    pub(crate) fn commit(&self, heap: &NvmHeap, tag: u64) {
        for (&child, &n) in self.children.iter().zip(&self.counts) {
            commit(heap, child, tag, (1 << n) - 1);
        }
    }
}

/// Frees `blocks`, each bitmap cleared in its header-line write-back.
pub(crate) fn free(heap: &NvmHeap, palloc: &PAlloc, blocks: &[NvmAddr]) {
    for &b in blocks {
        heap.write(word(b, BITMAP), 0);
    }
    palloc.free_batch(blocks);
}

/// Checks `leaf` is a committed leaf with keys in `lo..hi` (`None`: open).
pub(crate) fn check(
    heap: &NvmHeap,
    leaf: NvmAddr,
    lo: Option<u64>,
    hi: Option<u64>,
) -> Result<(), String> {
    if !is_leaf(heap, leaf) {
        return Err(format!("{leaf:?} is not a committed leaf"));
    }
    let out = |k: u64| lo.is_some_and(|lo| k < lo) || hi.is_some_and(|hi| k >= hi);
    match pairs(heap, leaf).find(|&(k, _)| out(k)) {
        Some((k, _)) => Err(format!("key {k} of {leaf:?} is outside {lo:?}..{hi:?}")),
        None => Ok(()),
    }
}

/// Checks that the allocator's live blocks are the `reached` ones.
pub(crate) fn check_live(palloc: &PAlloc, reached: usize) -> Result<(), String> {
    let live: i64 = palloc.stats().live_blocks.iter().sum();
    if live != reached as i64 {
        return Err(format!("{live} live blocks, {reached} reachable"));
    }
    Ok(())
}

/// Striped leaf locks, each with a DRAM sequence counter that is odd
/// while the lock holder refills a slot.
pub(crate) struct Stripes {
    locks: Box<[Mutex<()>]>,
    seq: Box<[AtomicU64]>,
}

impl Stripes {
    pub(crate) fn new() -> Self {
        Stripes {
            locks: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            seq: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    pub(crate) fn index(leaf: NvmAddr) -> usize {
        (leaf.0 as usize * 0x9E37) % STRIPES
    }

    #[inline]
    pub(crate) fn lock(&self, leaf: NvmAddr) -> &Mutex<()> {
        &self.locks[Self::index(leaf)]
    }

    /// Lock-free lookup. A reader that loads a value after its slot was
    /// freed and refilled sees the stripe's counter moved, and retries.
    pub(crate) fn get(&self, heap: &NvmHeap, leaf: NvmAddr, key: u64) -> Option<u64> {
        let seq = &self.seq[Self::index(leaf)];
        loop {
            let before = seq.load(Ordering::Acquire);
            if before.is_multiple_of(2) {
                let found = find(heap, leaf, key).map(|(_, v)| v);
                fence(Ordering::Acquire);
                if seq.load(Ordering::Relaxed) == before {
                    return found;
                }
            }
            std::thread::yield_now();
        }
    }

    /// Writes `key → value` back into `leaf`'s lowest free slot (`None`:
    /// full) in a write section; the lock holder then [`publish`]es it.
    pub(crate) fn fill(&self, heap: &NvmHeap, leaf: NvmAddr, key: u64, value: u64) -> Option<u64> {
        let bits = load(heap, word(leaf, BITMAP));
        let slot = (0..LEAF_CAP as u64).find(|i| bits & (1 << i) == 0)?;
        let seq = &self.seq[Self::index(leaf)];
        seq.store(seq.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // The odd count is visible before the pair's words (pairs with
        // the Acquire fence in `get`).
        fence(Ordering::Release);
        let kw = key_word(leaf, slot);
        heap.write(kw, key);
        heap.write(kw.offset(1), value);
        seq.store(seq.load(Ordering::Relaxed) + 1, Ordering::Release);
        heap.clwb(kw);
        Some(slot)
    }
}
