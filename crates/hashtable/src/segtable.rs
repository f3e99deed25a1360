//! The NVM extendible-hash segment table that [`Spash`](crate::Spash)
//! and [`Cceh`](crate::Cceh) share: segment layout, DRAM directory,
//! split and recovery. Each table adds only its own concurrency control
//! and persist schedule for the bucket operations.
//!
//! A *segment* is one 4 KiB NVM block: its local depth `ld`, a commit
//! flag, and 62 one-line buckets of an occupancy bitmap and 3 inline
//! key/value pairs. Every key in a segment shares the low `ld` bits of
//! its hash, the segment's *prefix*; the directory maps the low
//! `global_depth` bits to a segment. The table owns its heap: every
//! block on it is one of its segments.
//!
//! **Commit by the valid flag.** A split persists its two children whole
//! with the flag clear, then sets, writes back and fences the flag, and
//! only then repoints the directory and frees the parent, whose flag the
//! free clears. Recovery trusts only flagged segments and lets the
//! deeper of two segments win a slot, so after a crash anywhere in a
//! split either the parent or a complete child answers for each key.

use crate::hash64;
use htm_sim::sync::{RwLock, RwLockReadGuard};
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, HDR_WORDS};
use std::collections::HashSet;
use std::sync::Arc;

/// Segment payload geometry (class-4 blocks: 512 words, 508 payload).
const SEG_PAYLOAD: u64 = 508;
/// Payload word holding the segment's local depth.
const SEG_DEPTH: u64 = 0;
/// Payload word holding the commit flag: 1 once the segment is durable
/// and complete; recovery frees a segment without it.
const SEG_VALID: u64 = 1;
/// First bucket word.
const SEG_BUCKETS: u64 = 8;
/// Words per bucket: meta + 3 * (key, value) + pad.
const BUCKET_WORDS: u64 = 8;
/// Entries per bucket.
pub(crate) const BUCKET_ENTRIES: u64 = 3;
/// Buckets per segment.
const NBUCKETS: u64 = (SEG_PAYLOAD - SEG_BUCKETS) / BUCKET_WORDS; // 62

/// How a split loads NVM words: a charged media read, or a plain load.
pub(crate) type Reader = fn(&NvmHeap, NvmAddr) -> u64;

/// One bucket of a segment, by the address of its first word.
#[derive(Clone, Copy)]
pub(crate) struct Bucket(NvmAddr);

impl Bucket {
    /// The bucket of `seg` that hash `h` selects.
    #[inline]
    pub(crate) fn of(seg: NvmAddr, h: u64) -> Bucket {
        Self::nth(seg, (h >> 32) % NBUCKETS)
    }

    #[inline]
    fn nth(seg: NvmAddr, bucket: u64) -> Bucket {
        Bucket(seg.offset(HDR_WORDS + SEG_BUCKETS + bucket * BUCKET_WORDS))
    }

    /// The occupancy bitmap: bit `i` set while entry `i` holds a pair.
    #[inline]
    pub(crate) fn meta(self) -> NvmAddr {
        self.0
    }

    #[inline]
    pub(crate) fn key(self, i: u64) -> NvmAddr {
        self.0.offset(1 + 2 * i)
    }

    #[inline]
    pub(crate) fn value(self, i: u64) -> NvmAddr {
        self.0.offset(2 + 2 * i)
    }
}

/// An extendible-hash directory in DRAM: `2^global_depth` pointers to
/// segments, indexed by the low bits of a key's hash. BD-Spash keeps one
/// over DRAM segments.
pub(crate) struct Directory<S> {
    pub(crate) global_depth: u32,
    pub(crate) segments: Vec<S>,
}

impl<S: Clone> Directory<S> {
    /// A directory over `segments`, a power of two of them.
    pub(crate) fn new(segments: Vec<S>) -> Self {
        debug_assert!(segments.len().is_power_of_two());
        Directory {
            global_depth: segments.len().trailing_zeros(),
            segments,
        }
    }

    /// The segment covering hash `h`.
    #[inline]
    pub(crate) fn segment(&self, h: u64) -> &S {
        &self.segments[(h & ((1 << self.global_depth) - 1)) as usize]
    }

    /// Starts the split of the segment `is_old` picks, of local depth
    /// `ld`: doubles the directory if the segment is as deep as it, and
    /// returns the entries that point at the segment.
    pub(crate) fn split_entries(&mut self, ld: u32, is_old: impl Fn(&S) -> bool) -> Vec<usize> {
        if ld == self.global_depth {
            self.segments.extend_from_within(..);
            self.global_depth += 1;
        }
        (0..self.segments.len())
            .filter(|&e| is_old(&self.segments[e]))
            .collect()
    }

    /// Points each of `entries` at the child its hash bit `ld` selects.
    pub(crate) fn repoint(&mut self, entries: &[usize], ld: u32, child: &[S; 2]) {
        for &e in entries {
            self.segments[e] = child[(e >> ld) & 1].clone();
        }
    }
}

/// Segments on NVM behind a directory in DRAM.
pub(crate) struct SegTable {
    heap: Arc<NvmHeap>,
    alloc: PAlloc,
    tag: u64,
    dir: RwLock<Directory<NvmAddr>>,
}

impl SegTable {
    /// A fresh table on `heap`, whose blocks carry `tag`: two empty
    /// segments of depth 1.
    pub(crate) fn new(heap: Arc<NvmHeap>, tag: u64) -> Self {
        let alloc = PAlloc::new(Arc::clone(&heap));
        Self::open(heap, alloc, tag, vec![NvmAddr::NULL; 2])
    }

    /// A table over `segments`, each NULL slot filled with a fresh
    /// committed segment as deep as the directory.
    fn open(heap: Arc<NvmHeap>, alloc: PAlloc, tag: u64, segments: Vec<NvmAddr>) -> Self {
        let t = SegTable {
            heap,
            alloc,
            tag,
            dir: RwLock::new(Directory::new(segments)),
        };
        let mut dir = t.dir.write();
        let depth = dir.global_depth;
        for s in dir.segments.iter_mut().filter(|s| s.is_null()) {
            *s = t.new_segment(depth, true);
        }
        drop(dir);
        t
    }

    /// Allocates a zeroed segment of local depth `depth`. A `committed`
    /// one is durable, header and flag, on return; an uncommitted one
    /// (a split's child) leaves every write-back to the split.
    fn new_segment(&self, depth: u32, committed: bool) -> NvmAddr {
        let seg = self.alloc.alloc_persisted(SEG_PAYLOAD);
        Header::set_tag(&self.heap, seg, self.tag);
        Header::set_epoch(&self.heap, seg, 0);
        self.heap
            .write(seg.offset(HDR_WORDS + SEG_DEPTH), depth as u64);
        if committed {
            self.heap.write(seg.offset(HDR_WORDS + SEG_VALID), 1);
            self.heap.persist_range(seg, HDR_WORDS + SEG_BUCKETS);
            self.heap.fence();
        }
        seg
    }

    pub(crate) fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    /// The directory, shared: operations hold it across their bucket
    /// access so that no split moves the bucket under them.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Directory<NvmAddr>> {
        self.dir.read()
    }

    /// NVM bytes held by segments.
    pub(crate) fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    /// Splits the segment covering hash `h` into two one level deeper,
    /// doubling the directory first if the segment is as deep as it, and
    /// commits them (module docs). `read` loads the parent's entries and
    /// the children's bitmaps: the caller's cost model.
    ///
    /// A child that takes no directory entry is freed uncommitted. Only a
    /// parent that recovery left answering for half its prefix has one:
    /// its other half holds stale copies, which a committed child would
    /// bring back at the next recovery.
    pub(crate) fn split(&self, h: u64, read: Reader) {
        let mut dir = self.dir.write();
        let old = *dir.segment(h);
        let ld = self.heap.read(old.offset(HDR_WORDS + SEG_DEPTH)) as u32;
        let entries = dir.split_entries(ld, |&s| s == old);
        let child = [0, 1].map(|_| self.new_segment(ld + 1, false));
        for (b, i) in occupied(&self.heap, old, read) {
            let k = read(&self.heap, b.key(i));
            let v = read(&self.heap, b.value(i));
            let hk = hash64(k);
            let tb = Bucket::of(child[(hk >> ld) as usize & 1], hk);
            let tmeta = read(&self.heap, tb.meta());
            let slot = (0..BUCKET_ENTRIES)
                .find(|j| tmeta & (1 << j) == 0)
                .expect("split target bucket overflow");
            self.heap.write(tb.key(slot), k);
            self.heap.write(tb.value(slot), v);
            self.heap.write(tb.meta(), tmeta | (1 << slot));
        }
        for &c in &child {
            self.heap.persist_range(c, HDR_WORDS + SEG_PAYLOAD);
        }
        self.heap.fence();
        let mut retired = vec![old];
        for (c, &seg) in child.iter().enumerate() {
            if entries.iter().any(|&e| (e >> ld) & 1 == c) {
                let valid = seg.offset(HDR_WORDS + SEG_VALID);
                self.heap.write(valid, 1);
                self.heap.clwb(valid);
            } else {
                retired.push(seg);
            }
        }
        self.heap.fence();
        dir.repoint(&entries, ld, &child);
        free(&self.heap, &self.alloc, &retired);
    }

    /// Rebuilds a table from a crashed heap whose segments carry `tag`.
    /// Each committed segment takes its prefix's slots unless a deeper
    /// one does; the global depth is the deepest local depth; unclaimed
    /// slots get fresh segments. Every other block is freed: uncommitted
    /// children, shadowed parents, empty segments (their prefix is
    /// unknowable) and allocations cut off before their header.
    pub(crate) fn recover(heap: Arc<NvmHeap>, tag: u64) -> SegTable {
        let (alloc, blocks) = PAlloc::recover(Arc::clone(&heap));
        let mut segs: Vec<(NvmAddr, u32)> = Vec::new();
        let mut retired = Vec::new();
        for b in &blocks {
            if b.tag == tag && heap.read(b.addr.offset(HDR_WORDS + SEG_VALID)) == 1 {
                let ld = heap.read(b.addr.offset(HDR_WORDS + SEG_DEPTH)) as u32;
                segs.push((b.addr, ld));
            } else {
                retired.push(b.addr);
            }
        }
        let gd = segs.iter().map(|&(_, ld)| ld).max().unwrap_or(1).max(1);
        let mut directory = vec![(NvmAddr::NULL, 0u32); 1 << gd];
        for &(seg, ld) in &segs {
            // Derive the segment's prefix once from its first stored key,
            // then write exactly its 2^(gd-ld) matching slots: linear in
            // directory size instead of (segments x slots) probing.
            let Some(prefix) = segment_prefix(&heap, seg, ld) else {
                continue;
            };
            for e in (prefix as usize..1 << gd).step_by(1 << ld) {
                let slot = &mut directory[e];
                if ld >= slot.1 {
                    *slot = (seg, ld);
                }
            }
        }
        let segments: Vec<NvmAddr> = directory.into_iter().map(|(s, _)| s).collect();
        let referenced: HashSet<NvmAddr> = segments.iter().copied().collect();
        retired.extend(segs.iter().map(|s| s.0).filter(|s| !referenced.contains(s)));
        free(&heap, &alloc, &retired);
        Self::open(heap, alloc, tag, segments)
    }

    /// Checks that every directory slot points at a segment no deeper
    /// than the directory whose keys share the slot's low `ld` bits, and
    /// that the allocator's live blocks are exactly the segments the
    /// directory references. Call while quiescent.
    ///
    /// A segment may answer for fewer slots than its depth gives it: a
    /// parent that recovery left answering for half its prefix.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let dir = self.dir.read();
        let gd = dir.global_depth;
        let mut referenced = HashSet::new();
        for (e, &seg) in dir.segments.iter().enumerate() {
            let ld = self.heap.read(seg.offset(HDR_WORDS + SEG_DEPTH)) as u32;
            if ld > gd {
                return Err(format!(
                    "slot {e}: segment {seg:?} of depth {ld} under depth {gd}"
                ));
            }
            let prefix = e as u64 & ((1 << ld) - 1);
            if referenced.insert(seg) {
                for (b, i) in occupied(&self.heap, seg, NvmHeap::read) {
                    let k = self.heap.read(b.key(i));
                    if hash64(k) & ((1 << ld) - 1) != prefix {
                        return Err(format!("key {k} in segment {seg:?} of prefix {prefix}"));
                    }
                }
            }
        }
        let live: i64 = self.alloc.stats().live_blocks.iter().sum();
        if live != referenced.len() as i64 {
            return Err(format!(
                "{live} live blocks, {} segments referenced",
                referenced.len()
            ));
        }
        Ok(())
    }
}

/// Frees `segs`, clearing each one's commit flag first: the flag shares
/// the header line, so the free's write-back takes it to media. A torn
/// crash inside the block's next allocation can drain its `ALLOCATED`
/// state word and not its zeroed payload, and a segment still flagged
/// there would come back at recovery.
fn free(heap: &NvmHeap, alloc: &PAlloc, segs: &[NvmAddr]) {
    for &s in segs {
        heap.write(s.offset(HDR_WORDS + SEG_VALID), 0);
    }
    alloc.free_batch(segs);
}

/// Every occupied entry of `seg`, as `(bucket, entry index)`, in bucket
/// order; each bucket's bitmap is loaded with `read` when reached.
fn occupied(
    heap: &NvmHeap,
    seg: NvmAddr,
    read: Reader,
) -> impl Iterator<Item = (Bucket, u64)> + '_ {
    (0..NBUCKETS)
        .map(move |n| Bucket::nth(seg, n))
        .flat_map(move |b| {
            let meta = read(heap, b.meta());
            (0..BUCKET_ENTRIES)
                .filter(move |i| meta & (1 << i) != 0)
                .map(move |i| (b, i))
        })
}

/// The prefix of a segment of depth `ld`: the low `ld` bits of any
/// stored key's hash (all keys in a segment share them). `None` if the
/// segment is empty.
fn segment_prefix(heap: &NvmHeap, seg: NvmAddr, ld: u32) -> Option<u64> {
    let (b, i) = occupied(heap, seg, NvmHeap::read).next()?;
    Some(hash64(heap.read(b.key(i))) & ((1u64 << ld) - 1))
}
