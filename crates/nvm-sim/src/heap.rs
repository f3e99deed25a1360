//! The simulated NVM heap: volatile image, media image, write-back,
//! eviction, crash and recovery.

use crate::config::NvmConfig;
use crate::device::{DeviceError, DeviceFaults, DeviceOpKind};
use crate::fault::{CrashPointKind, FaultPlan};
use crate::latency::spin_ns;
use crate::stats::NvmStats;
use htm_sim::rng::SplitMix64;
use htm_sim::sync::Mutex;
use htm_sim::AbortCause;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Words (8 B) per cache line (64 B).
pub const WORDS_PER_LINE: u64 = 8;
/// Words per XPLine — the 256 B internal access granularity of
/// first-generation Optane media.
pub const WORDS_PER_XPLINE: u64 = 32;
/// Words reserved at the bottom of the heap for root metadata (the
/// persisted global epoch number, recovery magic, allocator roots).
pub const ROOT_WORDS: u64 = 64;

/// A word address within an [`NvmHeap`]: an index of an 8-byte word.
/// `NvmAddr::NULL` (word 0, inside the reserved root area) doubles as the
/// null pointer for persistent data structures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NvmAddr(pub u64);

impl NvmAddr {
    pub const NULL: NvmAddr = NvmAddr(0);

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The cache line containing this word.
    #[inline]
    pub fn line(self) -> u64 {
        self.0 / WORDS_PER_LINE
    }

    /// The XPLine containing this word.
    #[inline]
    pub fn xpline(self) -> u64 {
        self.0 / WORDS_PER_XPLINE
    }

    /// Word `self + off`.
    #[inline]
    pub fn offset(self, off: u64) -> NvmAddr {
        NvmAddr(self.0 + off)
    }
}

/// A byte-for-byte snapshot of everything that survived a crash.
///
/// Produced by [`NvmHeap::crash`]; feed it to [`NvmHeap::from_image`] to
/// model a post-reboot heap (caches empty, volatile image re-read from
/// media).
pub struct CrashImage {
    words: Vec<u64>,
    config: NvmConfig,
}

impl CrashImage {
    /// Raw word access, for white-box assertions in tests.
    pub fn word(&self, addr: NvmAddr) -> u64 {
        self.words[addr.0 as usize]
    }

    /// Number of words captured.
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Deep copy (benchmarks recover the same image several times).
    pub fn duplicate(&self) -> CrashImage {
        CrashImage {
            words: self.words.clone(),
            config: self.config.clone(),
        }
    }
}

/// The simulated persistent heap. All methods are callable from any
/// thread; word accesses are atomic with acquire/release ordering.
pub struct NvmHeap {
    /// What running threads observe: caches + memory, merged.
    volatile: Box<[AtomicU64]>,
    /// What survives a crash (under ADR).
    media: Box<[AtomicU64]>,
    /// Per-line dirty flags (volatile image differs from media). Used by
    /// eviction injection; `clwb` copies unconditionally because
    /// HTM-committed stores bypass this tracking.
    dirty: Box<[AtomicU8]>,
    config: NvmConfig,
    stats: NvmStats,
    /// Fast-path gate for fault injection: checked with a relaxed load on
    /// every persist-relevant operation, so unfaulted runs pay one branch.
    fault_armed: AtomicBool,
    /// The armed crash schedule, if any (see [`crate::fault`]).
    fault: Mutex<Option<Arc<FaultPlan>>>,
    /// Fast-path gate for transient device faults (same discipline as
    /// `fault_armed`), checked only by the fallible `try_*` entry points.
    device_armed: AtomicBool,
    /// The armed transient-fault schedule, if any (see [`crate::device`]).
    device: Mutex<Option<Arc<DeviceFaults>>>,
}

impl NvmHeap {
    /// Creates a zeroed heap.
    pub fn new(config: NvmConfig) -> Self {
        let words = (config.capacity_bytes as u64).div_ceil(8).max(ROOT_WORDS);
        let words = words.next_multiple_of(WORDS_PER_LINE);
        let lines = words / WORDS_PER_LINE;
        Self {
            volatile: (0..words).map(|_| AtomicU64::new(0)).collect(),
            media: (0..words).map(|_| AtomicU64::new(0)).collect(),
            dirty: (0..lines).map(|_| AtomicU8::new(0)).collect(),
            config,
            stats: NvmStats::default(),
            fault_armed: AtomicBool::new(false),
            fault: Mutex::new(None),
            device_armed: AtomicBool::new(false),
            device: Mutex::new(None),
        }
    }

    /// Reconstructs a heap after a crash: both images start from the
    /// surviving bytes, caches are empty.
    pub fn from_image(image: CrashImage) -> Self {
        let words = image.words.len() as u64;
        let lines = words / WORDS_PER_LINE;
        Self {
            volatile: image.words.iter().map(|&w| AtomicU64::new(w)).collect(),
            media: image.words.iter().map(|&w| AtomicU64::new(w)).collect(),
            dirty: (0..lines).map(|_| AtomicU8::new(0)).collect(),
            config: image.config,
            stats: NvmStats::default(),
            fault_armed: AtomicBool::new(false),
            fault: Mutex::new(None),
            device_armed: AtomicBool::new(false),
            device: Mutex::new(None),
        }
    }

    /// Arms a crash schedule: every subsequent persist-relevant operation
    /// reports to `plan` (and may crash the machine). See [`crate::fault`].
    pub fn arm_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.fault.lock() = Some(plan);
        self.fault_armed.store(true, Ordering::SeqCst);
    }

    /// Disarms and returns the current plan, if any.
    pub fn disarm_fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_armed.store(false, Ordering::SeqCst);
        self.fault.lock().take()
    }

    /// Reports a numbered crash point to the armed plan. Diverges (by
    /// unwinding) if the plan decides to crash here.
    #[inline]
    fn fault_point(&self, kind: CrashPointKind) {
        if !self.fault_armed.load(Ordering::Relaxed) {
            return;
        }
        let plan = self.fault.lock().clone();
        if let Some(plan) = plan {
            plan.observe(self, kind);
        }
    }

    /// Arms a transient-fault schedule: subsequent calls to the fallible
    /// entry points ([`NvmHeap::try_clwb`], [`NvmHeap::try_persist_range`],
    /// [`NvmHeap::try_fence`]) may return [`DeviceError`]s or stall. The
    /// infallible paths are unaffected. See [`crate::device`].
    pub fn arm_device_faults(&self, faults: Arc<DeviceFaults>) {
        *self.device.lock() = Some(faults);
        self.device_armed.store(true, Ordering::SeqCst);
    }

    /// Disarms and returns the current transient-fault schedule, if any.
    pub fn disarm_device_faults(&self) -> Option<Arc<DeviceFaults>> {
        self.device_armed.store(false, Ordering::SeqCst);
        self.device.lock().take()
    }

    /// Consults the armed transient-fault schedule for one guarded device
    /// operation, charging any latency spike on the calling thread.
    #[inline]
    fn device_fault(&self, op: DeviceOpKind) -> Option<DeviceError> {
        if !self.device_armed.load(Ordering::Relaxed) {
            return None;
        }
        let faults = self.device.lock().clone()?;
        let (spike_ns, err) = faults.draw(op);
        spin_ns(spike_ns);
        err
    }

    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Heap capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.volatile.len() as u64
    }

    /// First word usable by an allocator (just past the root area).
    pub fn base(&self) -> NvmAddr {
        NvmAddr(ROOT_WORDS)
    }

    /// One of the `ROOT_WORDS` reserved root slots (recovery anchors).
    pub fn root(&self, i: u64) -> NvmAddr {
        assert!(i < ROOT_WORDS, "root slot out of range");
        NvmAddr(i)
    }

    /// The underlying atomic for `addr`, for direct or HTM-transactional
    /// access ([`htm_sim::Txn::load`] / [`htm_sim::Txn::store`]). Writes
    /// made this way bypass dirty tracking; pair them with
    /// [`NvmHeap::mark_dirty`] or an explicit epoch-system track.
    #[inline]
    pub fn word(&self, addr: NvmAddr) -> &AtomicU64 {
        &self.volatile[addr.0 as usize]
    }

    /// Reads a word, charging the configured media-read latency.
    #[inline]
    pub fn read(&self, addr: NvmAddr) -> u64 {
        self.stats.record_read();
        spin_ns(self.config.read_ns);
        self.volatile[addr.0 as usize].load(Ordering::Acquire)
    }

    /// Writes a word to the volatile image (a cache write: fast). The
    /// value is *not* durable until its line is written back.
    #[inline]
    pub fn write(&self, addr: NvmAddr, val: u64) {
        self.stats.record_write();
        self.volatile[addr.0 as usize].store(val, Ordering::Release);
        self.dirty[addr.line() as usize].store(1, Ordering::Release);
    }

    /// Charges the cost model for one media read performed through a
    /// transactional load (HTM loads bypass [`NvmHeap::read`], so data
    /// structures call this once per logical NVM record read).
    #[inline]
    pub fn charge_media_read(&self) {
        self.stats.record_read();
        spin_ns(self.config.read_ns);
    }

    /// Writes `words` consecutive words from `addr` with *versioned*
    /// stores ([`htm_sim::versioned_store_words`]): word `i` gets
    /// `value(i)`, or is left as it is when that is `None`. Concurrent
    /// hardware transactions that read any line of the range observe the
    /// change and abort, as they would under real cache coherence. Use
    /// for non-transactional mutation of words that transactional readers
    /// may hold references to (block reclamation and reuse).
    ///
    /// Costs one stripe acquisition and one version bump per cache line,
    /// not per word. Counts one write per word written and dirties every
    /// line of the range.
    pub fn write_coherent_words(
        &self,
        addr: NvmAddr,
        words: u64,
        value: impl Fn(u64) -> Option<u64>,
    ) {
        if words == 0 {
            return;
        }
        let a = addr.0 as usize;
        let written = std::cell::Cell::new(0);
        htm_sim::versioned_store_words(&self.volatile[a..a + words as usize], |i| {
            let v = value(i as u64);
            written.set(written.get() + v.is_some() as u64);
            v
        });
        self.stats.record_writes(written.get());
        // Dirtied after the stores, as by `write`: a write-back that
        // clears the flag has then copied the new words.
        let first = addr.line();
        let last = NvmAddr(addr.0 + words - 1).line();
        for line in first..=last {
            self.dirty[line as usize].store(1, Ordering::Release);
        }
    }

    /// Atomic compare-exchange on a word of the volatile image.
    #[inline]
    pub fn cas(&self, addr: NvmAddr, old: u64, new: u64) -> Result<u64, u64> {
        self.stats.record_cas();
        // SeqCst, not AcqRel: the MwCAS helping protocol's correctness
        // argument (DESIGN.md memory-ordering inventory) chains its
        // status reads through the single total order of these RMWs; on
        // x86 a `lock cmpxchg` is sequentially consistent either way, so
        // the stronger ordering costs nothing.
        let r = self.volatile[addr.0 as usize].compare_exchange(
            old,
            new,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if r.is_ok() {
            self.dirty[addr.line() as usize].store(1, Ordering::Release);
        }
        r
    }

    /// Marks the line of `addr` dirty. Needed after HTM-transactional
    /// stores, which publish through the atomics directly.
    #[inline]
    pub fn mark_dirty(&self, addr: NvmAddr) {
        self.dirty[addr.line() as usize].store(1, Ordering::Release);
    }

    /// `clwb`: writes the cache line of `addr` back to media.
    ///
    /// Inside an active hardware transaction (and without eADR) this
    /// *aborts the transaction* — the write-back never happens, exactly
    /// like `clwb` under TSX — and returns `false`. Under eADR it is a
    /// latency-free hint. Durability of the write-back is only guaranteed
    /// after a subsequent [`NvmHeap::fence`] on real hardware; the
    /// simulator copies eagerly but still charges the fence cost model.
    #[inline]
    pub fn clwb(&self, addr: NvmAddr) -> bool {
        if self.config.eadr {
            self.fault_point(CrashPointKind::Clwb);
            self.stats.record_writeback(addr.xpline());
            return true;
        }
        if htm_sim::in_txn() {
            htm_sim::poison_current_txn(AbortCause::PersistInTxn);
            return false;
        }
        // Crash point *before* the write-back: crashing at point i means
        // persist operation i never reached the media.
        self.fault_point(CrashPointKind::Clwb);
        self.writeback_line(addr.line());
        self.stats.record_writeback(addr.xpline());
        spin_ns(self.config.writeback_ns);
        true
    }

    /// Writes back every line covering `words` words starting at `addr`.
    /// Returns `false` (aborting the transaction) under the same
    /// conditions as [`NvmHeap::clwb`].
    pub fn persist_range(&self, addr: NvmAddr, words: u64) -> bool {
        if words == 0 {
            return true;
        }
        let first = addr.line();
        let last = NvmAddr(addr.0 + words - 1).line();
        for line in first..=last {
            if !self.clwb(NvmAddr(line * WORDS_PER_LINE)) {
                return false;
            }
        }
        true
    }

    /// Device-level bulk initialization: copies a region volatile→media
    /// with no cost-model charges and no transaction interaction. For
    /// allocator bootstrap (extent formatting) only — using it on data
    /// paths would falsify the persistence statistics.
    pub fn format_region(&self, addr: NvmAddr, words: u64) {
        if words == 0 {
            return;
        }
        let first = addr.line();
        let last = NvmAddr(addr.0 + words - 1).line();
        for line in first..=last {
            self.fault_point(CrashPointKind::FormatLine);
            self.writeback_line(line);
        }
    }

    /// `sfence` after `clwb`s: charges the drain latency. Fences do not
    /// abort TSX transactions (only the flushes themselves do).
    #[inline]
    pub fn fence(&self) {
        self.fault_point(CrashPointKind::Fence);
        self.stats.record_fence();
        spin_ns(self.config.fence_ns);
    }

    /// Fallible [`NvmHeap::clwb`]: consults the armed [`DeviceFaults`]
    /// schedule first and returns a transient [`DeviceError`] (nothing
    /// reaches media) if it fires. With no schedule armed this is exactly
    /// `clwb` — same crash points, same stats, same latency.
    #[inline]
    pub fn try_clwb(&self, addr: NvmAddr) -> Result<bool, DeviceError> {
        if let Some(e) = self.device_fault(DeviceOpKind::Writeback) {
            return Err(e);
        }
        Ok(self.clwb(addr))
    }

    /// Fallible [`NvmHeap::persist_range`]: each covered line goes through
    /// [`NvmHeap::try_clwb`]. On a transient error, lines already written
    /// back stay written back (write-back is idempotent, so retrying the
    /// whole range is safe).
    pub fn try_persist_range(&self, addr: NvmAddr, words: u64) -> Result<bool, DeviceError> {
        if words == 0 {
            return Ok(true);
        }
        let first = addr.line();
        let last = NvmAddr(addr.0 + words - 1).line();
        for line in first..=last {
            if !self.try_clwb(NvmAddr(line * WORDS_PER_LINE))? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Fallible [`NvmHeap::fence`]: a transient error means the drain did
    /// not complete and prior write-backs must be considered undrained
    /// (re-issue the write-backs and the fence on retry).
    #[inline]
    pub fn try_fence(&self) -> Result<(), DeviceError> {
        if let Some(e) = self.device_fault(DeviceOpKind::Fence) {
            return Err(e);
        }
        self.fence();
        Ok(())
    }

    fn writeback_line(&self, line: u64) {
        let start = (line * WORDS_PER_LINE) as usize;
        self.dirty[line as usize].store(0, Ordering::Release);
        for i in start..start + WORDS_PER_LINE as usize {
            let v = self.volatile[i].load(Ordering::Acquire);
            self.media[i].store(v, Ordering::Release);
        }
    }

    /// Simulated cache eviction: writes back up to `n` randomly chosen
    /// dirty lines (adversarial replacement order). `seed` makes test
    /// schedules reproducible. Returns the number of lines evicted.
    pub fn evict_random_lines(&self, n: usize, seed: u64) -> usize {
        let lines = self.dirty.len() as u64;
        // Random starting point, then an odd stride co-prime with the line
        // count's power-of-two factor, so the walk visits every line: a
        // replacement policy always finds victims if any exist.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let start_line = x.wrapping_mul(0x2545_F491_4F6C_DD1D) % lines;
        let stride = (x >> 17) | 1;
        let mut evicted = 0;
        let mut line = start_line;
        for _ in 0..lines {
            if evicted == n {
                break;
            }
            if self.dirty[line as usize]
                .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.fault_point(CrashPointKind::EvictLine);
                let w = (line * WORDS_PER_LINE) as usize;
                for i in w..w + WORDS_PER_LINE as usize {
                    let v = self.volatile[i].load(Ordering::Acquire);
                    self.media[i].store(v, Ordering::Release);
                }
                evicted += 1;
            }
            line = (line + stride) % lines;
        }
        self.stats.record_eviction(evicted as u64);
        evicted
    }

    /// Drains a seeded subset of the *dirty words* to media: some lines
    /// never leave the write-pending queue, others drain partially (torn
    /// multi-word writes — ADR promises only 8-byte atomicity). Used by
    /// [`FaultPlan::with_torn_writes`] immediately before the crash image
    /// is captured; dirty flags are left untouched because the heap is
    /// dead the instant this runs.
    pub fn torn_writeback(&self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for line in 0..self.dirty.len() {
            if self.dirty[line].load(Ordering::Acquire) == 0 {
                continue;
            }
            let r = rng.next_u64();
            if r & 1 == 0 {
                continue; // whole line lost
            }
            let word_mask = (r >> 1) & 0xFF;
            let w = line * WORDS_PER_LINE as usize;
            for i in 0..WORDS_PER_LINE as usize {
                if word_mask & (1 << i) != 0 {
                    let v = self.volatile[w + i].load(Ordering::Acquire);
                    self.media[w + i].store(v, Ordering::Release);
                }
            }
        }
    }

    /// Full-system crash: returns what survived. Under ADR that is the
    /// media image only — every line never written back is lost. Under
    /// eADR the battery drains the caches, so the volatile image survives.
    pub fn crash(&self) -> CrashImage {
        let source = if self.config.eadr {
            &self.volatile
        } else {
            &self.media
        };
        CrashImage {
            words: source.iter().map(|w| w.load(Ordering::Acquire)).collect(),
            config: self.config.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmConfig;

    fn heap() -> NvmHeap {
        NvmHeap::new(NvmConfig::for_tests(1 << 16))
    }

    #[test]
    fn unflushed_writes_die_in_a_crash() {
        let h = heap();
        let a = h.base();
        h.write(a, 42);
        let img = h.crash();
        assert_eq!(img.word(a), 0, "write survived without clwb");
    }

    #[test]
    fn flushed_writes_survive() {
        let h = heap();
        let a = h.base();
        h.write(a, 42);
        assert!(h.clwb(a));
        h.fence();
        let img = h.crash();
        assert_eq!(img.word(a), 42);
        let h2 = NvmHeap::from_image(img);
        assert_eq!(h2.read(a), 42);
    }

    #[test]
    fn clwb_covers_the_whole_line_but_not_neighbours() {
        let h = heap();
        let a = h.base(); // line-aligned (ROOT_WORDS is a multiple of 8)
        for i in 0..WORDS_PER_LINE + 1 {
            h.write(a.offset(i), i + 1);
        }
        h.clwb(a);
        let img = h.crash();
        for i in 0..WORDS_PER_LINE {
            assert_eq!(img.word(a.offset(i)), i + 1);
        }
        assert_eq!(img.word(a.offset(WORDS_PER_LINE)), 0);
    }

    #[test]
    fn eadr_crash_preserves_everything() {
        let h = NvmHeap::new(NvmConfig::for_tests(1 << 16).with_eadr(true));
        let a = h.base();
        h.write(a, 7);
        let img = h.crash();
        assert_eq!(img.word(a), 7);
    }

    #[test]
    fn clwb_inside_txn_aborts_it() {
        use htm_sim::{Htm, HtmConfig};
        let h = heap();
        let htm = Htm::new(HtmConfig::for_tests());
        let a = h.base();
        let r = htm.attempt(|_t| {
            assert!(!h.clwb(a), "clwb must not retire inside a transaction");
            Ok(())
        });
        assert_eq!(r.unwrap_err(), AbortCause::PersistInTxn);
        // And nothing reached the media.
        assert_eq!(h.crash().word(a), 0);
    }

    #[test]
    fn clwb_inside_txn_is_allowed_under_eadr() {
        use htm_sim::{Htm, HtmConfig};
        let h = NvmHeap::new(NvmConfig::for_tests(1 << 16).with_eadr(true));
        let htm = Htm::new(HtmConfig::for_tests());
        let a = h.base();
        let r = htm.attempt(|t| {
            t.store(h.word(a), 9)?;
            assert!(h.clwb(a));
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(h.crash().word(a), 9);
    }

    #[test]
    fn eviction_persists_dirty_lines() {
        let h = heap();
        let a = h.base();
        h.write(a, 5);
        // Evict aggressively until the line lands on media.
        let mut total = 0;
        for seed in 0..64 {
            total += h.evict_random_lines(16, seed);
        }
        assert!(total >= 1);
        assert_eq!(h.crash().word(a), 5);
    }

    #[test]
    fn persist_range_spans_lines() {
        let h = heap();
        let a = h.base();
        for i in 0..20 {
            h.write(a.offset(i), 100 + i);
        }
        assert!(h.persist_range(a, 20));
        let img = h.crash();
        for i in 0..20 {
            assert_eq!(img.word(a.offset(i)), 100 + i);
        }
    }

    #[test]
    fn stats_track_traffic() {
        let h = heap();
        let a = h.base();
        h.write(a, 1);
        h.read(a);
        h.clwb(a);
        h.fence();
        let s = h.stats().snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.lines_written_back, 1);
        assert!(s.xplines_touched >= 1);
    }

    #[test]
    fn xpline_coalescing_counts_sequential_flushes_once() {
        let h = heap();
        let a = h.base(); // XPLine-aligned (ROOT_WORDS = 64 = 2 XPLines)
        for i in 0..4 {
            // 4 lines = 1 XPLine
            h.write(a.offset(i * WORDS_PER_LINE), i);
            h.clwb(a.offset(i * WORDS_PER_LINE));
        }
        let s = h.stats().snapshot();
        assert_eq!(s.lines_written_back, 4);
        assert_eq!(s.xplines_touched, 1, "sequential flushes should coalesce");
    }

    #[test]
    fn cas_works_and_dirties() {
        let h = heap();
        let a = h.base();
        assert!(h.cas(a, 0, 3).is_ok());
        assert_eq!(h.cas(a, 0, 4).unwrap_err(), 3);
        h.clwb(a);
        assert_eq!(h.crash().word(a), 3);
    }
}
