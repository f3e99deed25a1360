//! Speculative transactions: read/write sets, opacity, and commit.

use crate::config::{READ_CAPACITY_ENTRIES, WRITE_CAPACITY_LINES};
use crate::htm::Htm;
use crate::stripe::{StripeTable, StripeWord};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a transaction aborted. Mirrors the cause taxonomy of Intel TSX
/// (`_XABORT_*` status bits) plus the simulator-specific
/// [`PersistInTxn`](AbortCause::PersistInTxn) cause that models the abort
/// triggered by `clwb`/`clflush`-class instructions — the incompatibility
/// the paper resolves with buffered durability.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortCause {
    /// Data conflict with a concurrent transaction (or failed validation).
    Conflict,
    /// Read or write footprint exceeded the speculative capacity.
    Capacity,
    /// The program executed `xabort(code)`.
    Explicit(u8),
    /// Transient event (interrupt, page fault, ...), injected randomly.
    Spurious,
    /// The `ABORTED_MEMTYPE` anomaly of §4.1, injected randomly.
    MemType,
    /// A persist instruction (`clwb`/flush/fence-to-media) or an NVM
    /// allocation executed inside the transaction.
    PersistInTxn,
    /// The subscribed global fallback lock was (or became) held.
    FallbackLocked,
}

impl AbortCause {
    /// Number of statistics buckets (all `Explicit` codes share one).
    pub const COUNT: usize = 7;

    /// Dense index for statistics arrays.
    pub fn index(self) -> usize {
        match self {
            AbortCause::Conflict => 0,
            AbortCause::Capacity => 1,
            AbortCause::Explicit(_) => 2,
            AbortCause::Spurious => 3,
            AbortCause::MemType => 4,
            AbortCause::PersistInTxn => 5,
            AbortCause::FallbackLocked => 6,
        }
    }

    /// Human-readable label (benchmark reports).
    pub fn label(idx: usize) -> &'static str {
        [
            "conflict",
            "capacity",
            "explicit",
            "spurious",
            "memtype",
            "persist-in-txn",
            "fallback-locked",
        ][idx]
    }
}

/// Zero-sized marker returned through `Err` when a transactional access
/// aborts; the concrete [`AbortCause`] is recorded inside the transaction.
/// Using a marker keeps the hot path free of enum copies and lets user
/// code propagate aborts with `?`.
#[derive(Debug)]
pub struct Abort;

/// Result alias used by all transactional code.
pub type TxResult<T> = Result<T, Abort>;

/// A transaction's tracking sets. One set per thread lives in [`SETS`]
/// between attempts, so a warm attempt allocates nothing: [`Txn::new`]
/// takes it and `Txn`'s drop clears it and hands it back, on commit,
/// abort and unwind alike.
#[derive(Default)]
struct Sets {
    /// Stripe indices read (possibly duplicated); revalidated at commit.
    reads: Vec<u32>,
    /// Buffered speculative writes, in program order. The cells are
    /// `&'env AtomicU64`s of the owning [`Txn`], kept as addresses so the
    /// buffer can outlive the attempt.
    writes: Vec<(*const AtomicU64, u64)>,
    /// Distinct cache lines written (capacity accounting).
    lines: Vec<usize>,
    /// The commit's distinct write stripes and their pre-lock words.
    stripes: Vec<(u32, StripeWord)>,
}

impl Sets {
    const fn new() -> Self {
        Sets {
            reads: Vec::new(),
            writes: Vec::new(),
            lines: Vec::new(),
            stripes: Vec::new(),
        }
    }

    /// Empties every set. The capacity constants bound each set's length,
    /// so a warm buffer never holds more than one capacity-sized attempt.
    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.lines.clear();
        self.stripes.clear();
    }
}

thread_local! {
    static SETS: Cell<Sets> = const { Cell::new(Sets::new()) };
}

/// An active speculative transaction.
///
/// Obtained from [`Htm::attempt`](crate::Htm::attempt) or, behind the
/// [`MemAccess`](crate::MemAccess) trait, from [`Htm::run`](crate::Htm::run).
/// The `'env` lifetime ties every accessed [`AtomicU64`] to the enclosing
/// attempt, so cells are guaranteed to outlive commit-time write-back —
/// a reference to a closure-local atomic will not compile.
pub struct Txn<'env> {
    htm: &'env Htm,
    /// Read version: global-clock snapshot at begin.
    rv: u64,
    sets: Sets,
    cause: AbortCause,
    /// Every address in `sets.writes` came from a `&'env AtomicU64`.
    _cells: PhantomData<&'env AtomicU64>,
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        let mut sets = std::mem::take(&mut self.sets);
        sets.clear();
        // `try_with`: a thread tearing down its thread-locals just frees it.
        let _ = SETS.try_with(|s| s.set(sets));
    }
}

impl<'env> Txn<'env> {
    pub(crate) fn new(htm: &'env Htm, rv: u64) -> Self {
        Txn {
            htm,
            rv,
            sets: SETS.with(Cell::take),
            cause: AbortCause::Conflict,
            _cells: PhantomData,
        }
    }

    /// The abort cause recorded by the most recent failed access.
    pub(crate) fn cause(&self) -> AbortCause {
        self.cause
    }

    #[inline]
    fn fail(&mut self, cause: AbortCause) -> Abort {
        self.cause = cause;
        Abort
    }

    #[inline]
    fn check_poison(&mut self) -> TxResult<()> {
        if let Some(cause) = crate::take_poison() {
            return Err(self.fail(cause));
        }
        Ok(())
    }

    /// Transactionally reads a word, with per-access opacity validation:
    /// the returned value is guaranteed to belong to the snapshot at `rv`.
    #[inline]
    pub fn load(&mut self, cell: &'env AtomicU64) -> TxResult<u64> {
        self.check_poison()?;
        // Read-your-own-writes: scan the (small) write buffer backwards.
        let addr: *const AtomicU64 = cell;
        for (c, v) in self.sets.writes.iter().rev() {
            if *c == addr {
                return Ok(*v);
            }
        }
        let table = self.htm.table();
        let idx = table.index_of(addr as usize);
        let w1 = table.load(idx);
        let val = cell.load(Ordering::Acquire);
        let w2 = table.load(idx);
        if w1.locked() || w1 != w2 || w1.version() > self.rv {
            return Err(self.fail(AbortCause::Conflict));
        }
        if self.sets.reads.len() == READ_CAPACITY_ENTRIES {
            return Err(self.fail(AbortCause::Capacity));
        }
        self.sets.reads.push(idx as u32);
        Ok(val)
    }

    /// Buffers a speculative write; it becomes visible only at commit.
    #[inline]
    pub fn store(&mut self, cell: &'env AtomicU64, val: u64) -> TxResult<()> {
        self.check_poison()?;
        let addr: *const AtomicU64 = cell;
        for (c, v) in self.sets.writes.iter_mut().rev() {
            if *c == addr {
                *v = val;
                return Ok(());
            }
        }
        let line = StripeTable::line_of(addr as usize);
        if !self.sets.lines.contains(&line) {
            if self.sets.lines.len() == WRITE_CAPACITY_LINES {
                return Err(self.fail(AbortCause::Capacity));
            }
            self.sets.lines.push(line);
        }
        self.sets.writes.push((addr, val));
        Ok(())
    }

    /// Explicitly aborts the transaction with a user code
    /// (`_xabort(code)` in TSX).
    #[inline]
    pub fn abort_explicit(&mut self, code: u8) -> Abort {
        self.fail(AbortCause::Explicit(code))
    }

    /// Subscribes to the fallback lock: aborts now if it is held, and
    /// guarantees (through the read set) an abort if it is acquired before
    /// this transaction commits. Listing 1, line 16.
    pub(crate) fn subscribe(&mut self, lock_word: &'env AtomicU64) -> TxResult<()> {
        let v = self.load(lock_word)?;
        if v != 0 {
            return Err(self.fail(AbortCause::FallbackLocked));
        }
        Ok(())
    }

    /// Attempts to commit, publishing all buffered writes atomically.
    /// On failure all speculative state is discarded.
    pub(crate) fn commit(mut self) -> Result<(), AbortCause> {
        if self.check_poison().is_err() {
            return Err(self.cause);
        }
        if self.sets.writes.is_empty() {
            // Read-only transactions were validated access-by-access.
            return Ok(());
        }
        let table = self.htm.table();
        let Sets {
            reads,
            writes,
            stripes,
            ..
        } = &mut self.sets;

        // Gather the distinct stripes of the write set.
        for &(cell, _) in writes.iter() {
            let idx = table.index_of(cell as usize) as u32;
            if !stripes.iter().any(|(i, _)| *i == idx) {
                stripes.push((idx, StripeWord(0)));
            }
        }

        // Phase 1: try-lock every write stripe (busy stripe => conflict).
        let mut locked = 0usize;
        while locked < stripes.len() {
            let idx = stripes[locked].0 as usize;
            let w = table.load(idx);
            if !table.try_lock(idx, w) {
                for (j, s) in stripes[..locked].iter() {
                    table.unlock_restore(*j as usize, *s);
                }
                return Err(AbortCause::Conflict);
            }
            stripes[locked].1 = w;
            locked += 1;
        }

        // Phase 2: announce the in-flight write-back and re-check the
        // subscribed fallback lock. The SeqCst increment/load pair forms a
        // Dekker handshake with FallbackLock::acquire, guaranteeing the
        // lock holder never observes a half-written commit.
        let release_all = |stripes: &[(u32, StripeWord)]| {
            for (j, s) in stripes {
                table.unlock_restore(*j as usize, *s);
            }
        };
        self.htm.inflight().fetch_add(1, Ordering::SeqCst);
        if self.htm.fallback_held() {
            self.htm.inflight().fetch_sub(1, Ordering::SeqCst);
            release_all(stripes);
            return Err(AbortCause::FallbackLocked);
        }

        // Phase 3: obtain the write version and validate the read set.
        crate::chaos::point("htm::commit");
        let wv = self.htm.clock().fetch_add(1, Ordering::SeqCst) + 1;
        if wv > self.rv + 1 {
            for &idx in reads.iter() {
                let w = table.load(idx as usize);
                let mine = stripes.iter().any(|(i, _)| *i == idx);
                if w.version() > self.rv || (w.locked() && !mine) {
                    self.htm.inflight().fetch_sub(1, Ordering::SeqCst);
                    release_all(stripes);
                    return Err(AbortCause::Conflict);
                }
            }
        }

        // Phase 4: write back and release with the new version.
        for &(cell, val) in writes.iter() {
            // SAFETY: only `store` pushes to `writes`, and it pushes the
            // address of a `&'env AtomicU64`; the set was empty when this
            // `Txn` took it (every `Txn` clears it on drop). `'env`
            // outlives `self`, so the cell is still alive.
            unsafe { &*cell }.store(val, Ordering::Release);
        }
        for (idx, _) in stripes.iter() {
            table.unlock_with_version(*idx as usize, wv);
        }
        self.htm.inflight().fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }
}
