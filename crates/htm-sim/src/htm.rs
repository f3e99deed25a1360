//! The HTM instance: begin/attempt/run entry points, retry policy, and the
//! global-lock fallback path.

use crate::access::{LockedAccess, MemAccess};
use crate::config::HtmConfig;
use crate::fallback::FallbackLock;
use crate::hist::LogHistogram;
use crate::rng::AtomicSplitMix64;
use crate::stats::HtmStats;
use crate::stripe::StripeTable;
use crate::txn::{AbortCause, TxResult, Txn};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bits of the process-global stripe table (8 MiB of versioned locks).
const GLOBAL_TABLE_BITS: u32 = 20;

static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);
static GLOBAL_INFLIGHT: AtomicUsize = AtomicUsize::new(0);
static GLOBAL_TABLE: OnceLock<StripeTable> = OnceLock::new();

pub(crate) fn global_table() -> &'static StripeTable {
    GLOBAL_TABLE.get_or_init(|| StripeTable::new(GLOBAL_TABLE_BITS))
}

pub(crate) fn global_clock() -> &'static AtomicU64 {
    &GLOBAL_CLOCK
}

pub(crate) fn global_inflight() -> &'static AtomicUsize {
    &GLOBAL_INFLIGHT
}

/// Performs a *versioned* non-transactional store: the write locks the
/// cache line's stripe, publishes the value, and releases the stripe with
/// a fresh global version. Any active transaction that has read (or later
/// reads) the line observes a version newer than its snapshot and aborts —
/// the software analogue of the coherence invalidation an ordinary store
/// broadcasts on real hardware.
///
/// Required whenever memory that transactional readers may hold references
/// to is mutated outside a transaction: reclaiming and reinitializing NVM
/// blocks, publishing under the fallback lock, etc.
/// [`versioned_store`] over a contiguous run of atomics that share cache
/// lines: one stripe acquisition and one version bump per line instead of
/// per word (the doom-stale-readers guarantee is per line anyway).
pub fn versioned_store_slice(cells: &[AtomicU64], val: u64) {
    let table = global_table();
    let mut i = 0;
    while i < cells.len() {
        let idx = table.index_of(&cells[i] as *const AtomicU64 as usize);
        // Extend the run while subsequent words map to the same stripe.
        let mut j = i + 1;
        while j < cells.len() && table.index_of(&cells[j] as *const AtomicU64 as usize) == idx {
            j += 1;
        }
        let mut spins = 0u32;
        loop {
            let w = table.load(idx);
            if !w.locked() && table.try_lock(idx, w) {
                for c in &cells[i..j] {
                    c.store(val, Ordering::Release);
                }
                let v = GLOBAL_CLOCK.fetch_add(1, Ordering::SeqCst) + 1;
                table.unlock_with_version(idx, v);
                break;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        i = j;
    }
}

pub fn versioned_store(cell: &AtomicU64, val: u64) {
    let table = global_table();
    let idx = table.index_of(cell as *const AtomicU64 as usize);
    let mut spins = 0u32;
    loop {
        let w = table.load(idx);
        if !w.locked() && table.try_lock(idx, w) {
            cell.store(val, Ordering::Release);
            let v = GLOBAL_CLOCK.fetch_add(1, Ordering::SeqCst) + 1;
            table.unlock_with_version(idx, v);
            return;
        }
        spins += 1;
        if spins > 64 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One simulated HTM domain: a global version clock, a striped
/// versioned-lock table, and outcome statistics. Typically one `Htm` is
/// shared (via `Arc`) by all threads operating on one or more data
/// structures.
pub struct Htm {
    config: HtmConfig,
    stats: HtmStats,
    /// Spin counts of non-zero backoff waits in the retry loop
    /// (unit: spins). Empty at the default `backoff_spins = 0`.
    backoff_hist: LogHistogram,
    /// The abort injector's stream: concurrent begins each consume
    /// exactly one draw of one shared, seed-determined sequence. `None`
    /// when every injection probability is zero.
    inject_rng: Option<AtomicSplitMix64>,
}

/// Error returned by [`Htm::run`]: the operation aborted explicitly with a
/// user code (e.g. the paper's `OldSeeNewException`) on either the
/// transactional or the fallback path, and the caller must handle it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunError(pub u8);

/// The injector's seed when [`HtmConfig::abort_inject_seed`] is 0.
const DEFAULT_INJECT_SEED: u64 = 0x5EED_AB07_1A7E_C7ED;

thread_local! {
    /// Word address of the fallback lock the current transaction
    /// subscribed to, or 0.
    static SUBSCRIBED: Cell<usize> = const { Cell::new(0) };
    /// Set by a mitigation (e.g. PHTM-vEB's pre-walk) to suppress the
    /// next injected MEMTYPE abort on this thread.
    static SUPPRESS_MEMTYPE: Cell<bool> = const { Cell::new(false) };
}

/// Suppresses the next injected `ABORTED_MEMTYPE` event on this thread.
/// Models the paper's observation (§4.1) that a non-transactional
/// "pre-walk" of the data before retrying avoids the MEMTYPE anomaly.
pub fn suppress_memtype_once() {
    SUPPRESS_MEMTYPE.with(|s| s.set(true));
}

/// The begin-time abort injector of `config`: `None` when it injects
/// nothing, so that a plain begin takes no draw.
fn inject_rng(config: &HtmConfig) -> Option<AtomicSplitMix64> {
    let probs = [
        config.spurious_abort_prob,
        config.conflict_abort_prob,
        config.capacity_abort_prob,
        config.memtype_abort_prob,
    ];
    let seed = match config.abort_inject_seed {
        0 => DEFAULT_INJECT_SEED,
        seed => seed,
    };
    probs
        .iter()
        .any(|&p| p > 0.0)
        .then(|| AtomicSplitMix64::new(seed))
}

impl Htm {
    /// Creates a new HTM domain.
    pub fn new(config: HtmConfig) -> Self {
        // Eagerly initialize the shared coherence state.
        let _ = global_table();
        Htm {
            stats: HtmStats::new(),
            backoff_hist: LogHistogram::new(),
            inject_rng: inject_rng(&config),
            config,
        }
    }

    /// One draw of the injector stream: picks the abort to inject at
    /// this begin by the cumulative probabilities, spurious, conflict,
    /// capacity, then MEMTYPE (which [`suppress_memtype_once`] cancels).
    /// Cold: a begin with no injection configured never calls it.
    #[cold]
    fn injected_abort(&self, rng: &AtomicSplitMix64) -> Option<AbortCause> {
        let draw = rng.next_u64();
        let u = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let c = &self.config;
        let mut acc = 0.0;
        for (p, cause) in [
            (c.spurious_abort_prob, AbortCause::Spurious),
            (c.conflict_abort_prob, AbortCause::Conflict),
            (c.capacity_abort_prob, AbortCause::Capacity),
            (c.memtype_abort_prob, AbortCause::MemType),
        ] {
            acc += p;
            if u < acc {
                let suppressed =
                    cause == AbortCause::MemType && SUPPRESS_MEMTYPE.with(|s| s.replace(false));
                return (!suppressed).then_some(cause);
            }
        }
        None
    }

    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    pub(crate) fn table(&self) -> &'static StripeTable {
        global_table()
    }

    pub(crate) fn clock(&self) -> &'static AtomicU64 {
        global_clock()
    }

    pub(crate) fn inflight(&self) -> &'static AtomicUsize {
        global_inflight()
    }

    /// Outcome statistics (Fig. 2 data).
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// Histogram of retry-loop backoff waits, in spins.
    pub fn backoff_hist(&self) -> &LogHistogram {
        &self.backoff_hist
    }

    /// True if the fallback lock the current thread's transaction
    /// subscribed to is held. Called from `Txn::commit`.
    pub(crate) fn fallback_held(&self) -> bool {
        SUBSCRIBED.with(|s| {
            let addr = s.get();
            if addr == 0 {
                return false;
            }
            // SAFETY: the address was captured from a `&'env FallbackLock`
            // whose borrow is still live for the duration of the attempt.
            let word = unsafe { &*(addr as *const AtomicU64) };
            word.load(Ordering::SeqCst) != 0
        })
    }

    /// Runs one speculative attempt of `f`, committing on success.
    /// Returns the closure value or the abort cause. This is the raw
    /// `_xbegin`/`_xend` interface; most code should use [`Htm::run`].
    pub fn attempt<'env, T>(
        &'env self,
        f: impl FnOnce(&mut Txn<'env>) -> TxResult<T>,
    ) -> Result<T, AbortCause> {
        self.attempt_inner(None, f)
    }

    /// Like [`Htm::attempt`], subscribing to `lock` first (Listing 1
    /// line 16): aborts immediately if the lock is held and whenever it is
    /// acquired before this transaction commits.
    pub fn attempt_with<'env, T>(
        &'env self,
        lock: &'env FallbackLock,
        f: impl FnOnce(&mut Txn<'env>) -> TxResult<T>,
    ) -> Result<T, AbortCause> {
        self.attempt_inner(Some(lock), f)
    }

    fn attempt_inner<'env, T>(
        &'env self,
        lock: Option<&'env FallbackLock>,
        f: impl FnOnce(&mut Txn<'env>) -> TxResult<T>,
    ) -> Result<T, AbortCause> {
        // Save/restore the subscription slot so a (hypothetical) nested
        // attempt cannot clear the outer transaction's fallback-lock
        // subscription when it exits.
        struct Guard(usize);
        impl Drop for Guard {
            fn drop(&mut self) {
                crate::exit_txn();
                SUBSCRIBED.with(|s| s.set(self.0));
            }
        }
        crate::enter_txn();
        let _g = Guard(SUBSCRIBED.with(|s| s.get()));

        if let Some(rng) = &self.inject_rng {
            if let Some(cause) = self.injected_abort(rng) {
                self.stats.record_abort(cause);
                return Err(cause);
            }
        }

        let rv = global_clock().load(Ordering::SeqCst);
        let mut txn = Txn::new(self, rv);
        if let Some(l) = lock {
            SUBSCRIBED.with(|s| s.set(l.word() as *const AtomicU64 as usize));
            if txn.subscribe(l.word()).is_err() {
                let cause = txn.cause();
                self.stats.record_abort(cause);
                return Err(cause);
            }
        }
        match f(&mut txn) {
            Ok(v) => match txn.commit() {
                Ok(()) => {
                    self.stats.record_commit();
                    Ok(v)
                }
                Err(cause) => {
                    self.stats.record_abort(cause);
                    Err(cause)
                }
            },
            Err(_) => {
                let cause = txn.cause();
                self.stats.record_abort(cause);
                Err(cause)
            }
        }
    }

    /// The canonical best-effort HTM pattern (Listing 1): retry the
    /// transaction up to `config.max_retries` times, spinning while the
    /// fallback lock is held, then acquire the global lock and run `f`
    /// non-speculatively.
    ///
    /// Explicit aborts (`m.abort(code)`) are *not* retried: they return
    /// `Err(RunError(code))` so the caller can react (the paper's
    /// `OldSeeNewException` restarts its operation in a newer epoch).
    pub fn run<'env, T>(
        &'env self,
        lock: &'env FallbackLock,
        mut f: impl FnMut(&mut dyn MemAccess<'env>) -> TxResult<T>,
    ) -> Result<T, RunError> {
        self.run_hooked(lock, &mut f, |_| {})
    }

    /// [`Htm::run`] with an abort observation hook, letting structures
    /// implement cause-specific mitigations (e.g. PHTM-vEB's
    /// non-transactional "pre-walk" after a MEMTYPE abort, §4.1).
    pub fn run_hooked<'env, T>(
        &'env self,
        lock: &'env FallbackLock,
        f: &mut dyn FnMut(&mut dyn MemAccess<'env>) -> TxResult<T>,
        mut on_abort: impl FnMut(AbortCause),
    ) -> Result<T, RunError> {
        let mut retries = 0u32;
        let mut capacity_aborts = 0u32;
        while retries < self.config.max_retries && capacity_aborts < 2 {
            match self.attempt_with(lock, |txn| f(txn)) {
                Ok(v) => return Ok(v),
                Err(AbortCause::Explicit(code)) => return Err(RunError(code)),
                Err(cause) => {
                    on_abort(cause);
                    match cause {
                        AbortCause::FallbackLocked => {
                            // Listing 1 line 43: wait out the lock holder,
                            // then retry without burning a retry slot.
                            // Yield so a descheduled holder can run
                            // (essential on oversubscribed cores).
                            while lock.locked() {
                                std::thread::yield_now();
                            }
                        }
                        AbortCause::Capacity => {
                            capacity_aborts += 1;
                            retries += 1;
                            self.backoff(retries);
                        }
                        _ => {
                            retries += 1;
                            self.backoff(retries);
                        }
                    }
                }
            }
        }

        // Fallback path: global lock, direct accesses.
        lock.acquire(self);
        self.stats.record_fallback();
        let mut la = LockedAccess::new(self);
        let result = f(&mut la);
        let code = la.explicit_code();
        lock.release(self);
        match result {
            Ok(v) => Ok(v),
            Err(_) => Err(RunError(code.unwrap_or(0))),
        }
    }

    /// Exponential backoff between retries: `backoff_spins << retries`
    /// busy spins (doubling capped at 10). Contention-reduction for
    /// conflict-heavy workloads; a no-op at the default `backoff_spins=0`.
    #[inline]
    fn backoff(&self, retries: u32) {
        let base = self.config.backoff_spins;
        if base == 0 {
            return;
        }
        let spins = backoff_ladder(base, retries);
        self.backoff_hist.record(spins);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }
}

/// The exponential backoff ladder shared by transaction retry and other
/// bounded-retry loops (e.g. the epoch system's persister retrying a
/// transiently failed device): `base << attempt` spins, with the
/// doubling capped at 10 rungs. Returns the spin count; a `base` of 0
/// disables backoff entirely.
#[inline]
pub fn backoff_ladder(base: u32, attempt: u32) -> u64 {
    (base as u64) << attempt.min(10)
}

/// Busy-waits for `spins` ladder spins (see [`backoff_ladder`]).
#[inline]
pub fn backoff_spin(spins: u64) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    #[test]
    fn read_write_commit() {
        let htm = Htm::new(HtmConfig::for_tests());
        let c = cells(2);
        let r = htm.attempt(|t| {
            t.store(&c[0], 7)?;
            let v = t.load(&c[0])?; // read-your-write
            t.store(&c[1], v + 1)?;
            Ok(v)
        });
        assert_eq!(r.unwrap(), 7);
        assert_eq!(c[0].load(Ordering::Relaxed), 7);
        assert_eq!(c[1].load(Ordering::Relaxed), 8);
    }

    #[test]
    fn aborted_txn_discards_writes() {
        let htm = Htm::new(HtmConfig::for_tests());
        let c = cells(1);
        let r: Result<(), AbortCause> = htm.attempt(|t| {
            t.store(&c[0], 99)?;
            Err(t.abort_explicit(42))
        });
        assert_eq!(r.unwrap_err(), AbortCause::Explicit(42));
        assert_eq!(c[0].load(Ordering::Relaxed), 0, "speculative write leaked");
    }

    #[test]
    fn write_capacity_abort() {
        let mut cfg = HtmConfig::for_tests();
        cfg.write_capacity_lines = 4;
        let htm = Htm::new(cfg);
        // 64 cells spread over >4 lines.
        let c: Vec<AtomicU64> = cells(64);
        let r = htm.attempt(|t| {
            for cell in &c {
                t.store(cell, 1)?;
            }
            Ok(())
        });
        assert_eq!(r.unwrap_err(), AbortCause::Capacity);
    }

    #[test]
    fn spurious_injection_aborts() {
        let htm = Htm::new(HtmConfig::for_tests().with_spurious(1.0));
        let r = htm.attempt(|_| Ok(()));
        assert_eq!(r.unwrap_err(), AbortCause::Spurious);
        assert_eq!(htm.stats().snapshot().aborts_of(AbortCause::Spurious), 1);
    }

    #[test]
    fn memtype_injection_aborts() {
        let htm = Htm::new(HtmConfig::for_tests().with_memtype_anomaly(1.0));
        let r = htm.attempt(|_| Ok(()));
        assert_eq!(r.unwrap_err(), AbortCause::MemType);
    }

    #[test]
    fn subscription_aborts_when_lock_held() {
        let htm = Htm::new(HtmConfig::for_tests());
        let lock = FallbackLock::new();
        lock.acquire(&htm);
        let r = htm.attempt_with(&lock, |_| Ok(()));
        assert_eq!(r.unwrap_err(), AbortCause::FallbackLocked);
        lock.release(&htm);
        assert!(htm.attempt_with(&lock, |_| Ok(())).is_ok());
    }

    #[test]
    fn run_goes_to_fallback_under_certain_spurious_aborts() {
        let htm = Htm::new(HtmConfig::for_tests().with_spurious(1.0));
        let lock = FallbackLock::new();
        let c = cells(1);
        let r = htm.run(&lock, |m| {
            m.store(&c[0], 5)?;
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(c[0].load(Ordering::Relaxed), 5);
        assert_eq!(htm.stats().snapshot().fallbacks, 1);
    }

    #[test]
    fn run_propagates_explicit_abort() {
        let htm = Htm::new(HtmConfig::for_tests());
        let lock = FallbackLock::new();
        let r: Result<(), RunError> = htm.run(&lock, |m| Err(m.abort(17)));
        assert_eq!(r.unwrap_err(), RunError(17));
    }

    #[test]
    fn poison_aborts_at_commit() {
        let htm = Htm::new(HtmConfig::for_tests());
        let c = cells(1);
        let r = htm.attempt(|t| {
            t.store(&c[0], 1)?;
            assert!(crate::poison_current_txn(AbortCause::PersistInTxn));
            Ok(())
        });
        assert_eq!(r.unwrap_err(), AbortCause::PersistInTxn);
        assert_eq!(c[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn conflicting_writers_preserve_atomicity() {
        use std::sync::Arc;
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let lock = Arc::new(FallbackLock::new());
        // Two counters that must always move together.
        let data = Arc::new(cells(2));
        let threads = 4;
        let iters = 2000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let htm = Arc::clone(&htm);
                let lock = Arc::clone(&lock);
                let data = Arc::clone(&data);
                s.spawn(move || {
                    for _ in 0..iters {
                        htm.run(&lock, |m| {
                            let a = m.load(&data[0])?;
                            let b = m.load(&data[1])?;
                            assert_eq!(a, b, "isolation violated");
                            m.store(&data[0], a + 1)?;
                            m.store(&data[1], b + 1)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(data[0].load(Ordering::Relaxed), threads * iters);
        assert_eq!(data[1].load(Ordering::Relaxed), threads * iters);
    }

    use crate::StatsSnapshot;

    /// Runs a fixed single-threaded workload under the deterministic
    /// injector and returns the abort breakdown.
    fn injected_run(seed: u64) -> StatsSnapshot {
        let htm = Htm::new(HtmConfig::for_tests().with_abort_injection(seed, 0.2, 0.2, 0.05));
        let lock = FallbackLock::new();
        let c = cells(1);
        for _ in 0..300 {
            htm.run(&lock, |m| {
                let v = m.load(&c[0])?;
                m.store(&c[0], v + 1)?;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(c[0].load(Ordering::Relaxed), 300, "every op must complete");
        htm.stats().snapshot()
    }

    #[test]
    fn deterministic_injection_replays_identically() {
        let a = injected_run(0xFA11_5EED);
        let b = injected_run(0xFA11_5EED);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.fallbacks, b.fallbacks);
        assert_eq!(a.aborts, b.aborts, "same seed must give the same schedule");
        assert!(a.aborts_of(AbortCause::Spurious) > 0);
        assert!(a.aborts_of(AbortCause::Conflict) > 0);
        assert!(a.aborts_of(AbortCause::Capacity) > 0);

        let c = injected_run(0xFA11_5EEE);
        assert_ne!(a.aborts, c.aborts, "different seeds should diverge");
    }

    #[test]
    fn injection_schedule_does_not_depend_on_the_thread() {
        let schedule = || {
            let htm = Htm::new(HtmConfig::for_tests().with_memtype_anomaly(0.5));
            (0..1000)
                .map(|_| htm.attempt(|_| Ok(())).err())
                .collect::<Vec<_>>()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(schedule);
            let b = s.spawn(schedule);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "one seed, one schedule, whichever thread drives it");
        assert!(a.contains(&Some(AbortCause::MemType)) && a.contains(&None));
    }

    #[test]
    fn forced_aborts_complete_via_fallback() {
        // Every begin aborts, so every operation must take the lock path.
        let htm = Htm::new(
            HtmConfig::for_tests()
                .with_abort_injection(7, 1.0, 0.0, 0.0)
                .with_max_retries(3)
                .with_backoff(4),
        );
        let lock = FallbackLock::new();
        let c = cells(2);
        for _ in 0..50 {
            htm.run(&lock, |m| {
                let v = m.load(&c[0])?;
                m.store(&c[0], v + 1)?;
                m.store(&c[1], v + 1)?;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(c[0].load(Ordering::Relaxed), 50);
        assert_eq!(c[1].load(Ordering::Relaxed), 50);
        let s = htm.stats().snapshot();
        assert_eq!(s.fallbacks, 50, "all ops must use the fallback path");
        assert_eq!(s.commits, 0);
        let bh = htm.backoff_hist().snapshot();
        assert_eq!(bh.count, 50 * 3, "one backoff per burned retry slot");
        assert_eq!(bh.max, 4 << 3, "base 4 doubled over three retries");
    }
}
