//! # htm-sim: a best-effort Hardware Transactional Memory simulator
//!
//! This crate is the HTM substrate for the BD-HTM reproduction of
//! *"Reconciling Hardware Transactional Memory and Persistent Programming
//! with Buffered Durability"* (Du, Su & Scott, SPAA 2025).
//!
//! The paper's experiments run on Intel TSX (`_xbegin` / `_xend` /
//! `_xabort`). TSX is fused off on current parts, so we model it in
//! software while preserving every behavioural property the paper's
//! algorithms depend on:
//!
//! * **Atomicity and isolation** of transactional word accesses, at
//!   cache-line conflict granularity (line index derived from the *real*
//!   address of the accessed `AtomicU64`, so false sharing is physical).
//! * **Best-effort aborts** with TSX-like causes: conflict, capacity
//!   (write set limited to an L1-sized number of lines; read set to a
//!   larger, Bloom-filter-like bound), explicit `xabort(code)`, spurious
//!   events, the `ABORTED_MEMTYPE` anomaly discussed in the paper's §4.1,
//!   and — crucially — **persist instructions executed inside a
//!   transaction** ([`poison_current_txn`], used by the `nvm-sim` crate's
//!   `clwb` and the persistent allocator).
//! * **Global-fallback-lock elision**: transactions subscribe to the
//!   [`FallbackLock`] word at begin and abort when it is (or becomes)
//!   held, exactly as in Listing 1 of the paper.
//!
//! The implementation is a TL2-style software TM: a global version clock
//! and a striped table of versioned write-locks provide opacity (every
//! read observes a consistent snapshot) and lazy conflict detection.
//! TSX detects conflicts eagerly through cache coherence; TL2 detects
//! them at access/commit time. Abort *timing* therefore differs, but
//! abort *causes*, the programming model, and the statistics of Fig. 2
//! are preserved. See DESIGN.md §3.1.
//!
//! ## Example
//!
//! ```
//! use htm_sim::{Htm, HtmConfig, FallbackLock};
//! use std::sync::atomic::AtomicU64;
//!
//! let htm = Htm::new(HtmConfig::default());
//! let lock = FallbackLock::new();
//! let a = AtomicU64::new(1);
//! let b = AtomicU64::new(2);
//! // Atomically swap a and b, with automatic retry + global-lock fallback.
//! let sum = htm.run(&lock, |m| {
//!     let va = m.load(&a)?;
//!     let vb = m.load(&b)?;
//!     m.store(&a, vb)?;
//!     m.store(&b, va)?;
//!     Ok(va + vb)
//! }).unwrap();
//! assert_eq!(sum, 3);
//! ```

mod access;
pub mod chaos;
mod config;
pub mod ebr;
mod fallback;
pub mod hist;
mod htm;
pub mod rng;
mod stats;
mod stripe;
pub mod sync;
mod tid;
mod txn;

pub use access::{LockedAccess, MemAccess, PlainAccess};
pub use config::HtmConfig;
pub use fallback::FallbackLock;
pub use hist::{HistSnapshot, LogHistogram, HIST_BUCKETS};
pub use htm::{
    backoff_ladder, backoff_spin, suppress_memtype_once, versioned_store, versioned_store_slice,
    Htm, RunError,
};
pub use rng::SplitMix64;
pub use stats::{HtmStats, StatsSnapshot};
pub use tid::{max_threads, thread_high_water, thread_id};
pub use txn::{Abort, AbortCause, TxResult, Txn};

use std::cell::Cell;

thread_local! {
    static TXN_DEPTH: Cell<u32> = const { Cell::new(0) };
    static TXN_POISON: Cell<Option<AbortCause>> = const { Cell::new(None) };
}

/// Returns `true` if the calling thread is currently executing inside a
/// (speculative) hardware transaction.
///
/// Used by `nvm-sim` and `persist-alloc` to detect persist instructions
/// issued transactionally — the incompatibility at the heart of the paper.
pub fn in_txn() -> bool {
    TXN_DEPTH.with(|d| d.get() > 0)
}

/// Marks the calling thread's active transaction (if any) as doomed with
/// the given cause. The transaction will abort at its next transactional
/// access or at commit, discarding all speculative state — the software
/// analogue of a TSX abort triggered by an unsupported instruction such
/// as `clwb`.
///
/// Returns `true` if a transaction was poisoned.
pub fn poison_current_txn(cause: AbortCause) -> bool {
    if !in_txn() {
        return false;
    }
    TXN_POISON.with(|p| {
        if p.get().is_none() {
            p.set(Some(cause));
        }
    });
    true
}

pub(crate) fn enter_txn() {
    TXN_DEPTH.with(|d| d.set(d.get() + 1));
    TXN_POISON.with(|p| p.set(None));
}

pub(crate) fn exit_txn() {
    TXN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    TXN_POISON.with(|p| p.set(None));
}

pub(crate) fn take_poison() -> Option<AbortCause> {
    TXN_POISON.with(|p| p.take())
}
