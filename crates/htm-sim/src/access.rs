//! The [`MemAccess`] abstraction: one body of data-structure code runs both
//! speculatively (inside a transaction) and under the global fallback lock.
//!
//! The paper's Listing 1 duplicates its logic between the transactional
//! path and the "fallback path similar to lines 20–36". We instead let a
//! structure express its operation once against `dyn MemAccess`, which is
//! implemented by [`Txn`] (speculative), [`LockedAccess`] (direct access
//! under the [`FallbackLock`](crate::FallbackLock), with versioned stores
//! so concurrent transactions still detect the holder's writes) and
//! [`PlainAccess`] (plain loads and stores, for memory no other thread
//! can reach).

use crate::htm::Htm;
use crate::txn::{Abort, TxResult, Txn};
use std::sync::atomic::{AtomicU64, Ordering};

/// Uniform transactional-or-locked word access.
pub trait MemAccess<'env> {
    /// Reads a shared word.
    fn load(&mut self, cell: &'env AtomicU64) -> TxResult<u64>;
    /// Writes a shared word (speculative in a transaction, immediate and
    /// versioned under the fallback lock).
    fn store(&mut self, cell: &'env AtomicU64, val: u64) -> TxResult<()>;
    /// Aborts with an explicit user code (`_xabort(code)`); under the
    /// fallback lock this simply propagates the code to the caller of
    /// [`Htm::run`](crate::Htm::run).
    fn abort(&mut self, code: u8) -> Abort;
    /// `true` when running speculatively.
    fn is_txn(&self) -> bool;
}

impl<'env> MemAccess<'env> for Txn<'env> {
    #[inline]
    fn load(&mut self, cell: &'env AtomicU64) -> TxResult<u64> {
        Txn::load(self, cell)
    }

    #[inline]
    fn store(&mut self, cell: &'env AtomicU64, val: u64) -> TxResult<()> {
        Txn::store(self, cell, val)
    }

    #[inline]
    fn abort(&mut self, code: u8) -> Abort {
        self.abort_explicit(code)
    }

    fn is_txn(&self) -> bool {
        true
    }
}

/// Direct access under the global fallback lock.
///
/// Loads are plain acquires (the holder runs in mutual exclusion with all
/// transactions — see [`FallbackLock::acquire`](crate::FallbackLock::acquire)).
/// Stores bump the stripe version of the written line so that transactions
/// beginning after the critical section revalidate correctly.
pub struct LockedAccess<'env> {
    htm: &'env Htm,
    explicit_code: Option<u8>,
}

impl<'env> LockedAccess<'env> {
    pub(crate) fn new(htm: &'env Htm) -> Self {
        Self {
            htm,
            explicit_code: None,
        }
    }

    pub(crate) fn explicit_code(&self) -> Option<u8> {
        self.explicit_code
    }
}

impl<'env> MemAccess<'env> for LockedAccess<'env> {
    #[inline]
    fn load(&mut self, cell: &'env AtomicU64) -> TxResult<u64> {
        Ok(cell.load(Ordering::Acquire))
    }

    #[inline]
    fn store(&mut self, cell: &'env AtomicU64, val: u64) -> TxResult<()> {
        let table = self.htm.table();
        let idx = table.index_of(cell as *const AtomicU64 as usize);
        loop {
            let w = table.load(idx);
            if !w.locked() && table.try_lock(idx, w) {
                cell.store(val, Ordering::Release);
                let v = self.htm.clock().fetch_add(1, Ordering::SeqCst) + 1;
                table.unlock_with_version(idx, v);
                return Ok(());
            }
            std::thread::yield_now();
        }
    }

    #[inline]
    fn abort(&mut self, code: u8) -> Abort {
        self.explicit_code = Some(code);
        Abort
    }

    fn is_txn(&self) -> bool {
        false
    }
}

/// Plain loads and stores with no conflict detection at all: the access
/// mode for memory **no other thread can reach** — an index that post-crash
/// recovery is still building (it is a local of `recover` until that
/// returns; handing it to other threads is the caller's `Arc`/spawn edge,
/// which orders every store made here before their first access), or a
/// structure its caller holds quiescent for `validate()`.
///
/// Stores touch neither the stripe table nor the global clock, so a
/// transaction running concurrently on the same words would *not* see
/// them as conflicts: exclusivity is the caller's obligation, and it is
/// what makes `Relaxed` sufficient here.
pub struct PlainAccess;

impl<'env> MemAccess<'env> for PlainAccess {
    #[inline]
    fn load(&mut self, cell: &'env AtomicU64) -> TxResult<u64> {
        Ok(cell.load(Ordering::Relaxed))
    }

    #[inline]
    fn store(&mut self, cell: &'env AtomicU64, val: u64) -> TxResult<()> {
        cell.store(val, Ordering::Relaxed);
        Ok(())
    }

    /// There is no retry loop to report a code to: the `Err` goes straight
    /// back to the caller, who has made no store yet (the rule every body
    /// written against `MemAccess` already follows for the fallback path).
    #[inline]
    fn abort(&mut self, _code: u8) -> Abort {
        Abort
    }

    fn is_txn(&self) -> bool {
        false
    }
}
