//! Minimal `std`-only synchronisation shims.
//!
//! The workspace builds in sandboxed environments with no access to
//! crates.io, so the handful of `parking_lot` / `crossbeam::utils`
//! primitives the codebase relies on are reimplemented here on top of
//! `std::sync`. The API mirrors `parking_lot`'s non-poisoning surface:
//! `lock()` / `read()` / `write()` return guards directly (a poisoned
//! `std` lock — a panicking holder — is simply un-poisoned and
//! re-entered, which matches `parking_lot` semantics and is exactly what
//! the fault-injection harness needs when it unwinds out of a crash
//! point while holding a lock), and `try_lock()` returns `Option`.

use std::ops::{Deref, DerefMut};
use std::sync;

/// Pads and aligns a value to 128 bytes — two cache lines, covering the
/// adjacent-line prefetcher — so hot atomics on different instances never
/// share a line. Drop-in replacement for `crossbeam_utils::CachePadded`.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// Non-poisoning mutex with `parking_lot`'s calling convention.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`] / [`Mutex::try_lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, ignoring poisoning from a panicked holder.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Attempts the lock without blocking; `None` if currently held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: e.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Non-poisoning reader-writer lock with `parking_lot`'s convention.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard {
                inner: e.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_at_least_two_lines() {
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    }

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = std::sync::Arc::new(Mutex::new(7u64));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1u64);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 2);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
        assert!(l.try_write().is_some());
    }
}
