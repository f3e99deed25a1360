//! Minimal epoch-based reclamation, replacing `crossbeam::epoch`.
//!
//! The skiplist crates unlink DRAM index towers while concurrent readers
//! may still traverse them, and defer the free until no reader can hold a
//! reference. This module provides just the surface those crates use —
//! [`pin`], [`Guard::defer`], [`Guard::defer_unchecked`] — on top of a
//! global epoch counter and per-thread announcement slots (reusing the
//! same registration scheme as [`crate::thread_id`]).
//!
//! A closure deferred while the global epoch is `e` runs only after every
//! pinned thread has announced an epoch greater than `e`; unpinned
//! threads do not constrain collection. Collection is attempted when a
//! thread fully unpins, so garbage is bounded by the longest pin.

use crate::chaos;
use crate::sync::{CachePadded, Mutex};
use crate::tid::{max_threads, thread_id};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Announcement value for a thread that is not currently pinned.
const UNPINNED: u64 = u64::MAX;

type Deferred = Box<dyn FnOnce() + Send>;

struct Registry {
    epoch: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<AtomicU64>]>,
    garbage: Mutex<Vec<(u64, Deferred)>>,
    /// Number of entries in `garbage`, readable without the lock. Updated
    /// under the lock (so it never under-counts while a defer is midway),
    /// read by [`Registry::collect`] to skip the epoch advance and the
    /// full slot scan on the overwhelmingly common no-garbage unpin.
    pending: CachePadded<AtomicU64>,
}

impl Registry {
    fn global() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| Registry {
            epoch: CachePadded::new(AtomicU64::new(1)),
            slots: (0..max_threads())
                .map(|_| CachePadded::new(AtomicU64::new(UNPINNED)))
                .collect(),
            garbage: Mutex::new(Vec::new()),
            pending: CachePadded::new(AtomicU64::new(0)),
        })
    }

    /// Oldest epoch announced by any pinned thread, or `UNPINNED`.
    fn min_pinned(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .min()
            .unwrap_or(UNPINNED)
    }

    fn collect(&self) {
        // Fast path: nothing deferred anywhere, so advancing the epoch
        // and scanning every announcement slot would be pure overhead.
        // `pending` is published under the garbage lock before the unpin
        // store that leads here, so a deferral by *this* thread is always
        // visible; one deferred concurrently by another thread is that
        // thread's to collect when it unpins.
        if self.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Advance the epoch so garbage deferred under the current epoch
        // becomes collectable once every pinned reader moves past it.
        chaos::point("ebr::collect_advance");
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let horizon = self.min_pinned();
        let ready: Vec<Deferred> = {
            let Some(mut g) = self.garbage.try_lock() else {
                return;
            };
            let mut ready = Vec::new();
            let mut i = 0;
            while i < g.len() {
                if g[i].0 < horizon {
                    ready.push(g.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            self.pending.store(g.len() as u64, Ordering::SeqCst);
            ready
        };
        if !ready.is_empty() {
            chaos::point("ebr::reclaim");
        }
        for f in ready {
            f();
        }
    }
}

thread_local! {
    static PIN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII pin: while alive, no closure deferred after this pin began will
/// run. Obtained from [`pin`].
pub struct Guard {
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Pins the current thread, blocking reclamation of anything deferred
/// from this point until the returned [`Guard`] is dropped.
pub fn pin() -> Guard {
    let reg = Registry::global();
    PIN_DEPTH.with(|d| {
        if d.get() == 0 {
            // Announce, then re-read: if a collector advanced the epoch
            // while we were announcing, re-announce the newer value so a
            // concurrent scan can never free garbage we might observe.
            let slot = &reg.slots[thread_id()];
            let mut e = reg.epoch.load(Ordering::SeqCst);
            loop {
                slot.store(e, Ordering::SeqCst);
                chaos::point("ebr::pin_announce");
                let again = reg.epoch.load(Ordering::SeqCst);
                if again == e {
                    break;
                }
                e = again;
            }
        }
        d.set(d.get() + 1);
    });
    Guard {
        _not_send: std::marker::PhantomData,
    }
}

impl Guard {
    /// Defers `f` until every currently pinned thread unpins.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        let reg = Registry::global();
        chaos::point("ebr::defer");
        let e = reg.epoch.load(Ordering::SeqCst);
        let mut g = reg.garbage.lock();
        g.push((e, Box::new(f)));
        reg.pending.store(g.len() as u64, Ordering::SeqCst);
    }

    /// Like [`Guard::defer`] without the `Send + 'static` bounds.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `f` (and everything it captures) remains
    /// valid until it runs, and that running it on another thread is
    /// sound. Identical contract to `crossbeam_epoch`.
    pub unsafe fn defer_unchecked<F: FnOnce()>(&self, f: F) {
        // Erase the lifetime/Send bounds; the caller vouches for them.
        let boxed: Box<dyn FnOnce()> = Box::new(f);
        let erased: Deferred = unsafe { std::mem::transmute(boxed) };
        let reg = Registry::global();
        chaos::point("ebr::defer");
        let e = reg.epoch.load(Ordering::SeqCst);
        let mut g = reg.garbage.lock();
        g.push((e, erased));
        reg.pending.store(g.len() as u64, Ordering::SeqCst);
    }

    /// Eagerly attempts a collection cycle (testing hook).
    pub fn flush(&self) {
        Registry::global().collect();
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let reg = Registry::global();
        let fully_unpinned = PIN_DEPTH.with(|d| {
            d.set(d.get() - 1);
            d.get() == 0
        });
        if fully_unpinned {
            reg.slots[thread_id()].store(UNPINNED, Ordering::SeqCst);
            reg.collect();
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each test holds `chaos::quiet()`: pinning passes chaos points, and
    //! a chaos test arming a session meanwhile would record them.

    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Cycles pin/unpin until the counter reaches `want`. Other tests in
    /// the same binary may be pinned concurrently, so collection can be
    /// delayed a few cycles — but never indefinitely.
    fn await_count(ran: &AtomicUsize, want: usize) {
        for _ in 0..1000 {
            if ran.load(Ordering::SeqCst) == want {
                return;
            }
            let g = pin();
            drop(g);
            std::thread::yield_now();
        }
        assert_eq!(ran.load(Ordering::SeqCst), want, "garbage never collected");
    }

    #[test]
    fn collect_without_garbage_skips_epoch_advance() {
        let _quiet = crate::chaos::quiet();
        let reg = Registry::global();
        // Other tests in this binary may defer garbage concurrently, so
        // only score iterations where the pending counter stayed zero.
        let mut clean_observations = 0;
        for _ in 0..1000 {
            if reg.pending.load(Ordering::SeqCst) != 0 {
                drop(pin()); // help drain, then retry
                continue;
            }
            let before = reg.epoch.load(Ordering::SeqCst);
            drop(pin());
            let after = reg.epoch.load(Ordering::SeqCst);
            if reg.pending.load(Ordering::SeqCst) == 0 && after == before {
                clean_observations += 1;
                if clean_observations >= 10 {
                    return;
                }
            }
        }
        panic!("garbage-free unpins kept advancing the epoch");
    }

    #[test]
    fn deferred_runs_after_unpin() {
        let _quiet = crate::chaos::quiet();
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let g = pin();
            let r = Arc::clone(&ran);
            g.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            // Still pinned: must not have run yet.
            assert_eq!(ran.load(Ordering::SeqCst), 0);
        }
        await_count(&ran, 1);
    }

    #[test]
    fn nested_pins_hold_garbage() {
        let _quiet = crate::chaos::quiet();
        let ran = Arc::new(AtomicUsize::new(0));
        let outer = pin();
        {
            let inner = pin();
            let r = Arc::clone(&ran);
            inner.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "outer pin must hold it");
        drop(outer);
        await_count(&ran, 1);
    }
}
