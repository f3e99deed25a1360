//! The global fallback lock required by best-effort HTM.
//!
//! Transactions *subscribe* to the lock word at begin (Listing 1 line 16):
//! acquiring the lock performs a versioned write to the word, which fails
//! the validation of every subscribed transaction — the software analogue
//! of the coherence invalidation a TSX lock acquisition broadcasts.

use crate::htm::{lock_stripe, Htm};
use crate::sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A global elision lock for one HTM-protected data structure.
pub struct FallbackLock {
    word: CachePadded<AtomicU64>,
}

impl Default for FallbackLock {
    fn default() -> Self {
        Self::new()
    }
}

impl FallbackLock {
    pub fn new() -> Self {
        Self {
            word: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The raw lock word, subscribed to by transactions.
    pub(crate) fn word(&self) -> &AtomicU64 {
        &self.word
    }

    /// Whether the lock is currently held (Listing 1 line 43 spins on this).
    pub fn locked(&self) -> bool {
        self.word.load(Ordering::SeqCst) != 0
    }

    /// Acquires the lock, aborting all active transactions of `htm` and
    /// waiting for in-flight commits to drain so the holder observes only
    /// complete transaction effects.
    pub fn acquire(&self, htm: &Htm) {
        let table = htm.table();
        let idx = table.index_of(self.word() as *const AtomicU64 as usize);
        let mut spins = 0u32;
        loop {
            if self.word.load(Ordering::Acquire) != 0 {
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            // Versioned write: lock the stripe covering the lock word,
            // flip it if still free, and release with a fresh version so
            // subscribed transactions fail validation.
            let flipped = lock_stripe(table, htm.clock(), idx, || {
                let free = self.word.load(Ordering::Acquire) == 0;
                if free {
                    self.word.store(1, Ordering::SeqCst);
                }
                free
            });
            if flipped {
                // Dekker handshake with Txn::commit: wait until no commit
                // that might have missed our store is still writing back.
                while htm.inflight().load(Ordering::SeqCst) != 0 {
                    std::thread::yield_now();
                }
                return;
            }
        }
    }

    /// Releases the lock with another versioned write, so transactions
    /// that overlapped the critical section retry from scratch.
    pub fn release(&self, htm: &Htm) {
        let table = htm.table();
        let idx = table.index_of(self.word() as *const AtomicU64 as usize);
        lock_stripe(table, htm.clock(), idx, || {
            self.word.store(0, Ordering::SeqCst);
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HtmConfig;

    #[test]
    fn acquire_release_toggles_state() {
        let _quiet = crate::chaos::quiet();
        let htm = Htm::new(HtmConfig::for_tests());
        let lock = FallbackLock::new();
        assert!(!lock.locked());
        lock.acquire(&htm);
        assert!(lock.locked());
        lock.release(&htm);
        assert!(!lock.locked());
    }
}
