//! The DRAM hotspot detector Spash uses to classify accesses (§4.3):
//! "Spash tracks its access pattern in a lightweight structure in DRAM,
//! allowing it to distinguish hot and cold KV pairs."
//!
//! A fixed array of saturating 8-bit counters, indexed by key hash, aged
//! by periodic halving. A key is *hot* when its counter exceeds a
//! threshold — hot data stays in cache, cold data is flushed proactively.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Lightweight sketch of per-key access frequency.
pub struct HotspotDetector {
    counters: Box<[AtomicU8]>,
    mask: usize,
    threshold: u8,
    /// Accesses between aging passes.
    age_every: u64,
    ticks: AtomicU64,
}

impl HotspotDetector {
    /// `slots` is rounded up to a power of two. `threshold` accesses in
    /// an aging window make a key hot.
    pub fn new(slots: usize, threshold: u8) -> Self {
        let n = slots.next_power_of_two();
        Self {
            counters: (0..n).map(|_| AtomicU8::new(0)).collect(),
            mask: n - 1,
            threshold,
            age_every: (n as u64) * 8,
            ticks: AtomicU64::new(0),
        }
    }

    #[inline]
    fn slot(&self, key_hash: u64) -> &AtomicU8 {
        &self.counters[(key_hash as usize) & self.mask]
    }

    /// Records an access and returns whether the key is (now) hot.
    #[inline]
    pub fn touch(&self, key_hash: u64) -> bool {
        let c = self.slot(key_hash);
        let v = c.load(Ordering::Relaxed);
        if v < u8::MAX {
            c.store(v + 1, Ordering::Relaxed);
        }
        if self.ticks.fetch_add(1, Ordering::Relaxed) % self.age_every == self.age_every - 1 {
            self.age();
        }
        v.saturating_add(1) >= self.threshold
    }

    /// Whether the key is currently considered hot (no recording).
    #[inline]
    pub fn is_hot(&self, key_hash: u64) -> bool {
        self.slot(key_hash).load(Ordering::Relaxed) >= self.threshold
    }

    /// Halves every counter (exponential decay of popularity).
    pub fn age(&self) {
        for c in self.counters.iter() {
            let v = c.load(Ordering::Relaxed);
            if v != 0 {
                c.store(v / 2, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_becomes_hot() {
        let d = HotspotDetector::new(64, 4);
        let h = 0xABCD;
        assert!(!d.is_hot(h));
        for _ in 0..3 {
            d.touch(h);
        }
        assert!(!d.is_hot(h));
        d.touch(h);
        assert!(d.is_hot(h));
    }

    #[test]
    fn saturated_counter_stays_hot() {
        // `v + 1` on a counter pinned at u8::MAX used to overflow: a panic
        // in debug builds, "cold" in release. No aging pass in 300 touches.
        let d = HotspotDetector::new(64, 4);
        let hot = (0..300).map(|_| d.touch(0xABCD)).filter(|&h| h).count();
        assert_eq!(hot, 297, "hot from the fourth touch on");
        assert!(d.is_hot(0xABCD));
    }

    #[test]
    fn aging_cools_keys() {
        let d = HotspotDetector::new(64, 4);
        let h = 0x1234;
        for _ in 0..8 {
            d.touch(h);
        }
        assert!(d.is_hot(h));
        d.age();
        d.age();
        assert!(!d.is_hot(h));
    }

    #[test]
    fn distinct_keys_use_distinct_slots() {
        let d = HotspotDetector::new(1024, 2);
        for _ in 0..4 {
            d.touch(1);
        }
        assert!(d.is_hot(1));
        assert!(!d.is_hot(2));
    }
}
