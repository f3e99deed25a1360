//! Small deterministic PRNGs shared across the workspace.
//!
//! Fault schedules, torn-write selection, abort injection, and workload
//! generation all need reproducible randomness: the same `FAULT_SEED`
//! must yield the same schedule on every run. SplitMix64 (Steele et al.,
//! OOPSLA 2014) is the workhorse — tiny state, excellent diffusion, and
//! the standard choice for seeding larger generators.

use std::sync::atomic::{AtomicU64, Ordering};

/// Parses a seed (or any `u64` argument) written in decimal or as
/// `0x` hex, surrounding whitespace ignored. The one parser behind
/// every seed a command line or the environment supplies.
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The SplitMix64 state increment (the 64-bit golden ratio).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function of an already-advanced state.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances `state` by one SplitMix64 step and returns the output word.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// A SplitMix64 stream shared by several threads. One step is
/// `state += γ` followed by a pure mix of the new state, so the atomic
/// form is a single wait-free `fetch_add` — no CAS loop — and yields the
/// same sequence as [`SplitMix64`] from the same seed, each caller
/// consuming exactly one position of it.
#[derive(Debug)]
pub struct AtomicSplitMix64 {
    state: AtomicU64,
}

impl AtomicSplitMix64 {
    pub const fn new(seed: u64) -> Self {
        AtomicSplitMix64 {
            state: AtomicU64::new(seed),
        }
    }

    /// The next output word. Relaxed: the state publishes no other
    /// data, and read-modify-writes of one location are totally ordered
    /// whatever their ordering, so no two callers share a position.
    #[inline]
    pub fn next_u64(&self) -> u64 {
        mix(self
            .state
            .fetch_add(GAMMA, Ordering::Relaxed)
            .wrapping_add(GAMMA))
    }
}

/// Self-contained SplitMix64 generator.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn atomic_stream_equals_the_sequential_one() {
        let mut seq = SplitMix64::new(0xBD15EED);
        let shared = AtomicSplitMix64::new(0xBD15EED);
        for _ in 0..100 {
            assert_eq!(shared.next_u64(), seq.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("0xBD15EED"), Some(0xBD1_5EED));
        assert_eq!(parse_seed(" 42\n"), Some(42));
        assert_eq!(parse_seed("0xBDL"), None);
        assert_eq!(parse_seed("-1"), None);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
