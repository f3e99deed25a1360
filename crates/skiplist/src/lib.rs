//! # skiplist: persistent lock-free skiplists, strict and buffered
//!
//! Section 4.2 of the BD-HTM paper: optimizing concurrency control in an
//! *already persistent* structure.
//!
//! * [`DlSkiplist`] — a durably linearizable lock-free skiplist in the
//!   style of Wang et al. (ICDE 2018): all nodes in NVM, every tower
//!   linked and unlinked atomically with a persistent multi-word CAS
//!   ([`mwcas::MwCasPool::pmwcas`]), every critical update persisted
//!   before the operation returns, dirty-read anomalies avoided by
//!   flushing read values.
//! * The Fig. 5 ablation variants, selected by [`PersistMode`]:
//!   **P-Skiplist-no-flush** (same algorithm, persist instructions
//!   removed — not crash consistent), **P-Skiplist-HTM-MwCAS** (the
//!   multi-word CAS replaced by a hardware transaction), and
//!   **T-Skiplist** (the no-flush variant run on a zero-latency
//!   "DRAM" heap).
//! * [`BdlSkiplist`] — the paper's **BDL-Skiplist**: towers in DRAM,
//!   only KV pairs in NVM under the epoch system, tower links performed
//!   by small hardware transactions (an HTM-MwCAS with validation), and
//!   persistence moved off the critical path entirely. About 3x the
//!   throughput of the strict version in the paper's Fig. 5.
//!
//! Simplification documented in DESIGN.md: where Wang et al. issue one
//! PMwCAS per level, we link/unlink the whole tower with a single
//! (larger) PMwCAS — same persistence schedule per operation, fewer
//! descriptor round-trips, identical crash-consistency argument.

mod bdl;
mod dl;
pub mod stress;

pub use bdl::{BdlSkiplist, SKIP_KV_TAG};
pub use dl::{DlSkiplist, PersistMode};

/// Maximum tower height. With p = 1/2 this supports tens of millions of
/// keys; a full-tower unlink touches `2 * MAX_LEVEL = 32` words, the
/// `mwcas` crate's target cap.
pub const MAX_LEVEL: usize = 16;

/// Draws a tower height in `1..=MAX_LEVEL` with geometric(1/2) tails.
pub(crate) fn random_level(rng: &mut u64) -> usize {
    *rng ^= *rng >> 12;
    *rng ^= *rng << 25;
    *rng ^= *rng >> 27;
    let bits = rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
    ((bits.trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_level_distribution_is_geometric() {
        let mut rng = 12345u64;
        let mut counts = [0usize; MAX_LEVEL + 1];
        let n = 200_000;
        for _ in 0..n {
            counts[random_level(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        // ~half the towers have height 1, ~quarter height 2, ...
        assert!((counts[1] as f64 / n as f64 - 0.5).abs() < 0.02);
        assert!((counts[2] as f64 / n as f64 - 0.25).abs() < 0.02);
        assert!(counts[MAX_LEVEL] > 0, "tail must be reachable");
    }
}
