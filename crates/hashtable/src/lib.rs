//! # hashtable: persistent hash tables, four regimes
//!
//! Section 4.3 of the BD-HTM paper (plus the Listing 1 walk-through of
//! §3):
//!
//! * [`BdhtHashMap`] — the paper's Listing 1 pedagogical table: a fixed
//!   bucket array in DRAM pointing at NVM KV blocks, every operation one
//!   hardware transaction, buffered durability via the epoch system.
//!   This is the reference implementation of the BDL-HTM strategy.
//! * [`Spash`] — the eADR-designed HTM hash table of Zhang et al. (ICDE
//!   2024): extendible directory → multi-bucket segments sized in
//!   XPLines, HTM for concurrency, a DRAM hotspot detector driving
//!   proactive cold-data write-back. Runs correctly on persistent-cache
//!   (eADR) heaps; on plain ADR it silently loses un-flushed data —
//!   which is exactly why BD-Spash exists.
//! * [`BdSpash`] — the §4.3 back-port: directory and buckets in DRAM,
//!   KV blocks in NVM under the epoch system. Large cold values are
//!   persisted immediately (optimizing cache residency and NVM
//!   bandwidth); small / hot values ride the epoch buffers. On an eADR
//!   heap the epoch system disables itself and BD-Spash behaves like
//!   Spash.
//! * [`Cceh`] — cache-line-conscious extendible hashing (Nam et al.,
//!   FAST 2019): fully persistent, striped segment mutexes for updates,
//!   probes with no segment lock, several write-backs and fences per
//!   insert. Spash and CCEH share one NVM segment table (`segtable`):
//!   layout, directory, split and recovery.
//! * [`Plush`] — the write-optimized log-structured hash table (Vogel et
//!   al., VLDB 2022): DRAM root level, geometrically growing NVM levels,
//!   bucket overflow spills downward, and a write-ahead log persisted on
//!   the critical path of every update.

mod bdspash;
mod cceh;
mod hotspot;
mod listing1;
mod plush;
mod segtable;
mod spash;

pub use bdspash::{keys_in_one_bucket, BdSpash, BDSPASH_KV_TAG};
pub use cceh::Cceh;
pub use hotspot::HotspotDetector;
pub use listing1::{BdhtHashMap, LISTING1_KV_TAG};
pub use plush::Plush;
pub use spash::Spash;

/// 64-bit finalizer (splitmix64) used as the hash function everywhere in
/// this crate: full-avalanche, invertible, no allocation.
#[inline]
pub fn hash64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_spreads_sequential_keys() {
        let mut buckets = [0u32; 64];
        for k in 0..6400u64 {
            buckets[(hash64(k) % 64) as usize] += 1;
        }
        for &b in &buckets {
            assert!((60..=140).contains(&b), "poor spread: {buckets:?}");
        }
    }
}
