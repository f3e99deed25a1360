//! The `BdlKv` trait: the common face of every buffered-durable
//! key-value structure built on [`run_op`](crate::run_op), and the one
//! layout of their NVM blocks.
//!
//! Adding a structure means implementing this trait with
//! [`impl_bdl_kv!`] and adding one row, with keys that collide in its
//! layout, to `fault::bdl_structures!` (`ci.sh` checks that every
//! `impl_bdl_kv!` type has one). Every check expands that list: the
//! crash-point, torn, double-crash, abort-injection and runtime-fault
//! sweeps (`fault`), the eviction sweep and storms, recovery
//! equivalence, the conformance suite and the chaos churn. One
//! `KvBackend` line in the bench harness drives it from the figures.
//!
//! The constructors take only the shared substrate (epoch system +
//! HTM); structure-specific sizing is fixed by the impl (e.g. PHTM-vEB
//! uses [`KV_UNIVERSE_BITS`]), which is what lets one generic driver
//! run identical workloads against every structure.
//!
//! Every structure's KV block has the same payload: the key in word
//! [`KV_KEY`], the value from word [`KV_VALUE`] on. [`OpGuard`](crate::OpGuard)
//! fills and updates blocks in this layout, [`live_keys_sorted`] reads
//! it back after a crash, and [`kv_block_key`] checks it.

use crate::esys::{payload, EpochSys};
use crate::recovery::LiveBlock;
use htm_sim::Htm;
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{BlockState, Header, INVALID_EPOCH};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Payload word holding a KV block's key.
pub const KV_KEY: u64 = 0;
/// Payload word holding a KV block's value (its first word, when the
/// value is wider).
pub const KV_VALUE: u64 = 1;
/// Payload words of a KV block with a one-word value.
pub const KV_WORDS: u64 = 2;

/// Key-space bits for [`BdlKv::new`] instances of structures that need
/// a bounded universe (the vEB tree). Generic drivers must keep their
/// keys in `1..2^KV_UNIVERSE_BITS` so every structure sees identical
/// workloads.
pub const KV_UNIVERSE_BITS: u32 = 10;

/// `(key, block address)` of every live block tagged `tag`, sorted by
/// key — the order an index rebuild wants: PHTM-vEB fills its index
/// bottom-up from it, BDL-Skiplist appends towers in it, and rebuild
/// threads each take a run of it.
///
/// # Panics
///
/// If two live blocks hold one key. An out-of-place update marks the
/// old block deleted in the epoch it stamps the new one with, so
/// recovery keeps one of the two, never both: a duplicate is a
/// recovery bug, and no rebuild may pick one of them silently.
pub fn live_keys_sorted(heap: &NvmHeap, live: &[LiveBlock], tag: u64) -> Vec<(u64, u64)> {
    let mut keyed: Vec<(u64, u64)> = Vec::with_capacity(live.len());
    keyed.extend(live.iter().filter(|b| b.tag == tag).map(|b| {
        let key = heap.word(payload(b.addr, KV_KEY)).load(Ordering::Acquire);
        (key, b.addr.0)
    }));
    // `live` is in address order and the allocator hands out an extent
    // from the top down, so a sequentially loaded key range arrives as
    // descending runs. Turning each run around first leaves such input
    // already sorted, which the sort detects in one pass (4.4 M records:
    // 35 ms instead of 155); on random keys the runs are two or three
    // long and this costs nothing measurable.
    let mut run = 0;
    while run < keyed.len() {
        let mut end = run + 1;
        while end < keyed.len() && keyed[end].0 < keyed[end - 1].0 {
            end += 1;
        }
        keyed[run..end].reverse();
        run = end;
    }
    keyed.sort_unstable();
    assert!(
        keyed.windows(2).all(|w| w[0].0 != w[1].0),
        "duplicate key in recovered heap"
    );
    keyed
}

/// The key `blk` holds, once it is an allocated KV block tagged `tag`
/// and claimed by an epoch no later than `clock` — the per-block check
/// of every structure's `validate()`. Reads without synchronisation:
/// call while quiescent.
pub fn kv_block_key(heap: &NvmHeap, blk: NvmAddr, tag: u64, clock: u64) -> Result<u64, String> {
    match Header::state(heap, blk) {
        Some((BlockState::Allocated, _)) => {}
        other => return Err(format!("block {blk:?} not allocated ({other:?})")),
    }
    let found = Header::tag(heap, blk);
    if found != tag {
        return Err(format!("block {blk:?} has foreign tag {found:#x}"));
    }
    let be = Header::epoch(heap, blk);
    if be == INVALID_EPOCH || be > clock {
        return Err(format!(
            "block {blk:?} carries invalid epoch {be} (clock {clock})"
        ));
    }
    Ok(heap.word(payload(blk, KV_KEY)).load(Ordering::Acquire))
}

/// A buffered durably linearizable key-value map over `u64` keys and
/// values, constructed on a shared [`EpochSys`] + [`Htm`] substrate.
///
/// `Send + Sync` is required (all BDL structures are concurrent);
/// `'static` lets trait objects and scoped-thread drivers hold them.
pub trait BdlKv: Send + Sync + Sized + 'static {
    /// Display name, stable across refactors: the fault sweep folds it
    /// into its behavior-preservation digest.
    const NAME: &'static str;

    /// The block tag this structure's KV blocks carry in recovery scans.
    const TAG: u64;

    /// An empty structure on a freshly formatted epoch system.
    fn new(esys: Arc<EpochSys>, htm: Arc<Htm>) -> Self;

    /// Rebuilds the structure from the live blocks of a recovered epoch
    /// system (§5.2), filtering on [`BdlKv::TAG`], on up to `threads`
    /// workers (a structure may rebuild on one whatever `threads` says).
    fn recover(esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock], threads: usize) -> Self;

    /// Inserts or updates `key → value`; `true` if newly inserted.
    fn insert(&self, key: u64, value: u64) -> bool;

    /// Removes `key`; `true` if it was present.
    fn remove(&self, key: u64) -> bool;

    /// The value of `key`, if present.
    fn get(&self, key: u64) -> Option<u64>;

    /// Structural invariant check (call while quiescent, e.g. right
    /// after recovery). `Err` carries a human-readable violation.
    fn validate(&self) -> Result<(), String>;

    /// The epoch system this structure operates on.
    fn epoch_sys(&self) -> &Arc<EpochSys>;
}

/// Implements [`BdlKv`] for a structure by delegating to its inherent
/// `insert`/`remove`/`get`/`validate`/`epoch_sys` methods; only the
/// name, tag, and the two constructors (whose signatures vary by
/// structure) are spelled out at the use site.
#[macro_export]
macro_rules! impl_bdl_kv {
    ($ty:ty, name: $name:literal, tag: $tag:expr,
     new: $new:expr, recover: $recover:expr $(,)?) => {
        impl $crate::BdlKv for $ty {
            const NAME: &'static str = $name;
            const TAG: u64 = $tag;

            fn new(
                esys: ::std::sync::Arc<$crate::EpochSys>,
                htm: ::std::sync::Arc<::htm_sim::Htm>,
            ) -> Self {
                ($new)(esys, htm)
            }

            fn recover(
                esys: ::std::sync::Arc<$crate::EpochSys>,
                htm: ::std::sync::Arc<::htm_sim::Htm>,
                live: &[$crate::LiveBlock],
                threads: usize,
            ) -> Self {
                ($recover)(esys, htm, live, threads)
            }

            fn insert(&self, key: u64, value: u64) -> bool {
                <$ty>::insert(self, key, value)
            }

            fn remove(&self, key: u64) -> bool {
                <$ty>::remove(self, key)
            }

            fn get(&self, key: u64) -> Option<u64> {
                <$ty>::get(self, key)
            }

            fn validate(&self) -> Result<(), String> {
                <$ty>::validate(self)
            }

            fn epoch_sys(&self) -> &::std::sync::Arc<$crate::EpochSys> {
                <$ty>::epoch_sys(self)
            }
        }
    };
}
