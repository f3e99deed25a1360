//! The `BdlKv` trait: the common face of every buffered-durable
//! key-value structure built on [`run_op`](crate::run_op).
//!
//! A structure that implements this trait gets the whole downstream
//! stack for free: the fault crate's exhaustive crash-point sweep and
//! the generic conformance suite in `tests/bdl_conformance.rs` both
//! adapt `BdlKv` blanketly — adding a fourth structure to the repo
//! means implementing this trait and nothing else (plus one line in
//! the bench harness's `KvBackend` list to drive it from the figure
//! binaries).
//!
//! The constructors take only the shared substrate (epoch system +
//! HTM); structure-specific sizing is fixed by the impl (e.g. PHTM-vEB
//! uses [`KV_UNIVERSE_BITS`]), which is what lets one generic driver
//! run identical workloads against every structure.

use crate::esys::EpochSys;
use crate::recovery::LiveBlock;
use htm_sim::Htm;
use std::sync::Arc;

/// Key-space bits for [`BdlKv::new`] instances of structures that need
/// a bounded universe (the vEB tree). Generic drivers must keep their
/// keys in `1..2^KV_UNIVERSE_BITS` so every structure sees identical
/// workloads.
pub const KV_UNIVERSE_BITS: u32 = 10;

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
    /// system (§5.2), filtering on [`BdlKv::TAG`].
    fn recover(esys: Arc<EpochSys>, htm: Arc<Htm>, live: &[LiveBlock]) -> Self;

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
            ) -> Self {
                ($recover)(esys, htm, live)
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
