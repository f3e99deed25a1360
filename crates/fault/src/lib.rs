//! Deterministic crash- and abort-injection harness for the BD-HTM
//! reproduction.
//!
//! Ties the per-layer injectors together into an exhaustive recovery
//! validator:
//!
//! * the NVM layer's numbered crash points and torn write-backs
//!   ([`nvm_sim::FaultPlan`]),
//! * the HTM layer's seeded abort injection
//!   ([`htm_sim::HtmConfig::with_abort_injection`]),
//!
//! and sweeps every persist boundary a workload crosses — see
//! [`mod@crate::sweep`] for the count→replay protocol. Every check runs
//! on every structure of [`bdl_structures!`].
//!
//! The strictly durable baselines get the same count→replay sweep from
//! [`mod@crate::strict`], against an oracle with every acknowledged
//! operation durable.

mod churn;
pub mod digest;
pub mod runtime;
pub mod strict;
pub mod sweep;

pub use churn::{adjacent_keys, bd_spash_keys, churn, listing1_keys};
pub use digest::{
    digest_reports, pinned_digest, pinned_pipelined_digest, PINNED_PIPELINED_DIGEST,
    PINNED_SWEEP_DIGEST, PINNED_SWEEP_SEED,
};
pub use runtime::{sweep_runtime, sweep_runtime_all, RuntimeReport};
pub use sweep::{
    enumerate_points, replay, replay_with_dump, seed_from_env, silence_crash_panics, sweep,
    sweep_all, ReplayVerdict, SweepConfig, SweepReport, UNIVERSE_BITS,
};
#[doc(hidden)]
pub use {hashtable, skiplist, veb};

/// The one list of [`BdlKv`](bdhtm_core::BdlKv) structures: every
/// crash, runtime, eviction, recovery, conformance and chaos check
/// expands it, so a structure gets all of them from `impl_bdl_kv!` and
/// one row here (`ci.sh` fails if an `impl_bdl_kv!` type has no row).
///
/// `bdl_structures!(callback)` expands to `callback! { rows }`, one
/// `(module, type, keys)` row per structure: an identifier to name the
/// structure's test module, the type, and a `fn() -> (u64, Vec<u64>)`
/// giving the shared and owned keys that collide in its layout (for
/// [`churn`]).
///
/// ```
/// macro_rules! names {
///     ($(($module:ident, $ty:ty, $keys:path)),* $(,)?) => {
///         [$(<$ty as bdhtm_core::BdlKv>::NAME),*]
///     };
/// }
/// let names = fault::bdl_structures!(names);
/// assert_eq!(names, ["phtm-veb", "bdl-skiplist", "bd-spash", "listing1-bdht"]);
/// ```
#[macro_export]
macro_rules! bdl_structures {
    ($callback:ident) => {
        $callback! {
            (phtm_veb, $crate::veb::PhtmVeb, $crate::adjacent_keys),
            (bdl_skiplist, $crate::skiplist::BdlSkiplist, $crate::adjacent_keys),
            (bd_spash, $crate::hashtable::BdSpash, $crate::bd_spash_keys),
            (listing1_bdht, $crate::hashtable::BdhtHashMap, $crate::listing1_keys),
        }
    };
}
