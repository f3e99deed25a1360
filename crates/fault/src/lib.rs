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
//! [`mod@crate::sweep`] for the count→replay protocol.

mod churn;
pub mod digest;
pub mod runtime;
pub mod sweep;

pub use churn::{adjacent_keys, bd_spash_keys, churn, listing1_keys};
pub use digest::{
    digest_reports, pinned_digest, pinned_pipelined_digest, PINNED_PIPELINED_DIGEST,
    PINNED_SWEEP_DIGEST, PINNED_SWEEP_SEED,
};
pub use runtime::{sweep_runtime, sweep_runtime_all, RuntimeReport};
pub use sweep::{
    enumerate_points, replay, replay_with_dump, seed_from_env, silence_crash_panics, sweep,
    sweep_all, ReplayVerdict, SweepConfig, SweepReport, SweepTarget, UNIVERSE_BITS,
};
