//! # nvm-sim: a simulated non-volatile memory with volatile caches
//!
//! NVM substrate for the BD-HTM reproduction of Du, Su & Scott (SPAA
//! 2025). The paper evaluates on Intel Optane DC persistent memory, which
//! is discontinued; this crate substitutes a simulation that preserves the
//! two properties every algorithm in the paper depends on:
//!
//! 1. **The ADR failure model.** Threads read and write a *volatile image*
//!    (CPU caches + write pending queues). Data survives a crash only if
//!    it was copied to the *media image* by an explicit write-back
//!    ([`NvmHeap::clwb`]) or by (simulated, adversarially random) cache
//!    eviction. [`NvmHeap::crash`] really does discard everything that
//!    never reached media, so crash-consistency bugs in the data
//!    structures are observable, not hypothetical.
//!
//! 2. **The HTM incompatibility.** `clwb` executed inside an active
//!    hardware transaction aborts it (via
//!    [`htm_sim::poison_current_txn`]) with
//!    [`AbortCause::PersistInTxn`](htm_sim::AbortCause) — the exact
//!    conflict the paper's buffered durability resolves by moving
//!    write-back off the transactional path.
//!
//! An **eADR mode** models persistent caches (third-generation Xeon): the
//! volatile image itself survives [`NvmHeap::crash`], and `clwb` becomes a
//! non-aborting performance hint — enabling the §4.3 "back-port"
//! experiments.
//!
//! The cost model charges configurable latencies for media reads,
//! write-backs, and draining fences (Optane-ratio presets in
//! [`NvmConfig::optane`]) and counts media traffic at both cache-line and
//! XPLine (256 B) granularity so write amplification (§5.1) is measurable.

mod config;
pub mod device;
pub mod fault;
mod heap;
mod latency;
mod stats;

pub use config::NvmConfig;
pub use device::{DeviceError, DeviceFaults, DeviceOpKind};
pub use fault::{CrashPointKind, CrashTriggered, FaultPlan};
pub use heap::{CrashImage, NvmAddr, NvmHeap, WORDS_PER_LINE, WORDS_PER_XPLINE};
pub use latency::spin_ns;
pub use stats::{NvmStats, NvmStatsSnapshot};
