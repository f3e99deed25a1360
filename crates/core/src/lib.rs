//! # bdhtm-core: the HTM-compatible buffered-durability epoch system
//!
//! The primary contribution of *"Reconciling Hardware Transactional
//! Memory and Persistent Programming with Buffered Durability"* (Du, Su &
//! Scott, SPAA 2025): an epoch system, derived from Montage (Wen et al.,
//! ICPP 2021), extended so that **data structures synchronized with
//! best-effort HTM can be made buffered durably linearizable (BDL)**.
//!
//! ## The problem
//!
//! Strict durable linearizability requires `clwb`-class write-back
//! instructions on the critical path, and those instructions abort
//! hardware transactions. Buffered durability relaxes the guarantee: a
//! crash in epoch *e* recovers the structure to its state at the end of
//! epoch *e−2* — the same guarantee disk-backed storage systems have
//! offered for decades — which lets all write-back happen in the
//! background, outside transactions.
//!
//! ## The epoch discipline (§3 of the paper)
//!
//! A clock divides execution into epochs. At any instant, epoch `e` is
//! *active* (new operations register here), `e−1` is *in-flight*
//! (operations that began there may finish, no new ones start), and
//! epochs `≤ e−2` are *valid* — durably persisted. Advancing the clock
//! from `e` to `e+1`:
//!
//! 1. waits until no operation is still registered in an epoch `< e`;
//! 2. flushes every NVM block tracked in epoch `e−1` to the media and
//!    persists the *frontier* record `R = e−1`;
//! 3. physically reclaims blocks retired in epoch `e−1` (their deletion
//!    is now durable);
//! 4. publishes the new clock value.
//!
//! ## HTM compatibility (Listing 1)
//!
//! Montage's `pNew`/`pDelete` flush allocator metadata and therefore
//! abort transactions. The paper's strategy, implemented here (and
//! [`EpochSys::p_new`] here persists nothing at all: every free block
//! already carries an invalid epoch on media):
//!
//! * **Preallocate outside transactions** ([`EpochSys::p_new`]); fresh
//!   blocks carry [`INVALID_EPOCH`] and are reclaimed by recovery if the
//!   owning operation never completes.
//! * **Tag the block inside the transaction**, before its linearization
//!   point ([`OpGuard::claim`]).
//! * Update a block from the operation's own epoch in place, replace an
//!   older one, and on finding a block from a *newer* epoch abort with
//!   the explicit code [`OLD_SEE_NEW`] and restart the operation in the
//!   current epoch ([`OpGuard::update`], [`OpGuard::check_remove`]).
//! * **Defer persistence and reclamation** until after commit
//!   ([`EpochSys::p_track`], [`EpochSys::p_retire`], applied by
//!   [`run_op`] from [`Upsert::effects`]).
//!
//! The four BDL structures (PHTM-vEB, BDL-Skiplist, BD-Spash and the
//! Listing-1 table) share this protocol and the KV-block layout
//! ([`KV_KEY`], [`KV_VALUE`]) and hold only their own search and link.
//!
//! On an eADR machine (persistent caches — see
//! [`NvmConfig::optane_eadr`](nvm_sim::NvmConfig::optane_eadr)) the epoch
//! system detects the persistence domain and disables itself (§4.3): all
//! tracking becomes free, and every committed write is durable.
//!
//! ## Example
//!
//! ```
//! use bdhtm_core::{EpochSys, EpochConfig};
//! use nvm_sim::{NvmHeap, NvmConfig};
//! use std::sync::Arc;
//!
//! let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
//! let esys = EpochSys::format(heap, EpochConfig::manual());
//!
//! // An operation: allocate a block, fill it, publish it.
//! let e = esys.begin_op();
//! let blk = esys.p_new(2);                       // outside any txn
//! esys.heap().write(bdhtm_core::payload(blk, 0), 42);
//! // ... inside an HTM transaction one would set_epoch(m, blk, e),
//! //     link the block into the structure, and commit ...
//! persist_alloc::Header::set_epoch(esys.heap(), blk, e);
//! esys.p_track(blk);                             // after commit
//! esys.end_op();
//!
//! // Two manual epoch advances make the operation durable.
//! esys.advance();
//! esys.advance();
//! assert!(esys.persisted_frontier() >= e);
//! ```

mod config;
mod error;
mod esys;
mod kv;
pub mod obs;
mod op;
mod recovery;
mod sampler;
mod ticker;
pub mod trace;
mod worker;

pub use config::EpochConfig;
pub use error::{HealthState, OpRejected, PersistError, RetireError};
pub use esys::{
    payload, EpochStats, EpochStatsSnapshot, EpochSys, PreallocSlots, EMPTY_EPOCH, EPOCH_START,
    OLD_SEE_NEW,
};
pub use kv::{kv_block_key, live_keys_sorted, BdlKv, KV_KEY, KV_UNIVERSE_BITS, KV_VALUE, KV_WORDS};
pub use obs::{
    series_line, EventKind, FlightEvent, JsonValue, MetricsRegistry, MetricsReport, Obs,
    METRICS_SCHEMA, METRICS_SERIES_SCHEMA, METRICS_VERSION,
};
pub use op::{run_op, CommitEffects, OpGuard, OpStep, Upsert};
pub use persist_alloc::INVALID_EPOCH;
pub use recovery::LiveBlock;
pub use sampler::Sampler;
pub use ticker::{EpochTicker, Persister};
