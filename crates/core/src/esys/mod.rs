//! The epoch system: operation registration, write tracking, epoch
//! advancement, and the Listing 1 update-classification helper — the
//! Table 2 API of the paper, decomposed into layered modules.
//!
//! The public surface is exactly one type, [`EpochSys`], plus its
//! satellite value types; everything below it is an internal layer with
//! a single responsibility and a documented concurrency contract:
//!
//! | module | owns | paper anchor |
//! |---|---|---|
//! | [`clock`] | epoch clock, announce array, the SeqCst Dekker pair, advance | §3 epoch discipline |
//! | [`tracking`] | per-thread single-writer buffer arenas, prealloc slots | Listing 1 lines 7–12, 31–38 |
//! | [`pipeline`] | the queue's state machine (seal, release, structural bound, publish gate), flush plan | §3 step 2 (write-back) |
//! | [`health`] | stats, the `Ok → Degraded → Failed` ladder | §5 runtime faults |
//! | [`facade`] | [`EpochSys`] itself: the Table 2 memory-management and accessor methods, recovery hooks | Table 2 |
//!
//! Consumers never name the submodules: every pre-decomposition path
//! (`crate::esys::EpochSys`, `crate::esys::OLD_SEE_NEW`, ...) re-exports
//! from here unchanged.

mod clock;
mod facade;
mod health;
mod pipeline;
mod tracking;

pub use clock::{EMPTY_EPOCH, EPOCH_START};
pub use facade::{EpochSys, UpdateKind, OLD_SEE_NEW};
pub(crate) use facade::{EPOCH_MAGIC, ROOT_FRONTIER, ROOT_MAGIC};
pub use health::{EpochStats, EpochStatsSnapshot};
pub(crate) use pipeline::Driver;
pub use tracking::{payload, PreallocSlots};

#[cfg(test)]
pub(super) mod testutil {
    use super::EpochSys;
    use crate::config::EpochConfig;
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::sync::Arc;

    /// A freshly formatted system on a test heap, manual advancement.
    pub fn fresh() -> Arc<EpochSys> {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        EpochSys::format(heap, EpochConfig::manual())
    }
}
