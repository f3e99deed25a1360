//! # bd-htm: Buffered Durability meets Hardware Transactional Memory
//!
//! A comprehensive Rust reproduction of *"Reconciling Hardware
//! Transactional Memory and Persistent Programming with Buffered
//! Durability"* (Mingzhe Du, Ziheng Su, Michael L. Scott — SPAA 2025).
//!
//! Explicit write-back instructions (`clwb`) abort hardware transactions,
//! so strictly durable persistent data structures cannot use HTM on
//! machines with volatile caches. This crate family shows — end to end,
//! on simulated TSX and Optane substrates — that **buffered durable
//! linearizability** (recover to the state at the end of epoch `e−2`
//! after a crash in epoch `e`) removes every persist instruction from
//! the transactional critical path, reconciling the two.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`htm_sim`] | best-effort HTM: TL2-style transactions, TSX abort causes, fallback-lock elision |
//! | [`nvm_sim`] | NVM heap: volatile/media split, `clwb`/fence, crash + eviction injection, eADR mode, Optane cost model |
//! | [`persist_alloc`] | recoverable segregated-fit NVM allocator (Ralloc's role) |
//! | [`bdhtm_core`] | **the paper's contribution**: the HTM-compatible buffered-durability epoch system (Table 2 API, §5.2 recovery), plus the shared Listing-1 operation lifecycle (`run_op`/`OpGuard`/`CommitEffects`) and the `BdlKv` structure trait |
//! | [`mwcas`] | Mw-WR / MwCAS / HTM-MwCAS / PMwCAS (Fig. 4) |
//! | [`veb`] | HTM-vEB and buffered-durable PHTM-vEB trees (§4.1) |
//! | [`skiplist`] | strictly durable DL-Skiplist, BDL-Skiplist, and the Fig. 5 ablations (§4.2) |
//! | [`hashtable`] | Listing-1 table, Spash, BD-Spash, CCEH, Plush (§4.3) |
//! | [`btree`] | LB+Tree, OCC-ABTree, Elim-ABTree baselines (Fig. 3) |
//! | [`ycsb_gen`] | YCSB-style workloads (uniform / scrambled Zipfian) |
//! | [`fault`] | deterministic crash-point sweeps: count→replay enumeration, torn writes, double crash, abort injection |
//!
//! ## Quickstart
//!
//! ```
//! use bd_htm::prelude::*;
//! use std::sync::Arc;
//!
//! // A simulated 32 MiB NVM device and a best-effort HTM.
//! let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(32 << 20)));
//! let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::default());
//! let htm = Arc::new(Htm::new(HtmConfig::default()));
//!
//! // A buffered-durable hash map (the paper's Listing 1).
//! let map = BdhtHashMap::new(1 << 10, Arc::clone(&esys), htm);
//! map.insert(7, 700);
//! assert_eq!(map.get(7), Some(700));
//!
//! // Two epoch advances make the insert durable; then crash...
//! esys.advance();
//! esys.advance();
//! let image = heap.crash();
//!
//! // ...and recover on a "rebooted" heap.
//! let heap2 = Arc::new(NvmHeap::from_image(image));
//! let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), 1);
//! let map2 = BdhtHashMap::recover(1 << 10, esys2, Arc::new(Htm::new(HtmConfig::default())), &live);
//! assert_eq!(map2.get(7), Some(700));
//! ```

pub use bdhtm_core;
pub use btree;
pub use fault;
pub use hashtable;
pub use htm_sim;
pub use mwcas;
pub use nvm_sim;
pub use persist_alloc;
pub use skiplist;
pub use veb;
pub use ycsb_gen;

/// One-stop imports for applications.
pub mod prelude {
    pub use bdhtm_core::{
        run_op, BdlKv, CommitEffects, EpochConfig, EpochSys, EpochTicker, EventKind, FlightEvent,
        JsonValue, LiveBlock, MetricsRegistry, MetricsReport, OpGuard, OpStep, Upsert,
        KV_UNIVERSE_BITS,
    };
    pub use btree::{ElimAbTree, LbTree, OccAbTree};
    pub use fault::{SweepConfig, SweepReport};
    pub use hashtable::{BdSpash, BdhtHashMap, Cceh, Plush, Spash};
    pub use htm_sim::{AbortCause, FallbackLock, HistSnapshot, Htm, HtmConfig, MemAccess};
    pub use mwcas::{HtmMwCas, MwCasPool, MwTarget};
    pub use nvm_sim::{CrashImage, NvmAddr, NvmConfig, NvmHeap};
    pub use skiplist::{BdlSkiplist, DlSkiplist, PersistMode};
    pub use veb::{HtmVeb, PhtmVeb};
    pub use ycsb_gen::{Mix, Op, OpKind, Rng64, Workload, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_reexports_compose() {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::default());
        let htm = Arc::new(Htm::new(HtmConfig::default()));
        let tree = PhtmVeb::new(10, esys, htm);
        tree.insert(1, 2);
        assert_eq!(tree.get(1), Some(2));
    }
}
