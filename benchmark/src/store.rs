//! The structure under test, behind one `get`/`insert`/`remove` face.
//!
//! An enum, not `BdlKv`: the trait's constructors fix PHTM-vEB's
//! universe at `KV_UNIVERSE_BITS = 10`, and the workloads need 2²⁰ and
//! 2²³.

use crate::workload::Structure;
use bdhtm_core::{EpochSys, LiveBlock};
use hashtable::BdSpash;
use htm_sim::Htm;
use skiplist::BdlSkiplist;
use std::sync::Arc;
use veb::PhtmVeb;

pub enum Store {
    Veb(PhtmVeb),
    Skiplist(BdlSkiplist),
    Spash(BdSpash),
}

impl Store {
    pub fn new(kind: Structure, esys: Arc<EpochSys>, htm: Arc<Htm>) -> Store {
        match kind {
            Structure::Veb { universe_bits } => Store::Veb(PhtmVeb::new(universe_bits, esys, htm)),
            Structure::Skiplist => Store::Skiplist(BdlSkiplist::new(esys, htm)),
            Structure::Spash => Store::Spash(BdSpash::new(esys, htm)),
        }
    }

    /// Rebuilds the DRAM index from recovered live blocks, one thread.
    pub fn recover(
        kind: Structure,
        esys: Arc<EpochSys>,
        htm: Arc<Htm>,
        live: &[LiveBlock],
    ) -> Store {
        match kind {
            Structure::Veb { universe_bits } => {
                Store::Veb(PhtmVeb::recover(universe_bits, esys, htm, live, 1))
            }
            Structure::Skiplist => Store::Skiplist(BdlSkiplist::recover(esys, htm, live, 1)),
            Structure::Spash => Store::Spash(BdSpash::recover(esys, htm, live)),
        }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        match self {
            Store::Veb(t) => t.get(key),
            Store::Skiplist(t) => t.get(key),
            Store::Spash(t) => t.get(key),
        }
    }

    #[inline]
    pub fn insert(&self, key: u64, value: u64) -> bool {
        match self {
            Store::Veb(t) => t.insert(key, value),
            Store::Skiplist(t) => t.insert(key, value),
            Store::Spash(t) => t.insert(key, value),
        }
    }

    #[inline]
    pub fn remove(&self, key: u64) -> bool {
        match self {
            Store::Veb(t) => t.remove(key),
            Store::Skiplist(t) => t.remove(key),
            Store::Spash(t) => t.remove(key),
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        match self {
            Store::Veb(t) => t.validate(),
            Store::Skiplist(t) => t.validate(),
            Store::Spash(t) => t.validate(),
        }
    }

    /// DRAM held by the index, where the structure accounts for it
    /// (only PHTM-vEB does).
    pub fn dram_bytes(&self) -> Option<u64> {
        match self {
            Store::Veb(t) => Some(t.dram_bytes()),
            Store::Skiplist(_) | Store::Spash(_) => None,
        }
    }
}
