//! # btree: the persistent tree baselines of Fig. 3
//!
//! The paper compares PHTM-vEB against three state-of-the-art persistent
//! search trees. This crate implements their algorithmic essentials — the
//! persistence discipline and memory placement that the comparison hinges
//! on — with a documented simplification of the fine-grained concurrency
//! control (DESIGN.md §8): leaf-level operations run under striped leaf
//! locks with the tree structure guarded by a reader-writer lock whose
//! write side is taken only for splits (rare with 60-entry leaves).
//!
//! * [`LbTree`] — LB+Tree (Liu et al., VLDB 2020): inner nodes in DRAM
//!   for fast traversal, leaves in NVM with unsorted entries and
//!   strict per-update write-back; the inner tree is rebuilt from the
//!   leaves recovery finds after a crash.
//! * [`OccAbTree`] — OCC-ABTree (Srivastava & Brown, PPoPP 2022): fully
//!   persistent — inner nodes and leaves both in NVM (zero DRAM for
//!   data, Table 3), optimistic reads, strict durability; inner nodes
//!   change by copy-on-write and one pointer swing, and recovery keeps
//!   what the persisted root reaches.
//! * [`ElimAbTree`] — Elim-ABTree (same authors): adds *publishing
//!   elimination*: concurrent updates that target the same leaf combine
//!   under one lock acquisition and one write-back batch, reducing both
//!   the number of operations and NVM writes on skewed workloads.
//!
//! Both trees keep their data in one NVM leaf (`leaf.rs`): unsorted
//! slots behind a validity bitmap, so every change to a live leaf is one
//! 8-byte word, and each tree orders its own fences around its steps.
//!
//! The NVM cost model charges one media-read latency per *node visited*
//! (a node is a handful of cache lines) rather than per word, matching
//! how the other structures in this reproduction are charged.

mod lbtree;
mod leaf;
mod occ;

pub use lbtree::{LbTree, LBTREE_LEAF_TAG};
pub use occ::{ElimAbTree, OccAbTree, OCC_NODE_TAG};

/// Entries per leaf (and keys per inner node) for all trees here.
pub const LEAF_CAP: usize = 60;

#[cfg(test)]
mod tests {
    #[test]
    fn leaf_cap_fits_a_class3_block() {
        // [kind, bitmap, pad, pad] + 60 pairs = 124 payload words, and
        // the bitmap holds one bit per slot.
        const { assert!(super::leaf::PAYLOAD <= 124 && super::LEAF_CAP <= 64) }
    }
}
