//! # veb: HTM-synchronized van Emde Boas trees
//!
//! Section 4.1 of the BD-HTM paper. A van Emde Boas tree over a universe
//! of `2^b` keys supports insert / remove / lookup / successor /
//! predecessor in **O(log log U)** — doubly logarithmic — time, at the
//! cost of O(U) worst-case space. The only published concurrent vEB tree
//! that preserves both linearizability and this complexity is the
//! HTM-protected tree of Khalaji et al. (PPoPP 2024): every operation
//! runs inside one hardware transaction.
//!
//! * [`HtmVeb`] — the transient tree (values live in DRAM leaves), our
//!   stand-in for **HTM-vEB**.
//! * [`PhtmVeb`] — **PHTM-vEB**: the same DRAM index, with leaves
//!   holding pointers to KV blocks in NVM managed by the
//!   [`bdhtm_core`] epoch system (buffered durability, Listing 1
//!   strategy), including the non-transactional "pre-walk" mitigation
//!   for MEMTYPE aborts and full post-crash index reconstruction.
//!
//! Both trees share the transactional index implementation in the
//! private `index` module: the classic cluster/summary recursion with
//! 64-way bitmap leaves, lazy node creation, and abort-safe node
//! recycling.

mod htm_veb;
mod index;
mod node;
mod phtm_veb;

pub use htm_veb::HtmVeb;
pub use phtm_veb::{PhtmVeb, VEB_KV_TAG};
