//! # persist-alloc: a recoverable NVM allocator
//!
//! Stand-in for the Ralloc persistent allocator used in the paper's
//! experiments (Cai et al., ISMM 2020). It provides the three properties
//! the BD-HTM epoch system needs:
//!
//! * **Fast concurrent allocation** of small persistent blocks
//!   (segregated size classes, per-thread caches, shared free lists,
//!   extent carving).
//! * **Crash-recoverable metadata**: every block carries a self-
//!   describing header (state, allocation epoch, delete epoch, user tag),
//!   and extents are registered in a persisted table, so a full-heap scan
//!   after a crash can classify every block — the paper's §5.2 recovery
//!   procedure.
//! * **Allocation off the persist path**, as Montage's blocks are:
//!   [`PAlloc::alloc`] writes the cache only. Every block on a free list
//!   already has `INVALID_EPOCH` in its epoch word on media, fenced
//!   ([`PAlloc::free_batch`] writes a whole batch of them back under one
//!   fence), so no crash can make an unclaimed block look live, and the
//!   recovery scan reclaims it. [`PAlloc::alloc_persisted`] keeps the
//!   Ralloc-style header flush for the strict-DL structures; that flush
//!   aborts an enclosing hardware transaction, which is Montage's `pNew`
//!   problem and why the paper's Listing 1 preallocates blocks
//!   *outside* transactions.
//!
//! ## Block layout (in 8-byte words)
//!
//! ```text
//! word 0  state word:  MAGIC(48 bits) | state(8 bits) | size class(8 bits)
//! word 1  allocation / tracking epoch  (INVALID_EPOCH when unset)
//! word 2  delete epoch                 (INVALID_EPOCH when live)
//! word 3  user tag (block type for post-crash index rebuilding)
//! word 4+ payload
//! ```

mod block;
mod palloc;
mod recovery;

pub use block::{
    class_for_payload, mark_allocated, mark_deleted, BlockState, Header, CLASS_WORDS,
    HDR_DEL_EPOCH, HDR_EPOCH, HDR_STATE, HDR_TAG, HDR_WORDS, INVALID_EPOCH, NUM_CLASSES,
};
pub use palloc::{AllocStats, PAlloc};
pub use recovery::RecoveredBlock;
