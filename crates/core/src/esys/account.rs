//! Striped buffered-word accounting: how much tracked-but-unflushed
//! data the system is holding (the §5.1 "buffered bytes per epoch"
//! model the recovery-window argument rests on).
//!
//! ## Why striped
//!
//! A single global counter turns every `p_track`/`p_retire` into a
//! cross-thread `fetch_add` on one contended cache line — exactly the
//! centralized-durability-metadata cost this layer exists to remove.
//! Instead each thread owns a cache-padded `added` stripe that only it
//! writes (plain load + store, no RMW), while the two drain sites that
//! are already off the hot path — seal-time dedup refunds and batch
//! completion — share one `drained` counter.
//!
//! ## The approximation bound (exact on seal)
//!
//! `buffered()` = Σ added stripes − drained, read without
//! synchronization. Between seal boundaries the aggregate is
//! *approximate*: a reader can miss stripe increments of operations
//! still in flight (and, symmetrically, see an add before the matching
//! seal refund), so the reported value may deviate from the true
//! buffered set by at most the words tracked inside the current epoch —
//! it is never stale by more than one epoch of tracking, because every
//! advance quiesces the closing epoch before refunding it.
//!
//! At a *seal boundary* (inside `advance`, after
//! `wait_for_stragglers`) the value is **exact**: each closed-epoch
//! owner's stripe writes happen-before the sealer via the announce
//! handshake's Release/SeqCst edge, and both refund sites run on the
//! sealing/persisting thread itself. The metamorphic accounting test
//! (`tests/accounting_metamorphic.rs`) pins this property against a
//! serial re-execution oracle.

use htm_sim::sync::CachePadded;
use htm_sim::{max_threads, thread_high_water, thread_id};
use std::sync::atomic::{AtomicU64, Ordering};

/// The buffered-word account, striped per thread.
pub(super) struct Accounting {
    /// Words ever tracked by each thread, minus its own abort refunds.
    /// Single-writer: only the owner thread stores to its stripe, so
    /// the update is a plain load + store — never an RMW.
    added: Box<[CachePadded<AtomicU64>]>,
    /// Words refunded by the sealer (duplicate-tracking excess) and the
    /// persister (batch completion). These sites run once per epoch,
    /// not once per operation, so a shared `fetch_add` is fine.
    drained: CachePadded<AtomicU64>,
}

impl Accounting {
    pub(super) fn new() -> Self {
        Self {
            added: (0..max_threads())
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            drained: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Credits `words` to the calling thread's stripe. Owner-only:
    /// load + store on a line no other thread writes.
    #[inline]
    pub(super) fn add_local(&self, words: u64) {
        if words == 0 {
            return;
        }
        let c = &self.added[thread_id()];
        c.store(c.load(Ordering::Relaxed) + words, Ordering::Relaxed);
    }

    /// Refunds `words` from the calling thread's stripe (abort path).
    /// Owner-only, and never more than the thread itself added.
    #[inline]
    pub(super) fn sub_local(&self, words: u64) {
        if words == 0 {
            return;
        }
        let c = &self.added[thread_id()];
        let cur = c.load(Ordering::Relaxed);
        debug_assert!(cur >= words, "abort refund exceeds the thread's adds");
        c.store(cur - words, Ordering::Relaxed);
    }

    /// Refunds `words` globally (seal-dedup excess, persisted batches).
    /// Runs on the sealing or persisting thread — off the hot path.
    pub(super) fn drain(&self, words: u64) {
        if words != 0 {
            self.drained.fetch_add(words, Ordering::Relaxed);
        }
    }

    /// The aggregated buffered-word count: Σ stripes − drained,
    /// saturating at zero (a racy read can observe a refund before the
    /// add it refunds). Walks only the stripes below
    /// [`thread_high_water`]; see the module docs for the exactness /
    /// approximation contract.
    pub(super) fn buffered(&self) -> u64 {
        let mut sum: u64 = 0;
        for c in self.added.iter().take(thread_high_water()) {
            sum += c.load(Ordering::Relaxed);
        }
        sum.saturating_sub(self.drained.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::fresh;
    use persist_alloc::Header;
    use std::sync::Arc;

    #[test]
    fn buffered_words_drain_on_advance_and_abort() {
        let es = fresh();
        assert_eq!(es.buffered_words(), 0);
        let e = es.begin_op();
        let blk = es.p_new(2);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();
        assert!(es.buffered_words() > 0);
        es.advance();
        es.advance();
        assert_eq!(es.buffered_words(), 0, "flushed set leaves the account");

        let _e = es.begin_op();
        let blk2 = es.p_new(1);
        es.p_track(blk2);
        assert!(es.buffered_words() > 0);
        es.abort_op();
        assert_eq!(es.buffered_words(), 0, "aborted tracking is refunded");
    }

    #[test]
    fn striped_adds_aggregate_exactly_once_quiesced() {
        // Each thread adds to its own stripe; after joining (which
        // synchronizes) the aggregate must be the exact sum, and a
        // double advance must drain it to exactly zero.
        let es = fresh();
        let threads = 4;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let es = Arc::clone(&es);
                s.spawn(move || {
                    let e = es.begin_op();
                    let blk = es.p_new(2);
                    Header::set_epoch(es.heap(), blk, e);
                    es.p_track(blk);
                    es.end_op();
                });
            }
        });
        let per_block = es.buffered_words() / threads;
        assert!(per_block > 0);
        assert_eq!(
            es.buffered_words(),
            per_block * threads,
            "quiesced aggregate is the exact sum of the stripes"
        );
        es.advance();
        es.advance();
        assert_eq!(es.buffered_words(), 0);
    }
}
