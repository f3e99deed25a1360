//! The persister pool: chunked fan-out of one sealed batch's write-back
//! across attached chunk workers, joined by the coordinating persister
//! before the single fence and the in-order frontier publish.
//!
//! The parallelism is strictly *within* a batch. Whoever holds the
//! persist lock (the coordinator for that batch — a pool thread or an
//! inline drain) pops the oldest batch, splits its flush plan into at
//! most `chunk workers + 1` word-balanced chunks, hands all but the
//! first to the pool, writes the first back itself, steals any chunk no
//! worker claimed, and waits for the rest. Only after every chunk
//! succeeded does the coordinator fence and publish the frontier, so
//! frontier publishes stay in epoch order no matter how many workers
//! write blocks back — the durable-prefix guarantee never depends on
//! chunk scheduling.
//!
//! Fault model: retry/backoff runs **per chunk** (each chunk burns its
//! own `1 + persist_retries` budget on the shared backoff ladder), and
//! failures aggregate at the batch: any chunk exhausting its budget
//! fails the whole batch, which is re-queued untouched — every device
//! op here is idempotent, so the next attempt simply re-flushes. A
//! worker that unwinds mid-chunk (a fault-plan crash point) marks the
//! fan-out `died` and vanishes; the coordinator treats that like a
//! failed chunk, so it can never wedge waiting on a dead thread.
//!
//! With zero chunk workers attached (the deterministic fault drivers,
//! inline drains after the pool retired, plain `attach_persister()`
//! hand-driven tests) the plan stays a single chunk executed on the
//! coordinator — the device-op sequence is byte-for-byte the serial
//! persister's, which is what keeps the pinned sweep digest stable.

use htm_sim::sync::CachePadded;
use nvm_sim::{CrashTriggered, DeviceError, NvmAddr, WORDS_PER_LINE};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard};
use std::time::Duration;

use super::facade::EpochSys;
use crate::config::MAX_PERSIST_WORKERS;
use crate::error::HealthState;
use crate::worker::StopFlag;

/// One contiguous, line-aligned device range scheduled for write-back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct FlushRange {
    pub(super) start: NvmAddr,
    pub(super) words: u64,
}

/// One fan-out unit: a contiguous run of a batch's flush plan.
pub(super) struct ChunkJob {
    pub(super) epoch: u64,
    pub(super) ranges: Vec<FlushRange>,
}

/// Mutable fan-out state. Only one fan-out is ever active (the
/// coordinator holds the persist lock), so these fields describe "the
/// current batch's outstanding chunks".
pub(super) struct PoolState {
    pub(super) jobs: VecDeque<ChunkJob>,
    /// Chunks submitted by the current fan-out and not yet completed
    /// (claimed-and-running or still queued).
    pub(super) pending: usize,
    /// Words written back by completed non-coordinator chunks.
    pub(super) done_words: u64,
    /// First chunk failure of the current fan-out: (attempts, cause).
    pub(super) failed: Option<(u32, DeviceError)>,
    /// Workers that unwound (fault-plan crash) mid-chunk.
    pub(super) died: u64,
}

/// The shared chunk queue plus per-worker telemetry. Same ordering
/// philosophy as the batch pipeline: one std mutex, two condvars, and
/// Relaxed counters — nothing here is on the operation hot path.
pub(super) struct ChunkPool {
    state: StdMutex<PoolState>,
    /// Signaled when chunks are queued (wakes chunk workers).
    pub(super) work_ready: Condvar,
    /// Signaled when a chunk completes (wakes the coordinator's join).
    pub(super) work_done: Condvar,
    /// Attached chunk workers (excludes the coordinating persister).
    workers: AtomicU64,
    /// Worker-slot allocator; slot 0 is the coordinator/inline-drain.
    next_slot: AtomicU64,
    /// Cumulative words written back per worker slot (obs gauge).
    worker_words: Box<[CachePadded<AtomicU64>]>,
}

impl ChunkPool {
    pub(super) fn new() -> Self {
        ChunkPool {
            state: StdMutex::new(PoolState {
                jobs: VecDeque::new(),
                pending: 0,
                done_words: 0,
                failed: None,
                died: 0,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            workers: AtomicU64::new(0),
            next_slot: AtomicU64::new(1),
            worker_words: (0..MAX_PERSIST_WORKERS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// State lock, immune to poisoning for the same reason the batch
    /// queue's is: a crash unwind through a worker must not wedge the
    /// survivors, and the state is coarse counters.
    pub(super) fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(super) fn chunk_workers(&self) -> u64 {
        self.workers.load(Ordering::Acquire)
    }

    pub(super) fn add_worker_words(&self, slot: usize, words: u64) {
        self.worker_words[slot.min(MAX_PERSIST_WORKERS - 1)].fetch_add(words, Ordering::Relaxed);
    }
}

/// Splits a flush plan into at most `parts` word-balanced chunks,
/// preserving range order and cutting only at cache-line boundaries —
/// the line is the clwb unit, so a split range issues the identical
/// per-line device schedule the unsplit range would.
pub(super) fn partition_plan(plan: Vec<FlushRange>, parts: usize) -> Vec<Vec<FlushRange>> {
    let total: u64 = plan.iter().map(|r| r.words).sum();
    if parts <= 1 || total == 0 {
        return vec![plan];
    }
    let target = total.div_ceil(parts as u64).max(WORDS_PER_LINE);
    let mut out: Vec<Vec<FlushRange>> = Vec::with_capacity(parts);
    let mut cur: Vec<FlushRange> = Vec::new();
    let mut cur_words = 0u64;
    for r in plan {
        let mut rest = r;
        while rest.words > 0 {
            if out.len() + 1 >= parts {
                // Final chunk: takes everything that remains.
                cur.push(rest);
                cur_words += rest.words;
                break;
            }
            let room = target.saturating_sub(cur_words);
            let take = (room - room % WORDS_PER_LINE).min(rest.words);
            if take == 0 {
                // Chunk is full (a sub-line remainder counts as full):
                // close it. `cur` is never empty here because an empty
                // chunk has `room == target >= WORDS_PER_LINE`.
                out.push(std::mem::take(&mut cur));
                cur_words = 0;
                continue;
            }
            cur.push(FlushRange {
                start: rest.start,
                words: take,
            });
            cur_words += take;
            rest = FlushRange {
                start: NvmAddr(rest.start.0 + take),
                words: rest.words - take,
            };
            if cur_words >= target {
                out.push(std::mem::take(&mut cur));
                cur_words = 0;
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

impl EpochSys {
    /// Registers a chunk worker with the persister pool and returns its
    /// telemetry slot. Called by [`Persister`](crate::Persister) when it
    /// spawns pool threads; pair with
    /// [`detach_chunk_worker`](Self::detach_chunk_worker).
    pub(crate) fn attach_chunk_worker(&self) -> usize {
        self.pool.workers.fetch_add(1, Ordering::AcqRel);
        let n = self.pool.next_slot.fetch_add(1, Ordering::Relaxed) as usize;
        // Slots beyond the gauge width share the last slot (the worker
        // still works; only its words column aggregates).
        1 + (n - 1) % (MAX_PERSIST_WORKERS - 1)
    }

    /// Deregisters a chunk worker and wakes the coordinator in case it
    /// is joining a fan-out this worker will no longer serve.
    pub(crate) fn detach_chunk_worker(&self) {
        self.pool.workers.fetch_sub(1, Ordering::AcqRel);
        self.pool.work_ready.notify_all();
        self.pool.work_done.notify_all();
    }

    /// Attached write-back workers: the persister head-count plus the
    /// pool's chunk workers (0 when everything persists inline).
    pub fn persist_pool_workers(&self) -> u64 {
        self.attached_persisters() + self.pool.chunk_workers()
    }

    /// Cumulative words written back per worker slot (slot 0 is the
    /// coordinator / inline drains; chunk workers fill 1..). The obs
    /// `persist_worker_words` gauge.
    pub fn persist_worker_words(&self) -> [u64; MAX_PERSIST_WORKERS] {
        std::array::from_fn(|i| self.pool.worker_words[i].load(Ordering::Relaxed))
    }

    /// Chunks of the current fan-out not yet completed. Watchdog
    /// introspection (the pool stall shape).
    pub fn pool_pending(&self) -> usize {
        self.pool.lock().pending
    }

    /// Writes `plan` back, fanning out across attached chunk workers
    /// when there are any, and aggregates the per-chunk verdicts.
    /// Called with the persist lock held (this is the coordinator role),
    /// so at most one fan-out is active at a time.
    pub(super) fn persist_plan(
        &self,
        epoch: u64,
        plan: Vec<FlushRange>,
    ) -> Result<u64, (u32, DeviceError)> {
        let workers = self.pool.chunk_workers() as usize;
        // Residue from a coordinator that crashed mid-fan-out (its
        // claimed chunks may still be draining): fall back to a serial
        // pass rather than entangling two batches' bookkeeping.
        let stale = self.pool.lock().pending > 0;
        let parts = if workers == 0 || stale {
            1
        } else {
            workers + 1
        };
        let mut chunks = partition_plan(plan, parts);
        self.obs().persist_chunks.record(chunks.len() as u64);
        if chunks.len() == 1 {
            let words = self.persist_chunk_with_retry(epoch, &chunks[0])?;
            self.pool.add_worker_words(0, words);
            return Ok(words);
        }

        let mine = chunks.remove(0);
        {
            let mut st = self.pool.lock();
            st.done_words = 0;
            st.failed = None;
            st.died = 0;
            for ranges in chunks {
                st.jobs.push_back(ChunkJob { epoch, ranges });
                st.pending += 1;
            }
        }
        self.pool.work_ready.notify_all();

        let mut my_words = 0u64;
        let mut my_err: Option<(u32, DeviceError)> = None;
        match self.persist_chunk_with_retry(epoch, &mine) {
            Ok(w) => {
                my_words = w;
                self.pool.add_worker_words(0, w);
            }
            Err(e) => my_err = Some(e),
        }

        // Steal chunks no worker claimed: the fan-out stays deadlock-free
        // even if every chunk worker retired right after being counted.
        loop {
            let job = self.pool.lock().jobs.pop_front();
            let Some(job) = job else { break };
            let res = self.persist_chunk_with_retry(job.epoch, &job.ranges);
            let mut st = self.pool.lock();
            st.pending = st.pending.saturating_sub(1);
            match res {
                Ok(w) => {
                    st.done_words += w;
                    drop(st);
                    self.pool.add_worker_words(0, w);
                }
                Err(e) => {
                    if st.failed.is_none() {
                        st.failed = Some(e);
                    }
                }
            }
        }

        // Join the chunks workers did claim. The timeout covers a worker
        // dying between its last completion and its detach notification.
        let mut st = self.pool.lock();
        while st.pending > 0 {
            let (g, _) = self
                .pool
                .work_done
                .wait_timeout(st, Duration::from_millis(1))
                .unwrap_or_else(|err| err.into_inner());
            st = g;
        }
        let done_words = st.done_words;
        let failed = st.failed.take();
        let died = st.died;
        st.died = 0;
        drop(st);

        if let Some(e) = my_err.or(failed) {
            return Err(e);
        }
        if died > 0 {
            // A worker unwound mid-chunk (crash point): its chunk may be
            // half-flushed. Surface it as a single failed write-back
            // attempt so the batch re-queues through the normal ladder.
            return Err((
                1,
                DeviceError {
                    op: nvm_sim::DeviceOpKind::Writeback,
                    seq: 0,
                },
            ));
        }
        Ok(my_words + done_words)
    }

    /// The chunk-worker body: claim queued chunks, write them back with
    /// the per-chunk retry budget, post the verdict, repeat. Exits when
    /// `stop` is set and no work is queued, or when the health ladder
    /// leaves `Ok` (Degraded turns pipelining off — inline drains go
    /// serial, same as the persister worker retiring).
    pub(crate) fn chunk_worker_loop(&self, slot: usize, stop: &StopFlag) {
        let mut crash: Option<Box<dyn std::any::Any + Send>> = None;
        loop {
            let job = self.pool.lock().jobs.pop_front();
            match job {
                Some(job) => {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        self.persist_chunk_with_retry(job.epoch, &job.ranges)
                    }));
                    let mut st = self.pool.lock();
                    st.pending = st.pending.saturating_sub(1);
                    match &result {
                        Ok(Ok(w)) => {
                            st.done_words += w;
                            drop(st);
                            self.pool.add_worker_words(slot, *w);
                        }
                        Ok(Err(e)) => {
                            if st.failed.is_none() {
                                st.failed = Some(*e);
                            }
                        }
                        Err(_) => st.died += 1,
                    }
                    self.pool.work_done.notify_all();
                    if let Err(payload) = result {
                        crash = Some(payload);
                        break;
                    }
                }
                None => {
                    if stop.is_set() || self.health() != HealthState::Ok {
                        break;
                    }
                    let st = self.pool.lock();
                    if st.jobs.is_empty() {
                        let _ = self
                            .pool
                            .work_ready
                            .wait_timeout(st, Duration::from_millis(5))
                            .unwrap_or_else(|err| err.into_inner());
                    }
                }
            }
        }
        self.detach_chunk_worker();
        if let Some(payload) = crash {
            // CrashTriggered models machine death, like the persister
            // worker: vanish quietly. Anything else is a real bug.
            if payload.downcast_ref::<CrashTriggered>().is_none() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(start: u64, words: u64) -> FlushRange {
        FlushRange {
            start: NvmAddr(start),
            words,
        }
    }

    fn words_of(chunks: &[Vec<FlushRange>]) -> u64 {
        chunks.iter().flatten().map(|r| r.words).sum()
    }

    #[test]
    fn partition_preserves_words_and_order() {
        let plan = vec![range(0, 32), range(64, 128), range(512, 8), range(1024, 4)];
        let total: u64 = plan.iter().map(|r| r.words).sum();
        for parts in 1..=6 {
            let chunks = partition_plan(plan.clone(), parts);
            assert!(chunks.len() <= parts.max(1), "at most {parts} chunks");
            assert_eq!(words_of(&chunks), total, "no words lost at {parts}");
            // Flattened back, the per-line schedule is the original's:
            // same starts in the same order, splits only at line
            // boundaries within an original range.
            let flat: Vec<FlushRange> = chunks.into_iter().flatten().collect();
            let mut orig = plan.iter();
            let mut cur = *orig.next().unwrap();
            for r in flat {
                if cur.words == 0 {
                    cur = *orig.next().unwrap();
                }
                assert_eq!(r.start, cur.start, "order/contiguity preserved");
                assert!(r.words <= cur.words);
                assert!(
                    r.words == cur.words || r.words % WORDS_PER_LINE == 0,
                    "splits only at line boundaries"
                );
                cur = FlushRange {
                    start: NvmAddr(cur.start.0 + r.words),
                    words: cur.words - r.words,
                };
            }
            assert_eq!(cur.words, 0, "every original range fully covered");
            assert!(orig.next().is_none());
        }
    }

    #[test]
    fn partition_balances_one_giant_range() {
        // Coalescing can merge a whole extent into one range; the
        // partitioner must still split it so workers share the lines.
        let chunks = partition_plan(vec![range(0, 4096)], 4);
        assert_eq!(chunks.len(), 4);
        for c in &chunks {
            let w: u64 = c.iter().map(|r| r.words).sum();
            assert_eq!(w, 1024, "even line-aligned split");
        }
    }

    #[test]
    fn partition_serial_and_empty_edges() {
        assert_eq!(partition_plan(vec![], 4), vec![Vec::new()]);
        let plan = vec![range(0, 8)];
        assert_eq!(partition_plan(plan.clone(), 1), vec![plan.clone()]);
        // Fewer words than parts: degenerates gracefully.
        let chunks = partition_plan(plan.clone(), 8);
        assert_eq!(words_of(&chunks), 8);
    }
}
