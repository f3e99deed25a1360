//! The seal → persist pipeline: sealed `EpochBatch`es, the bounded
//! in-flight queue, and batch write-back (the §3 "step 2" of an epoch
//! transition, split off the clock path so a background
//! [`Persister`](crate::Persister) can run it).
//!
//! Ordering here is deliberately boring: everything cross-thread goes
//! through one std mutex plus two condvars (so waiters block instead
//! of spinning), the persist lock serializes write-backs so the
//! durable frontier stays monotone, and the only atomics are the
//! persister head-count (Acquire/Release) and the stats counters
//! (Relaxed). Nothing in this module participates in the clock's
//! Dekker handshake — by the time a batch exists, its epoch has
//! already quiesced.
//!
//! The thread holding the persist lock builds the batch's flush plan,
//! coalescing word-contiguous blocks into ranged flushes, writes it
//! back, and only then fences and publishes the frontier.
//!
//! Write-back and publish are two steps with a gate between them. The
//! persister seals each closed epoch
//! ([`seal_quiescent`](EpochSys::seal_quiescent)) and writes it back
//! while the epoch after it still runs, but its fence and frontier
//! publish wait until the advance that closes its epoch has *released*
//! it (`PipelineQueue::released`). A batch sealed after its release (in
//! synchronous mode, or by a late persister) writes back and publishes
//! in one go.

use crate::error::HealthState;
use crate::obs::EventKind;
use htm_sim::{backoff_ladder, backoff_spin};
use nvm_sim::{DeviceError, NvmAddr, WORDS_PER_LINE};
use persist_alloc::{Header, CLASS_WORDS, HDR_WORDS};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

use super::facade::{EpochSys, ROOT_FRONTIER};
use super::tracking::BUF_GENS;

/// One contiguous, line-aligned device range scheduled for write-back.
struct FlushRange {
    start: NvmAddr,
    words: u64,
}

/// Base of the persist-retry backoff ladder, in busy spins: retry `n`
/// waits `PERSIST_BACKOFF_SPINS << n` spins plus seeded jitter (the
/// same ladder HTM retry uses; see [`htm_sim::backoff_ladder`]).
const PERSIST_BACKOFF_SPINS: u32 = 64;

/// How far a batch's write-back has got (the fence and frontier publish
/// come after, behind the release gate).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum WriteBack {
    /// The flush plan has not run.
    Pending,
    /// An early write-back hit a device error. Only the released path
    /// tries again, with the full retry ladder and health escalation.
    EarlyFailed,
    /// Every tracked block is flushed (not yet fenced): this many words.
    Done(u64),
}

/// A sealed snapshot of everything one closed epoch tracked, ready for
/// write-back once normalized (sorted + deduplicated).
///
/// Sealing ([`EpochSys::seal_quiescent`]) happens under the queue lock —
/// on the persister, or on the advancing thread in synchronous mode —
/// and is a plain move; the sort/dedup runs at write-back, on whichever
/// thread persists the batch. The write-back, fence, frontier publish,
/// and reclamation happen when the batch is *persisted* — by a
/// [`Persister`](crate::Persister) worker in pipelined mode, or inline
/// on the advancing thread otherwise.
pub(crate) struct EpochBatch {
    /// The epoch this batch closes: once persisted, the durable
    /// frontier becomes exactly this value.
    pub(super) epoch: u64,
    /// Tracked blocks; after [`normalize`](Self::normalize), unique and
    /// in address order (address order is cache line order).
    pub(super) persist: Vec<NvmAddr>,
    pub(super) retire: Vec<NvmAddr>,
    /// How far the write-back has got; an early one may precede the
    /// release by most of an epoch.
    pub(super) written: WriteBack,
    /// Persister time the write-back took, wherever it ran, so that
    /// `batch_persist_ns` stays the whole write-back + publish + reclaim.
    pub(super) write_back_time: Duration,
}

impl EpochBatch {
    /// Seals the drained buffers as-is: a move, cheap enough for the
    /// sealing thread. Sorting and duplicate merging are deferred to
    /// [`normalize`](Self::normalize) at write-back.
    pub(super) fn seal(epoch: u64, persist: Vec<NvmAddr>, retire: Vec<NvmAddr>) -> Self {
        EpochBatch {
            epoch,
            persist,
            retire,
            written: WriteBack::Pending,
            write_back_time: Duration::ZERO,
        }
    }

    /// Sorts and dedups the tracked blocks, so a block tracked N times
    /// in one epoch reaches media once. Idempotent.
    pub(super) fn normalize(&mut self) {
        self.persist.sort_unstable();
        self.persist.dedup();
    }
}

/// Shared state of the seal→persist pipeline, guarded by a std mutex so
/// waiters can block on [`Condvar`]s instead of spinning.
pub(super) struct PipelineQueue {
    pub(super) batches: VecDeque<EpochBatch>,
    /// Sealed batches not yet fully persisted: the queue above plus the
    /// batch a persister is currently writing back.
    pub(super) in_flight: usize,
    /// The newest sealed epoch; monotone, set by `seal_quiescent`.
    /// Epochs are sealed in order, so every epoch up to it is sealed.
    pub(super) sealed: u64,
    /// The newest epoch whose closing advance has run. Only batches at
    /// or below it may fence and publish; monotone, set by `advance`.
    pub(super) released: u64,
}

impl PipelineQueue {
    /// Whether `persist_next_batch` has anything to do: a released
    /// (hence quiescent) epoch awaits its seal, or the oldest batch may
    /// publish, or it still awaits its early write-back.
    fn actionable(&self) -> bool {
        self.sealed < self.released
            || self
                .batches
                .front()
                .is_some_and(|b| b.epoch <= self.released || b.written == WriteBack::Pending)
    }

    /// Whether the one batch in flight is released and fully written
    /// back, so that its frontier can publish right away.
    fn publishable(&self) -> bool {
        self.in_flight == 1
            && self.batches.front().is_some_and(|b| {
                b.epoch <= self.released && matches!(b.written, WriteBack::Done(_))
            })
    }
}

pub(super) struct Pipeline {
    q: StdMutex<PipelineQueue>,
    /// Signaled when a batch is enqueued (wakes the persister worker).
    pub(super) batch_ready: Condvar,
    /// Signaled when a batch is sealed or finishes persisting (wakes the
    /// structural stall, admission and `advance_until` waiters).
    pub(super) batch_done: Condvar,
    /// Attached [`Persister`](crate::Persister) workers. Pipelining
    /// engages only while this is non-zero; otherwise every advance
    /// drains the queue inline, so programs that never spawn a
    /// persister keep the synchronous behavior.
    pub(super) persisters: AtomicU64,
    /// Whether a [`Persister`](crate::Persister) thread drains the
    /// queue. Hand-driven pipelines (sweeps, tests) attach without one,
    /// and then nothing waits for the persister to catch up.
    background: AtomicBool,
    /// Set by an advance that releases an epoch the persister sealed
    /// early but has not finished writing back, cleared once the
    /// frontier covers the released epoch: while it is set, operations
    /// wait before they begin (see [`EpochSys::wait_for_persister`]).
    pub(super) behind: AtomicBool,
}

impl Pipeline {
    /// An empty pipeline whose every epoch up to `released` is sealed
    /// and released.
    pub(super) fn new(released: u64) -> Self {
        Pipeline {
            q: StdMutex::new(PipelineQueue {
                batches: VecDeque::new(),
                in_flight: 0,
                sealed: released,
                released,
            }),
            batch_ready: Condvar::new(),
            batch_done: Condvar::new(),
            persisters: AtomicU64::new(0),
            background: AtomicBool::new(false),
            behind: AtomicBool::new(false),
        }
    }

    /// Queue lock, immune to poisoning: a fault-plan crash can unwind a
    /// persister thread, and the pipeline state is coarse counters that
    /// stay coherent across an unwind.
    pub(super) fn lock(&self) -> MutexGuard<'_, PipelineQueue> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl EpochSys {
    /// Sealed batches currently in flight (queued or being written
    /// back). Diagnostic introspection.
    pub fn batches_in_flight(&self) -> usize {
        self.pipeline.lock().in_flight
    }

    /// Whether sealed batches go to a background persister (at least
    /// one worker is attached, and the system has not degraded to
    /// synchronous inline persistence).
    pub(super) fn pipelined(&self) -> bool {
        self.pipeline.persisters.load(Ordering::Acquire) > 0
            && self.health.load(Ordering::Acquire) == HealthState::Ok as u8
    }

    /// Registers a persister worker; advances switch from inline seal
    /// and write-back to release-only. Normally called by
    /// [`Persister::spawn`](crate::Persister); public so deterministic
    /// tests can enter pipelined mode without a background thread and
    /// run the persister's step by hand with
    /// [`persist_next_batch`](Self::persist_next_batch) (pair every
    /// attach with a [`detach_persister`](Self::detach_persister)).
    pub fn attach_persister(&self) {
        self.pipeline.persisters.fetch_add(1, Ordering::AcqRel);
    }

    /// Deregisters a persister worker and wakes every pipeline waiter
    /// so none blocks on a worker that no longer exists.
    pub fn detach_persister(&self) {
        self.pipeline.persisters.fetch_sub(1, Ordering::AcqRel);
        self.pipeline.background.store(false, Ordering::Release);
        self.pipeline.behind.store(false, Ordering::Release);
        self.pipeline.batch_ready.notify_all();
        self.pipeline.batch_done.notify_all();
    }

    /// [`attach_persister`](Self::attach_persister) for the
    /// [`Persister`](crate::Persister) thread, which also turns on the
    /// admission wait of [`wait_for_persister`](Self::wait_for_persister).
    pub(crate) fn attach_background_persister(&self) {
        self.attach_persister();
        self.pipeline.background.store(true, Ordering::Release);
    }

    /// Whether a [`Persister`](crate::Persister) thread drains the
    /// queue (not a hand driver), and pipelining is engaged.
    pub(super) fn background(&self) -> bool {
        self.pipeline.background.load(Ordering::Acquire) && self.pipelined()
    }

    /// Marks a background persister behind if the epoch just released
    /// still needs write-back although the persister sealed it before
    /// the release, i.e. had the whole epoch for it. Called under the
    /// queue lock by the releasing advance. An epoch still unsealed at
    /// its release (back-to-back advances) has had no time yet, and a
    /// persister further behind meets the structural stall instead.
    pub(super) fn note_release(&self, q: &PipelineQueue) {
        if self.background() && q.sealed >= q.released && !q.publishable() {
            self.pipeline.behind.store(true, Ordering::Release);
        }
    }

    /// Admission control: an operation does not begin while the
    /// background persister is behind, i.e. it missed an epoch boundary
    /// and an early-sealed, released epoch still waits for its
    /// write-back. Work admitted meanwhile would queue behind the
    /// persister, each epoch would carry more than the persister writes
    /// back in one, and the durable frontier would fall further behind
    /// the clock with every epoch. So when clients outrun the persister,
    /// they wait, and throughput is whatever the persister sustains.
    ///
    /// A bound on work, not a correctness condition: the flag is read
    /// Relaxed on the `begin_op` path, and an operation that misses a
    /// fresh `true` merely starts before the persister catches up.
    pub(super) fn wait_for_persister(&self) {
        let mut q = self.pipeline.lock();
        while self.pipeline.behind.load(Ordering::Acquire) && self.pipelined() {
            q = self
                .pipeline
                .batch_done
                .wait_timeout(q, Duration::from_millis(1))
                .unwrap_or_else(|err| err.into_inner())
                .0;
        }
    }

    /// The structural bound: epoch `next` reuses the arena generation
    /// of `next − BUF_GENS`, so it may not open before that epoch is
    /// sealed. Waits for the persister's seal holding only the advance
    /// lock, which no sealer takes. A hand-driven pipeline
    /// (`attach_persister()` with no thread) has nobody to wait for, so
    /// this panics there instead of hanging.
    pub(super) fn wait_for_generation(&self, next: u64) {
        let Some(reused) = next.checked_sub(BUF_GENS as u64) else {
            return;
        };
        let mut q = self.pipeline.lock();
        while q.sealed < reused && self.pipelined() {
            if !self.background() {
                drop(q);
                panic!(
                    "advance to epoch {next} would reuse the arena generation of unsealed \
                     epoch {reused}, and no persister thread can seal it: drain a hand-driven \
                     pipeline with persist_next_batch() before advancing further"
                );
            }
            self.stats().pipeline_stalls.fetch_add(1, Ordering::Relaxed);
            self.obs().event(EventKind::PipelineStall, reused, q.sealed);
            self.pipeline.batch_ready.notify_one();
            q = self
                .pipeline
                .batch_done
                .wait_timeout(q, Duration::from_millis(1))
                .unwrap_or_else(|err| err.into_inner())
                .0;
        }
    }

    /// Blocks the persister worker until there may be work for it. A
    /// written-back batch that waits for its release is not work: the
    /// releasing advance signals `batch_ready`. Returns whether a closed
    /// epoch awaits its seal behind a still-running operation, whose end
    /// nobody signals: then the wait is `poll`, otherwise `idle`.
    pub(crate) fn wait_for_work(&self, idle: Duration, poll: Duration) -> bool {
        let q = self.pipeline.lock();
        if q.actionable() {
            return false;
        }
        let straggler = q.sealed + 1 < self.clock.current();
        let timeout = if straggler { poll } else { idle };
        let _ = self
            .pipeline
            .batch_ready
            .wait_timeout(q, timeout)
            .unwrap_or_else(|err| err.into_inner());
        straggler
    }

    /// Wakes the persister worker(s) (used by `Persister::stop`).
    pub(crate) fn notify_persisters(&self) {
        self.pipeline.batch_ready.notify_all();
    }

    /// The persister's step: while pipelining, seals the oldest closed
    /// epoch first ([`seal_quiescent`](Self::seal_quiescent)); then
    /// writes back the oldest sealed batch, if any: persist its blocks
    /// and retirement records, fence, publish the durable frontier, and
    /// reclaim. Returns whether it did any of that work.
    ///
    /// Normally called by the [`Persister`](crate::Persister) worker;
    /// public so deterministic drivers can run the pipeline by hand.
    /// The pop happens under the persist lock, so concurrent callers
    /// persist batches strictly in seal (= epoch) order and the
    /// frontier is monotone.
    ///
    /// The publish gate: a batch above the released epoch (sealed before
    /// its closing advance) is only written back, then goes back to the
    /// front of the queue; the call after its release fences and
    /// publishes it. Until then, further calls return `false`. A device
    /// error during that early write-back is not escalated: the batch
    /// stays un-written and the released path retries it.
    ///
    /// A batch that exhausts its retry budget
    /// (`EpochConfig::persist_retries`) is pushed back to the front
    /// of the queue — epoch order preserved, nothing durable lost —
    /// and the health ladder ratchets up (`Ok → Degraded`, then
    /// `Degraded → Failed`). Once [`HealthState::Failed`], the queue is
    /// frozen: this returns `false` without attempting anything, and
    /// the durable frontier stays at the last fully persisted epoch.
    pub fn persist_next_batch(&self) -> bool {
        let _pg = self.persist_lock.lock();
        if self.health.load(Ordering::SeqCst) == HealthState::Failed as u8 {
            return false;
        }
        if self.pipelined() {
            self.seal_quiescent();
        }
        let (batch, released) = {
            let mut q = self.pipeline.lock();
            (q.batches.pop_front(), q.released)
        };
        let Some(mut b) = batch else {
            return false;
        };
        if b.epoch <= released {
            return self.persist_popped_batch(b);
        }
        // Unreleased: write back only. The advance that releases `b`
        // may run meanwhile; returning `true` makes the caller look again.
        let progressed = b.written == WriteBack::Pending;
        if progressed && self.write_back(&mut b).is_err() {
            b.written = WriteBack::EarlyFailed;
        }
        self.pipeline.lock().batches.push_front(b);
        progressed
    }

    /// The released half of [`persist_next_batch`](Self::persist_next_batch):
    /// writes `b` back unless that ran early, then fences, publishes the
    /// frontier record and completes the batch. Transient
    /// [`DeviceError`]s back off on the HTM exponential ladder (plus
    /// seeded jitter) and retry. Retrying any part of the device
    /// sequence from its top is safe — `persist_range`/`clwb`/frontier
    /// write are idempotent.
    ///
    /// On budget exhaustion the batch goes back untouched to the front
    /// of the queue, so epoch order (and the frontier's monotonicity)
    /// survives the failure, and the health ladder ratchets up with the
    /// typed [`PersistError`](crate::PersistError).
    fn persist_popped_batch(&self, mut b: EpochBatch) -> bool {
        let written = self.write_back(&mut b);
        let t0 = Instant::now();
        match written.and_then(|()| self.publish_frontier_device(b.epoch)) {
            Ok(()) => {
                self.complete_batch(b, t0);
                true
            }
            Err((attempts, cause)) => {
                let err = crate::PersistError {
                    epoch: b.epoch,
                    attempts,
                    cause,
                };
                // The next attempt starts over, write-back included.
                b.written = WriteBack::Pending;
                self.pipeline.lock().batches.push_front(b);
                let next = match self.health() {
                    HealthState::Ok => HealthState::Degraded,
                    _ => HealthState::Failed,
                };
                self.escalate_health(next, err);
                false
            }
        }
    }

    /// Runs the batch's flush plan unless that already happened: every
    /// tracked block and retirement record is flushed, not yet fenced.
    fn write_back(&self, batch: &mut EpochBatch) -> Result<(), (u32, DeviceError)> {
        if let WriteBack::Done(_) = batch.written {
            return Ok(());
        }
        batch.normalize();
        let t0 = Instant::now();
        let (plan, coalesced) = self.build_flush_plan(batch);
        if coalesced != 0 {
            self.stats()
                .coalesced_flushes
                .fetch_add(coalesced, Ordering::Relaxed);
        }
        let words = self.persist_plan(batch.epoch, &plan)?;
        batch.written = WriteBack::Done(words);
        batch.write_back_time = t0.elapsed();
        Ok(())
    }

    /// Builds the batch's flush plan: one [`FlushRange`] per live
    /// tracked block, with word-contiguous neighbors coalesced into a
    /// single ranged flush, followed by the retirement-record header
    /// lines (never merged — headers end mid-line). Returns the plan
    /// and the number of flushes saved by coalescing.
    ///
    /// Coalescing is digest-neutral: blocks are line-aligned and the
    /// size classes are line-multiples, so a merge happens only when
    /// the previous range ends exactly on the next block's first line —
    /// the merged range issues the identical per-line clwb schedule the
    /// two separate ranges would (the device flushes ranges line by
    /// line). The guard below makes that precondition explicit. The
    /// batch must be normalized: sorted, unique blocks.
    fn build_flush_plan(&self, batch: &EpochBatch) -> (Vec<FlushRange>, u64) {
        let heap = self.heap();
        let mut plan: Vec<FlushRange> =
            Vec::with_capacity(batch.persist.len() + batch.retire.len());
        let mut coalesced = 0u64;
        for &blk in &batch.persist {
            // A block freed after tracking (tracked then retired in a
            // later epoch of the same batch window) has no live header:
            // skip it, exactly as the serial persister always has.
            if let Some((_, class)) = Header::state(heap, blk) {
                let words = CLASS_WORDS[class];
                match plan.last_mut() {
                    Some(last)
                        if last.start.0 + last.words == blk.0
                            && (last.start.0 + last.words) % WORDS_PER_LINE == 0 =>
                    {
                        last.words += words;
                        coalesced += 1;
                    }
                    _ => plan.push(FlushRange { start: blk, words }),
                }
            }
        }
        for &blk in &batch.retire {
            plan.push(FlushRange {
                start: blk,
                words: HDR_WORDS,
            });
        }
        (plan, coalesced)
    }

    /// Writes a flush plan back, retrying transient device errors on
    /// the backoff ladder with the full `1 + persist_retries` budget;
    /// the error carries the attempt count for the
    /// [`PersistError`](crate::PersistError). Returns the words flushed.
    fn persist_plan(&self, epoch: u64, plan: &[FlushRange]) -> Result<u64, (u32, DeviceError)> {
        self.retry_device(epoch, || {
            let heap = self.heap();
            let mut words = 0u64;
            for r in plan {
                heap.try_persist_range(r.start, r.words)?;
                words += r.words;
            }
            Ok(words)
        })
    }

    /// The write-back tail, run after the flush plan succeeded: fence
    /// the block flushes, persist the frontier record, fence again. Has
    /// its own retry budget — the plan's words are already flushed, so
    /// only these three device ops re-run.
    fn publish_frontier_device(&self, r: u64) -> Result<(), (u32, DeviceError)> {
        debug_assert!(self.clock.frontier() <= r, "frontier regression");
        self.retry_device(r, || {
            let heap = self.heap();
            heap.try_fence()?;
            // Frontier record: epochs ≤ r are durable once this line is
            // flushed and fenced.
            heap.write(heap.root(ROOT_FRONTIER), r);
            heap.try_clwb(heap.root(ROOT_FRONTIER))?;
            heap.try_fence()?;
            Ok(())
        })
    }

    /// The shared retry ladder: runs `op` up to `1 + persist_retries`
    /// times, backing off exponentially with seeded jitter between
    /// attempts. Used for the flush plan and for the frontier tail.
    fn retry_device<T>(
        &self,
        epoch: u64,
        mut op: impl FnMut() -> Result<T, DeviceError>,
    ) -> Result<T, (u32, DeviceError)> {
        let mut attempt: u32 = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(cause) => {
                    attempt += 1;
                    if attempt > self.config().persist_retries {
                        return Err((attempt, cause));
                    }
                    self.stats().persist_retries.fetch_add(1, Ordering::Relaxed);
                    self.obs()
                        .event(EventKind::PersistRetry, epoch, attempt as u64);
                    let spins = backoff_ladder(PERSIST_BACKOFF_SPINS, attempt - 1);
                    // Seeded jitter in [0, spins/2] decorrelates
                    // contending persisters without perturbing replay
                    // determinism (fixed seed).
                    let draw = self.backoff_rng.next_u64();
                    backoff_spin(spins + draw % (spins / 2 + 1));
                }
            }
        }
    }

    /// The volatile half of a successful write-back: publish the
    /// frontier mirror, reclaim, record stats and events, and release
    /// the pipeline slot. `t0` is when the fence step began.
    fn complete_batch(&self, batch: EpochBatch, t0: Instant) {
        let r = batch.epoch;
        let WriteBack::Done(words) = batch.written else {
            unreachable!("a batch publishes only after its write-back");
        };
        // Fold commit→durable spans for epoch r *before* the frontier
        // mirror moves: a committer that later observes frontier ≥ r
        // can then safely recycle r's lag slot as already-folded. Every
        // epoch-r commit happens-before this point (commit → Release
        // deregister → SeqCst straggler scan → seal → pipeline mutex),
        // and this runs on the pipelined, synchronous, and Degraded
        // inline-drain paths alike, so lag is attributed uniformly
        // across persist modes.
        self.obs().fold_epoch_lag(r);
        self.clock.publish_frontier(r);
        if self.pipeline.behind.load(Ordering::Acquire) {
            let q = self.pipeline.lock();
            if r >= q.released {
                self.pipeline.behind.store(false, Ordering::Release);
            }
            drop(q);
            self.pipeline.batch_done.notify_all();
        }

        // Reclaim retired blocks — their deletion records are durable,
        // so recovery can never resurrect them. One fence for the batch.
        let reclaimed = batch.retire.len() as u64;
        self.alloc.free_batch(&batch.retire);

        self.stats()
            .blocks_persisted
            .fetch_add(batch.persist.len() as u64, Ordering::Relaxed);
        self.stats()
            .words_persisted
            .fetch_add(words, Ordering::Relaxed);
        self.stats()
            .blocks_reclaimed
            .fetch_add(reclaimed, Ordering::Relaxed);
        self.obs()
            .batch_persist_ns
            .record((batch.write_back_time + t0.elapsed()).as_nanos() as u64);
        self.obs()
            .persist_batch_blocks
            .record(batch.persist.len() as u64);
        self.obs()
            .event(EventKind::PersistBatch, batch.persist.len() as u64, words);
        self.obs()
            .event(EventKind::BatchPersisted, r, batch.persist.len() as u64);

        let mut q = self.pipeline.lock();
        q.in_flight = q.in_flight.saturating_sub(1);
        drop(q);
        self.pipeline.batch_done.notify_all();
    }

    /// Advances until every epoch `≤ epoch` is durable. With a
    /// background persister this advances until `epoch` is released and
    /// then *waits* for the persister rather than spinning the clock
    /// forward. Otherwise (synchronous mode, or a hand-driven pipeline
    /// with no persister thread) it writes back what it can itself and
    /// advances only when nothing is left, so a hand-driven pipeline
    /// never meets the structural bound here.
    pub fn advance_until(&self, epoch: u64) {
        while !self.is_disabled() && self.persisted_frontier() < epoch {
            // Fail-stop freezes the persist queue: the frontier can
            // never reach `epoch`, so return instead of wedging (the
            // caller observes the shortfall via `persisted_frontier`).
            if self.health() == HealthState::Failed {
                return;
            }
            if !self.background() {
                if !self.persist_next_batch() {
                    self.advance();
                }
            } else if self.current_epoch() < epoch + 2 {
                // `epoch` is not released yet.
                self.advance();
            } else {
                let q = self.pipeline.lock();
                if self.persisted_frontier() >= epoch {
                    break;
                }
                let _ = self
                    .pipeline
                    .batch_done
                    .wait_timeout(q, Duration::from_millis(1))
                    .unwrap_or_else(|err| err.into_inner());
            }
        }
    }

    /// Makes everything completed so far durable (two transitions).
    pub fn flush_all(&self) {
        if self.is_disabled() {
            return;
        }
        let e = self.current_epoch();
        self.advance_until(e);
    }
}

#[cfg(test)]
mod tests;
