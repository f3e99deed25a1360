//! The seal → persist pipeline: sealed `EpochBatch`es, the queue they
//! wait in, its state machine, and batch write-back (the §3 "step 2" of
//! an epoch transition, off the clock path so a background
//! [`Persister`](crate::Persister) can run it).
//!
//! Every pipeline decision is a pure method of [`PipelineQueue`], the
//! state behind the queue mutex: the persister's
//! [`next_action`](PipelineQueue::next_action), the advance's
//! [`release`](PipelineQueue::release) and its structural bound
//! [`may_open`](PipelineQueue::may_open). Call sites lock, call, then
//! act or wait in [`Pipeline::wait`], the one condvar wait. The
//! `explore` unit test runs the same methods through every interleaving
//! of a ticker, a persister thread and clients (DESIGN.md §3.4.2).
//!
//! Nothing here takes part in the clock's Dekker handshake: by the time
//! a batch exists, its epoch has quiesced. The persist lock serializes
//! write-backs, so frontier publishes stay in epoch order.

use crate::error::HealthState;
use crate::obs::EventKind;
use htm_sim::{backoff_ladder, backoff_spin};
use nvm_sim::{DeviceError, NvmAddr, WORDS_PER_LINE};
use persist_alloc::{Header, CLASS_WORDS, HDR_WORDS};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Longest single pipeline wait: a missed notify costs at most this.
const WAIT_SLICE: Duration = Duration::from_millis(1);

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

/// A sealed snapshot of everything one closed epoch tracked. Sealing is
/// a plain move under the queue lock; the sort + dedup
/// ([`normalize`](Self::normalize)) runs at write-back, on whichever
/// thread persists the batch.
#[derive(Clone)]
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

/// Who runs the persister's step ([`EpochSys::persist_next_batch`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Driver {
    /// Nobody: every advance seals and writes back inline before it
    /// opens the next epoch (synchronous mode).
    Inline,
    /// [`EpochSys::attach_persister`]: a test or sweep runs the step by
    /// hand, and nothing waits for it.
    Hand,
    /// A [`Persister`](crate::Persister) thread.
    Thread,
}

/// The persister step's next move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Action {
    /// Seal this closed, quiescent epoch (`sealed + 1`).
    Seal(u64),
    /// Write the oldest batch back ahead of its release.
    WriteBackEarly,
    /// Finish the oldest, released batch: write back unless that ran
    /// early, fence, publish the frontier, reclaim.
    Publish,
    /// Nothing to do. `straggler`: a closed epoch waits for its seal
    /// behind a running operation, whose end nobody signals, so a
    /// waiter polls instead of sleeping.
    Idle { straggler: bool },
}

/// The pipeline's state, guarded by the queue mutex, and every decision
/// taken over it.
#[derive(Clone)]
pub(super) struct PipelineQueue {
    batches: VecDeque<EpochBatch>,
    /// Sealed batches not yet fully persisted: the queue above plus the
    /// batch the persister is writing back.
    in_flight: usize,
    /// The newest sealed epoch; epochs seal in order.
    sealed: u64,
    /// The newest epoch whose closing advance has run. Only batches at
    /// or below it may fence and publish.
    released: u64,
    /// The attached persister ([`EpochSys::mode`] adds health).
    driver: Driver,
}

impl PipelineQueue {
    /// No persister, and every epoch up to `released` sealed and
    /// released.
    pub(super) fn new(released: u64) -> Self {
        PipelineQueue {
            batches: VecDeque::new(),
            in_flight: 0,
            sealed: released,
            released,
            driver: Driver::Inline,
        }
    }

    /// The persister step's next move in `mode`, with epoch `clock`
    /// open. `quiescent(e)`: every operation below `e` has ended.
    /// `sealing` turns false once a pipelined step has sealed (one seal
    /// a step); an inline step seals every closed epoch. Inline, only
    /// released epochs count as closed, so it never writes back early.
    pub(super) fn next_action(
        &self,
        mode: Driver,
        clock: u64,
        sealing: bool,
        quiescent: impl FnOnce(u64) -> bool,
    ) -> Action {
        let e = self.sealed + 1;
        let closed = e < clock && (mode != Driver::Inline || e <= self.released);
        if closed && sealing && quiescent(e + 1) {
            return Action::Seal(e);
        }
        match self.batches.front() {
            Some(b) if b.epoch <= self.released => Action::Publish,
            Some(b) if b.written == WriteBack::Pending => Action::WriteBackEarly,
            _ => Action::Idle { straggler: closed },
        }
    }

    /// The structural bound: epoch `next` reuses the arena generation of
    /// `next − BUF_GENS`, so it may open only once that epoch is sealed.
    pub(super) fn may_open(&self, next: u64) -> bool {
        next.checked_sub(BUF_GENS as u64)
            .is_none_or(|reused| reused <= self.sealed)
    }

    /// Releases `epoch` for its frontier publish. Returns whether a
    /// persister thread is now behind: it sealed `epoch` before this
    /// release, so it had the whole epoch for the write-back, yet
    /// `epoch` cannot publish right away. An epoch still unsealed here
    /// (back-to-back advances) has had no time yet, and a persister
    /// further behind meets the structural bound instead.
    pub(super) fn release(&mut self, epoch: u64, mode: Driver) -> bool {
        self.released = epoch;
        let publishable = self.in_flight == 1
            && self
                .batches
                .front()
                .is_some_and(|b| b.epoch <= epoch && matches!(b.written, WriteBack::Done(_)));
        mode == Driver::Thread && self.sealed >= epoch && !publishable
    }

    /// Whether publishing epoch `r` catches a behind persister up.
    pub(super) fn caught_up(&self, r: u64) -> bool {
        r >= self.released
    }

    /// Enqueues the batch of epoch `sealed + 1`. Returns whether it was
    /// sealed early, before its release.
    fn push_sealed(&mut self, batch: EpochBatch) -> bool {
        debug_assert_eq!(batch.epoch, self.sealed + 1, "epochs seal in order");
        self.sealed = batch.epoch;
        self.in_flight += 1;
        self.batches.push_back(batch);
        self.sealed > self.released
    }
}

pub(super) struct Pipeline {
    q: StdMutex<PipelineQueue>,
    /// Wakes the persister: an epoch closed or was released.
    pub(super) batch_ready: Condvar,
    /// Signaled when a batch is sealed or finishes persisting (wakes the
    /// structural stall, admission and `advance_until` waiters).
    pub(super) batch_done: Condvar,
    /// Set by an advance whose [`release`](PipelineQueue::release)
    /// finds the persister thread behind, cleared once the frontier
    /// covers the released epoch: while it is set, operations wait
    /// before they begin (see [`EpochSys::wait_for_persister`]).
    pub(super) behind: AtomicBool,
}

impl Pipeline {
    pub(super) fn new(released: u64) -> Self {
        Pipeline {
            q: StdMutex::new(PipelineQueue::new(released)),
            batch_ready: Condvar::new(),
            batch_done: Condvar::new(),
            behind: AtomicBool::new(false),
        }
    }

    /// Queue lock, immune to poisoning: a fault-plan crash can unwind a
    /// persister thread, and the pipeline state is coarse counters that
    /// stay coherent across an unwind.
    pub(super) fn lock(&self) -> MutexGuard<'_, PipelineQueue> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The pipeline's one condvar wait: sleeps on `cv` until notified or
    /// `timeout` passes. Callers decide again under the returned guard.
    fn wait<'a>(
        &self,
        cv: &Condvar,
        q: MutexGuard<'a, PipelineQueue>,
        timeout: Duration,
    ) -> MutexGuard<'a, PipelineQueue> {
        cv.wait_timeout(q, timeout)
            .unwrap_or_else(|err| err.into_inner())
            .0
    }
}

impl EpochSys {
    /// Sealed batches currently in flight (queued or being written
    /// back). Diagnostic introspection.
    pub fn batches_in_flight(&self) -> usize {
        self.pipeline.lock().in_flight
    }

    /// The driver in effect: the attached one while the system is
    /// healthy and tracking, inline otherwise (a `Degraded` or `Failed`
    /// system persists on the advancing thread). The one place health
    /// meets the driver.
    fn mode(&self, q: &PipelineQueue) -> Driver {
        if self.is_disabled() || self.health.load(Ordering::SeqCst) != HealthState::Ok as u8 {
            Driver::Inline
        } else {
            q.driver
        }
    }

    /// [`PipelineQueue::next_action`] over the live clock and announce
    /// slots.
    fn next_action(&self, q: &PipelineQueue, mode: Driver, sealing: bool) -> Action {
        q.next_action(mode, self.clock.current(), sealing, |e| {
            self.clock.quiescent(e)
        })
    }

    /// Attaches a hand-driven persister: advances only release, and the
    /// caller runs the persister's step with
    /// [`persist_next_batch`](Self::persist_next_batch) (pair every
    /// attach with a [`detach_persister`](Self::detach_persister)).
    /// [`Persister::spawn`](crate::Persister) attaches its thread the
    /// same way. One persister at a time: attaching a second panics and
    /// leaves the first attached.
    pub fn attach_persister(&self) {
        self.attach(Driver::Hand);
    }

    pub(crate) fn attach(&self, driver: Driver) {
        let mut q = self.pipeline.lock();
        assert_eq!(q.driver, Driver::Inline, "EpochSys runs one persister");
        q.driver = driver;
    }

    /// Detaches the persister, if any, and wakes every pipeline waiter
    /// so none blocks on one that no longer exists. Idempotent.
    pub fn detach_persister(&self) {
        self.pipeline.lock().driver = Driver::Inline;
        self.pipeline.behind.store(false, Ordering::Release);
        self.pipeline.batch_ready.notify_all();
        self.pipeline.batch_done.notify_all();
    }

    /// Wakes the persister thread (used by `Persister::stop`).
    pub(crate) fn notify_persister(&self) {
        self.pipeline.batch_ready.notify_all();
    }

    /// Admission control: an operation does not begin while the
    /// persister thread is behind, i.e. it missed an epoch boundary and
    /// an early-sealed, released epoch still waits for its write-back.
    /// Work admitted meanwhile would queue behind the persister, and the
    /// durable frontier would fall further behind the clock with every
    /// epoch. So when clients outrun the persister, they wait, and
    /// throughput is whatever the persister sustains.
    ///
    /// A bound on work, not a correctness condition: the flag is read
    /// Relaxed on the `begin_op` path, and an operation that misses a
    /// fresh `true` merely starts before the persister catches up.
    ///
    /// A call that found the persister behind and waited counts once in
    /// `admission_waits`, and its wall time in `admission_wait_ns`.
    pub(super) fn wait_for_persister(&self) {
        let t0 = Instant::now();
        let mut waited = false;
        let mut q = self.pipeline.lock();
        while self.pipeline.behind.load(Ordering::Acquire) && self.mode(&q) == Driver::Thread {
            waited = true;
            q = self.pipeline.wait(&self.pipeline.batch_done, q, WAIT_SLICE);
        }
        drop(q);
        if waited {
            let stats = self.stats();
            stats.admission_waits.fetch_add(1, Ordering::Relaxed);
            let ns = t0.elapsed().as_nanos() as u64;
            stats.admission_wait_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// The advance's pipeline half: releases `e − 1`, then waits until
    /// `e + 1` may open, holding only the advance lock, which no sealer
    /// takes. A hand-driven pipeline has nobody to wait for, so this
    /// panics there instead of hanging. Returns the mode the advance
    /// goes on in.
    pub(super) fn release_and_wait(&self, e: u64) -> Driver {
        let mut q = self.pipeline.lock();
        let mode = self.mode(&q);
        if q.release(e - 1, mode) {
            self.pipeline.behind.store(true, Ordering::Release);
        }
        loop {
            let mode = self.mode(&q);
            if mode == Driver::Inline || q.may_open(e + 1) {
                return mode;
            }
            let reused = e + 1 - BUF_GENS as u64;
            if mode == Driver::Hand {
                drop(q);
                panic!(
                    "advance to epoch {} would reuse the arena generation of unsealed \
                     epoch {reused}, and no persister thread can seal it: drain a hand-driven \
                     pipeline with persist_next_batch() before advancing further",
                    e + 1
                );
            }
            self.stats().pipeline_stalls.fetch_add(1, Ordering::Relaxed);
            self.obs().event(EventKind::PipelineStall, reused, q.sealed);
            self.pipeline.batch_ready.notify_one();
            q = self.pipeline.wait(&self.pipeline.batch_done, q, WAIT_SLICE);
        }
    }

    /// Blocks the persister thread while its next action is idle: a
    /// written-back batch that waits for its release is not work, and
    /// the releasing advance signals `batch_ready`. Returns the idle
    /// action's `straggler`, in which case it waited `poll`, not `idle`.
    pub(crate) fn wait_for_work(&self, idle: Duration, poll: Duration) -> bool {
        let q = self.pipeline.lock();
        let Action::Idle { straggler } = self.next_action(&q, self.mode(&q), true) else {
            return false;
        };
        let timeout = if straggler { poll } else { idle };
        drop(self.pipeline.wait(&self.pipeline.batch_ready, q, timeout));
        straggler
    }

    /// Seals the oldest unsealed closed epoch `e` into a batch and
    /// enqueues it, once every operation of `e` has ended. Returns
    /// whether a batch was sealed; declines while `e` is still open or
    /// an operation of it is still announced. The persister's step seals
    /// this way too; public so tests can seal by hand.
    ///
    /// Writing `e` back this early is safe because a quiescent closed
    /// epoch's tracked blocks are final: Listing 1 updates a block in
    /// place only within its own epoch, and every later change (a
    /// retire stamp, a replacement copy) is tracked in the later epoch.
    /// To recovery, a line written back before `e` publishes is an
    /// eviction of a line tagged above the frontier.
    pub fn seal_quiescent(&self) -> bool {
        if self.is_disabled() {
            return false;
        }
        let mut q = self.pipeline.lock();
        let e = q.sealed + 1;
        if e >= self.clock.current() || !self.clock.quiescent(e + 1) {
            return false;
        }
        self.seal(&mut q, e);
        true
    }

    /// Seals epoch `e` (`sealed + 1`, closed and quiescent): a move of
    /// every thread's generation-`e` buffers.
    fn seal(&self, q: &mut PipelineQueue, e: u64) {
        // SAFETY: the queue lock serializes sealers, and the caller's
        // scan saw every slot EMPTY or ≥ e+1 after a clock load ≥ e+1 —
        // the post-condition of `wait_for_stragglers(e+1)`, so no
        // operation can register in `e` any more. No owner re-enters
        // generation `e % BUF_GENS` before epoch `e + BUF_GENS` opens,
        // and no advance opens it while `e` is unsealed (`may_open`).
        let (persist, retire) = unsafe { self.arenas.take_gen(e) };
        self.obs().event(
            EventKind::BatchSealed,
            persist.len() as u64,
            retire.len() as u64,
        );
        if q.push_sealed(EpochBatch::seal(e, persist, retire)) {
            self.stats().early_seals.fetch_add(1, Ordering::Relaxed);
        }
        // Wakes an advance waiting for this generation.
        self.pipeline.batch_done.notify_all();
    }

    /// The persister's step, and the only one: seals what the mode
    /// allows (pipelined: the oldest closed epoch; inline: every released
    /// one), then acts on the oldest batch as
    /// `PipelineQueue::next_action` says. Returns whether
    /// it acted on a batch; an unreleased, written-back one makes it
    /// return `false` until its release. Run by the
    /// [`Persister`](crate::Persister) thread and the inline advance;
    /// public so deterministic drivers can run it by hand. The persist
    /// lock keeps publishes in epoch order.
    ///
    /// A device error during an early write-back is not escalated: the
    /// released path retries it with the full budget
    /// (`EpochConfig::persist_retries`), whose exhaustion ratchets the
    /// health ladder (`Ok → Degraded → Failed`). Once
    /// [`HealthState::Failed`] the queue is frozen: the step seals as an
    /// inline advance would and returns `false`.
    pub fn persist_next_batch(&self) -> bool {
        let _pg = self.persist_lock.lock();
        let mut q = self.pipeline.lock();
        let mode = self.mode(&q);
        let mut sealing = true;
        let action = loop {
            match self.next_action(&q, mode, sealing) {
                Action::Seal(e) => {
                    self.seal(&mut q, e);
                    sealing = mode == Driver::Inline;
                }
                action => break action,
            }
        };
        if matches!(action, Action::Idle { .. }) || self.health() == HealthState::Failed {
            return false;
        }
        let mut b = q.batches.pop_front().expect("next_action chose a batch");
        drop(q);
        if action == Action::Publish {
            return self.persist_popped_batch(b);
        }
        // Early: write back only. The advance that releases `b` may run
        // meanwhile; returning `true` makes the caller look again.
        if self.write_back(&mut b).is_err() {
            b.written = WriteBack::EarlyFailed;
        }
        self.pipeline.lock().batches.push_front(b);
        true
    }

    /// [`Action::Publish`]: writes `b` back unless that ran early, then
    /// fences, publishes the frontier record and completes the batch.
    /// Transient [`DeviceError`]s retry on the backoff ladder; every
    /// device op here is idempotent. On budget exhaustion the batch goes
    /// back untouched to the front of the queue and the health ladder
    /// ratchets up with the typed [`PersistError`](crate::PersistError).
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

    /// Builds the normalized batch's flush plan: one [`FlushRange`] per
    /// live tracked block, word-contiguous neighbors coalesced, then the
    /// retirement-record header lines (never merged — headers end
    /// mid-line). Returns the plan and the flushes saved. Coalescing is
    /// digest-neutral: a merge needs the previous range to end on a line
    /// boundary exactly where the next block starts (the guard below),
    /// so the device sees the same per-line clwb schedule.
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
                    // Seeded jitter in [0, spins/2], deterministic for
                    // replay (fixed seed).
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
            if q.caught_up(r) {
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
        let obs = self.obs();
        let hist = &obs.shard().hist;
        hist.batch_persist_ns
            .record((batch.write_back_time + t0.elapsed()).as_nanos() as u64);
        hist.persist_batch_blocks.record(batch.persist.len() as u64);
        obs.event(EventKind::BatchPersisted, r, batch.persist.len() as u64);

        self.pipeline.lock().in_flight -= 1;
        self.pipeline.batch_done.notify_all();
    }

    /// Advances until every epoch `≤ epoch` is durable. With a persister
    /// thread this advances until `epoch` is released and then *waits*
    /// for the thread rather than spinning the clock forward. Otherwise
    /// (synchronous mode, or a hand-driven pipeline) it writes back what
    /// it can itself and advances only when nothing is left, so a
    /// hand-driven pipeline never meets the structural bound here.
    pub fn advance_until(&self, epoch: u64) {
        while !self.is_disabled() && self.persisted_frontier() < epoch {
            // Fail-stop freezes the persist queue: the frontier can
            // never reach `epoch`, so return instead of wedging (the
            // caller observes the shortfall via `persisted_frontier`).
            if self.health() == HealthState::Failed {
                return;
            }
            let q = self.pipeline.lock();
            let thread = self.mode(&q) == Driver::Thread;
            if thread && self.current_epoch() >= epoch + 2 {
                // `epoch` is released: wait for the thread to publish it.
                if self.persisted_frontier() < epoch {
                    drop(self.pipeline.wait(&self.pipeline.batch_done, q, WAIT_SLICE));
                }
                continue;
            }
            drop(q);
            if thread || !self.persist_next_batch() {
                self.advance();
            }
        }
    }

    /// Makes everything completed so far durable (two transitions).
    pub fn flush_all(&self) {
        self.advance_until(self.current_epoch());
    }
}

#[cfg(test)]
mod explore;
#[cfg(test)]
mod tests;
