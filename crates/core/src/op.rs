//! The shared Listing-1 operation lifecycle: one place that owns the
//! `begin_op` → prealloc-`take` → HTM-retry → `abort_op`-on-
//! [`OLD_SEE_NEW`] → post-commit effects choreography every BDL
//! structure follows.
//!
//! Before this module, each structure (PHTM-vEB, BDL-Skiplist,
//! BD-Spash, the Listing-1 table) hand-rolled the identical bracket and
//! had to get three §5 invariants right independently:
//!
//! 1. the preallocated block's epoch is claimed **inside** the
//!    transaction, before the linearization point (Listing 1 line 17);
//! 2. persistence ([`EpochSys::p_track`]) and reclamation
//!    ([`EpochSys::p_retire`]) happen **strictly after commit**
//!    (Listing 1 lines 31–38, the `op_done` block);
//! 3. a preallocated block is never reused while carrying a stale
//!    epoch (the [`PreallocSlots`] invariant).
//!
//! [`run_op`] enforces all three: the structure's closure contains only
//! structure logic (search, link, classify) and *describes* its
//! post-commit obligations as a [`CommitEffects`] value; the combinator
//! applies them exactly once, in a fixed order, after the transaction
//! has committed. Failure paths (explicit [`OLD_SEE_NEW`] aborts,
//! panics unwinding through the bracket) are funneled through
//! [`OpGuard`]'s drop glue, so an interrupted operation always returns
//! its block to the slot (epoch reset) and clears its epoch
//! announcement — exactly the `retry_regist` path of Listing 1 lines
//! 39–41.

use crate::esys::{EpochSys, PreallocSlots, OLD_SEE_NEW};
use crate::obs::{EventKind, ABORT_RESTART, ABORT_UNWIND};
use htm_sim::RunError;
use nvm_sim::{CrashTriggered, NvmAddr};
use persist_alloc::{Header, CLASS_WORDS};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A deferred fix-up an operation wants to run *after* its registration
/// is cleanly aborted but *before* the retry (e.g. BD-Spash splitting a
/// full segment — splitting under an open registration would deadlock
/// the epoch advance the split may wait on).
pub type RestartFn<'a> = Box<dyn FnOnce() + 'a>;

/// What one attempt of an operation body decided.
pub enum OpStep<'a, R> {
    /// The transaction committed: apply these effects and return.
    Commit(CommitEffects<R>),
    /// Abort the registration and retry from `begin_op`, optionally
    /// running a fix-up (see [`RestartFn`]) in between.
    Restart(Option<RestartFn<'a>>),
}

impl<'a, R> OpStep<'a, R> {
    /// The attempt committed with `effects`.
    pub fn commit(effects: CommitEffects<R>) -> Result<Self, RunError> {
        Ok(OpStep::Commit(effects))
    }

    /// Retry the operation under a fresh registration.
    pub fn restart() -> Result<Self, RunError> {
        Ok(OpStep::Restart(None))
    }

    /// Retry after running `fixup` outside the operation bracket.
    pub fn restart_after(fixup: impl FnOnce() + 'a) -> Result<Self, RunError> {
        Ok(OpStep::Restart(Some(Box::new(fixup))))
    }
}

/// The post-commit obligations of one committed attempt (Listing 1's
/// `op_done` block, lines 31–38), applied by [`run_op`] in a fixed
/// order: retire → persist → return the unused prealloc → `end_op`.
#[must_use]
pub struct CommitEffects<R> {
    result: R,
    retire: Option<NvmAddr>,
    track: Option<NvmAddr>,
    persist_now: Option<NvmAddr>,
    keep_prealloc: bool,
}

impl<R> CommitEffects<R> {
    /// Effects that only return `result` (a read-like or no-op commit).
    pub fn of(result: R) -> Self {
        CommitEffects {
            result,
            retire: None,
            track: None,
            persist_now: None,
            keep_prealloc: false,
        }
    }

    /// Retire `blk` (the replaced/removed block) after commit — its
    /// reclamation becomes durable with the operation's epoch.
    pub fn retire(mut self, blk: NvmAddr) -> Self {
        self.retire = Some(blk);
        self
    }

    /// Track `blk` in the operation's epoch buffer: the background
    /// flusher persists it when the epoch closes.
    pub fn track(mut self, blk: NvmAddr) -> Self {
        self.track = Some(blk);
        self
    }

    /// Persist `blk` eagerly (write-back + fence, off the transactional
    /// path) instead of tracking it — the §4.3 large-cold policy.
    /// Recovery visibility is still gated by the epoch frontier.
    pub fn persist_now(mut self, blk: NvmAddr) -> Self {
        self.persist_now = Some(blk);
        self
    }

    /// The preallocated block went unused (e.g. an in-place update):
    /// stash it, epoch reset, for the thread's next operation.
    pub fn keep_prealloc(mut self) -> Self {
        self.keep_prealloc = true;
        self
    }
}

/// RAII bracket around one registered operation attempt.
///
/// Created by [`run_op`] (or [`OpGuard::begin`] for hand-rolled
/// drivers): registers the operation ([`EpochSys::begin_op`]) and takes
/// the thread's preallocated block. Until defused by
/// [`OpGuard::finish`] or [`OpGuard::abort`], dropping the guard —
/// including a panic or injected-crash unwind mid-operation — returns
/// the block to its slot and clears the epoch announcement, so an
/// interrupted operation can never stall a future epoch advance or leak
/// a stale-epoch block.
pub struct OpGuard<'a> {
    esys: &'a EpochSys,
    epoch: u64,
    prealloc: Option<(&'a PreallocSlots, NvmAddr)>,
    armed: bool,
    /// Flight-recorder tag for [`OpGuard::abort`]; the unwind default
    /// distinguishes drop-glue aborts from deliberate restarts.
    abort_tag: Cell<u64>,
    /// Restart count reported with the commit event (set by `run_op`).
    restarts: Cell<u64>,
}

impl<'a> OpGuard<'a> {
    /// Registers an operation in the current epoch and, when `prealloc`
    /// is given, takes the thread's spare block (Listing 1 lines 7–12).
    pub fn begin(esys: &'a EpochSys, prealloc: Option<&'a PreallocSlots>) -> OpGuard<'a> {
        Self::begin_at(esys, prealloc, esys.obs().now_ns())
    }

    /// [`OpGuard::begin`] with its `OpBegin` event stamped `t_ns`, a
    /// clock reading taken just before (by `run_op`, which also measures
    /// the op's latency from it).
    fn begin_at(esys: &'a EpochSys, prealloc: Option<&'a PreallocSlots>, t_ns: u64) -> OpGuard<'a> {
        let epoch = esys.begin_op();
        esys.obs().event_at(t_ns, EventKind::OpBegin, epoch, 0);
        let prealloc = prealloc.map(|slots| (slots, slots.take(esys)));
        OpGuard {
            esys,
            epoch,
            prealloc,
            armed: true,
            abort_tag: Cell::new(ABORT_UNWIND),
            restarts: Cell::new(0),
        }
    }

    /// The epoch this attempt registered in (`op_epoch`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The preallocated block (`new_blk`), epoch reset to invalid.
    ///
    /// # Panics
    ///
    /// Panics if the operation was started without a [`PreallocSlots`].
    pub fn blk(&self) -> NvmAddr {
        self.prealloc
            .expect("operation was started without a prealloc slot")
            .1
    }

    /// The epoch system this operation is registered with.
    pub fn esys(&self) -> &'a EpochSys {
        self.esys
    }

    /// Aborts the attempt: the prealloc block goes back to its slot
    /// (epoch reset) and the registration is cleared, refunding any
    /// buffered tracking (Listing 1 lines 39–41).
    pub fn abort(mut self) {
        self.armed = false;
        self.esys
            .obs()
            .event(EventKind::OpAbort, self.epoch, self.abort_tag.get());
        if let Some((slots, blk)) = self.prealloc {
            slots.put_back(self.esys, blk);
        }
        self.esys.abort_op();
    }

    /// Commits the attempt: applies `effects` in the canonical
    /// post-commit order and ends the operation. Returns the body's
    /// result.
    pub fn finish<R>(self, effects: CommitEffects<R>) -> R {
        self.finish_from(effects, None)
    }

    /// [`OpGuard::finish`]; with `t0`, the clock reading the op began at,
    /// also records the op's latency and restart count (`run_op`).
    fn finish_from<R>(mut self, effects: CommitEffects<R>, t0: Option<u64>) -> R {
        self.armed = false;
        // One clock reading stamps the OpCommit flight event, the
        // durability-lag span and the latency sample; the span is folded
        // into the lag histogram when this epoch's batch publishes the
        // frontier.
        let obs = self.esys.obs();
        let t_ns = obs.commit_event(
            self.epoch,
            self.restarts.get(),
            self.esys.persisted_frontier(),
        );
        if let Some(t0) = t0 {
            obs.op_latency_ns.record(t_ns - t0);
            obs.op_restarts.record(self.restarts.get());
        }
        if let Some(old) = effects.retire {
            self.esys.p_retire(old);
        }
        if let Some(blk) = effects.persist_now {
            // Eager write-back (§4.3): data reaches media immediately
            // and the epoch flusher skips it entirely.
            let heap = self.esys.heap();
            let class = Header::state(heap, blk).map(|(_, c)| c).unwrap_or(0);
            heap.persist_range(blk, CLASS_WORDS[class]);
            heap.fence();
        }
        if let Some(blk) = effects.track {
            self.esys.p_track(blk);
        }
        if effects.keep_prealloc {
            let (slots, blk) = self
                .prealloc
                .expect("keep_prealloc on an operation without a prealloc slot");
            slots.put_back(self.esys, blk);
        }
        self.esys.end_op();
        effects.result
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        // Unwind path only (finish/abort defuse the guard): behave like
        // an abort so a panic mid-operation — e.g. an injected crash —
        // leaves no stale announcement and no stale-epoch block.
        if self.armed {
            self.esys
                .obs()
                .event(EventKind::OpAbort, self.epoch, ABORT_UNWIND);
            if let Some((slots, blk)) = self.prealloc {
                slots.put_back(self.esys, blk);
            }
            self.esys.abort_op();
        }
    }
}

/// Runs one BDL operation to completion: registration, preallocation,
/// the structure's `body`, and the post-commit effects — retrying on
/// [`OLD_SEE_NEW`] with a fresh registration each time, exactly the
/// Listing 1 protocol.
///
/// The `body` runs its own hardware transaction(s) against
/// [`OpGuard::epoch`] and [`OpGuard::blk`] and returns:
///
/// * `Ok(OpStep::Commit(effects))` — the transaction committed; the
///   combinator applies `effects` (retire → persist → put-back →
///   `end_op`) and returns the result.
/// * `Ok(OpStep::Restart(fixup))` — abort the registration cleanly,
///   run `fixup` (if any) outside the bracket, and retry.
/// * `Err(RunError(OLD_SEE_NEW))` — the transaction saw state from a
///   newer epoch and aborted explicitly; retry in a newer epoch.
///
/// Any other explicit abort code is a protocol bug: handle it in the
/// body (as the Listing-1 table does for its capacity abort, turning it
/// into a `Restart` whose fixup panics).
pub fn run_op<'a, R>(
    esys: &'a EpochSys,
    prealloc: Option<&'a PreallocSlots>,
    mut body: impl FnMut(&OpGuard<'a>) -> Result<OpStep<'a, R>, RunError>,
) -> R {
    // Two clock readings per committed op: this one stamps the first
    // attempt's OpBegin, the commit's stamps OpCommit, and the op's
    // latency is their difference. A restarted attempt stamps its own
    // OpBegin; the latency still counts from the first.
    let t0 = esys.obs().now_ns();
    let mut t_begin = t0;
    let mut restarts = 0u64;
    loop {
        let op = OpGuard::begin_at(esys, prealloc, t_begin);
        op.restarts.set(restarts);
        // A panicking body must not take the whole process down with an
        // HTM transaction open and an epoch announced: catch it, let the
        // guard's drop glue abort the registration (returning the block,
        // clearing the announcement — other threads keep advancing), and
        // resurface the panic to the caller. The HTM layer's own exit
        // guard unwinds `TXN_DEPTH`, so a panic inside a transaction
        // aborts it rather than leaking speculative state. Injected
        // crash points are the fault sweep's machine-death model, not an
        // op failure — those pass through without the event.
        let step = match catch_unwind(AssertUnwindSafe(|| body(&op))) {
            Ok(step) => step,
            Err(payload) => {
                if payload.downcast_ref::<CrashTriggered>().is_none() {
                    esys.obs().event(EventKind::OpPanicked, op.epoch, restarts);
                }
                drop(op);
                resume_unwind(payload);
            }
        };
        match step {
            Ok(OpStep::Commit(effects)) => return op.finish_from(effects, Some(t0)),
            Ok(OpStep::Restart(fixup)) => {
                op.abort_tag.set(ABORT_RESTART);
                op.abort();
                if let Some(f) = fixup {
                    f();
                }
            }
            Err(RunError(code)) => {
                debug_assert_eq!(
                    code, OLD_SEE_NEW,
                    "unhandled explicit abort code {code:#x} escaped an operation body"
                );
                op.abort_tag.set(1 + code as u64);
                op.abort();
            }
        }
        restarts += 1;
        t_begin = esys.obs().now_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EpochConfig;
    use crate::esys::payload;
    use htm_sim::{FallbackLock, Htm, HtmConfig, MemAccess};
    use nvm_sim::{NvmConfig, NvmHeap};
    use std::sync::Arc;

    fn setup() -> (Arc<EpochSys>, Arc<Htm>) {
        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
        let esys = EpochSys::format(heap, EpochConfig::manual());
        (esys, Arc::new(Htm::new(HtmConfig::for_tests())))
    }

    #[test]
    fn commit_applies_track_and_survives_crash() {
        let (esys, htm) = setup();
        let slots = PreallocSlots::new(1);
        let lock = FallbackLock::new();
        let blk = run_op(&esys, Some(&slots), |op| {
            let blk = op.blk();
            esys.heap()
                .word(payload(blk, 0))
                .store(77, std::sync::atomic::Ordering::Release);
            let epoch = op.epoch();
            htm.run(&lock, |m: &mut dyn MemAccess| {
                esys.set_epoch(m, blk, epoch)?;
                Ok(())
            })?;
            OpStep::commit(CommitEffects::of(blk).track(blk))
        });
        esys.advance();
        esys.advance();
        let img = esys.heap().crash();
        let heap2 = Arc::new(NvmHeap::from_image(img));
        let (_esys2, live) = EpochSys::recover(Arc::clone(&heap2), EpochConfig::manual(), 1);
        assert!(live.iter().any(|b| b.addr == blk), "tracked block lost");
    }

    #[test]
    fn restart_runs_fixup_between_registrations() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        let mut attempts = 0;
        let fixups = std::cell::Cell::new(0);
        let r = run_op(&esys, Some(&slots), |_op| {
            attempts += 1;
            if attempts < 3 {
                // The fixup must observe a closed registration.
                OpStep::restart_after(|| {
                    assert_eq!(esys.announced_epoch(), crate::esys::EMPTY_EPOCH);
                    fixups.set(fixups.get() + 1);
                })
            } else {
                OpStep::commit(CommitEffects::of(attempts).keep_prealloc())
            }
        });
        assert_eq!(r, 3);
        assert_eq!(fixups.get(), 2);
        // Ended cleanly: the next advance must not stall.
        esys.advance();
    }

    #[test]
    fn old_see_new_retries_with_fresh_epoch() {
        let (esys, _htm) = setup();
        let mut attempts = 0;
        let epochs = std::cell::RefCell::new(Vec::new());
        run_op(&esys, None, |op| {
            epochs.borrow_mut().push(op.epoch());
            attempts += 1;
            if attempts == 1 {
                esys.advance(); // next registration lands in a newer epoch
                return Err(RunError(OLD_SEE_NEW));
            }
            OpStep::commit(CommitEffects::of(()))
        });
        let epochs = epochs.into_inner();
        assert_eq!(epochs.len(), 2);
        assert!(epochs[1] > epochs[0], "retry must re-register, not reuse");
    }

    /// The `OpBegin` and `OpCommit` stamps of the flight dump, in order.
    fn op_stamps(esys: &EpochSys) -> (Vec<u64>, Vec<u64>) {
        let dump = esys.obs().dump(usize::MAX);
        let stamps = |kind| {
            dump.iter()
                .filter(|ev| ev.kind == kind)
                .map(|ev| ev.t_ns)
                .collect::<Vec<_>>()
        };
        (stamps(EventKind::OpBegin), stamps(EventKind::OpCommit))
    }

    /// A committed op reads the clock once at each boundary: its latency
    /// sample is exactly the distance between its two flight stamps.
    #[test]
    fn latency_is_the_distance_between_the_op_stamps() {
        let (esys, _htm) = setup();
        run_op(&esys, None, |_op| OpStep::commit(CommitEffects::of(())));
        let (begins, commits) = op_stamps(&esys);
        assert_eq!((begins.len(), commits.len()), (1, 1));
        let lat = esys.obs().op_latency_ns().snapshot();
        assert_eq!((lat.count, lat.sum), (1, commits[0] - begins[0]));
    }

    /// A restart stamps its own `OpBegin`, and the latency still counts
    /// from the first attempt's.
    #[test]
    fn latency_counts_from_the_first_attempt() {
        let (esys, _htm) = setup();
        let mut attempts = 0;
        run_op(&esys, None, |_op| {
            attempts += 1;
            if attempts == 1 {
                return OpStep::restart();
            }
            OpStep::commit(CommitEffects::of(()))
        });
        let (begins, commits) = op_stamps(&esys);
        assert_eq!((begins.len(), commits.len()), (2, 1));
        assert!(begins[0] <= begins[1]);
        let lat = esys.obs().op_latency_ns().snapshot();
        assert_eq!((lat.count, lat.sum), (1, commits[0] - begins[0]));
    }

    #[test]
    fn panic_unwind_releases_registration_and_block() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_op(&esys, Some(&slots), |_op| -> Result<OpStep<()>, RunError> {
                panic!("mid-op crash")
            })
        }));
        assert!(r.is_err());
        // The guard's drop glue must have cleared the announcement (an
        // advance would otherwise deadlock) and re-stashed the block.
        assert_eq!(esys.announced_epoch(), crate::esys::EMPTY_EPOCH);
        esys.advance();
        let reused = run_op(&esys, Some(&slots), |op| {
            OpStep::commit(CommitEffects::of(op.blk()).keep_prealloc())
        });
        assert_eq!(
            Header::epoch(esys.heap(), reused),
            persist_alloc::INVALID_EPOCH,
            "re-stashed block must carry an invalid epoch"
        );
    }

    #[test]
    fn op_panic_is_recorded_and_leaves_system_live() {
        let (esys, _htm) = setup();
        let slots = PreallocSlots::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_op(&esys, Some(&slots), |_op| -> Result<OpStep<()>, RunError> {
                panic!("op body bug")
            })
        }));
        // The panic resurfaces to the caller (not swallowed) ...
        let payload = r.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("op body bug"),
            "original payload must survive the catch/rethrow"
        );
        // ... the flight recorder knows about it ...
        assert!(
            esys.obs()
                .dump(usize::MAX)
                .iter()
                .any(|ev| ev.kind == EventKind::OpPanicked),
            "OpPanicked event must be recorded"
        );
        // ... and the epoch machinery is fully live afterwards: no
        // stale announcement, advances move the clock and frontier.
        assert_eq!(esys.announced_epoch(), crate::esys::EMPTY_EPOCH);
        let e0 = esys.current_epoch();
        esys.advance();
        esys.advance();
        assert_eq!(esys.current_epoch(), e0 + 2);
        assert_eq!(esys.persisted_frontier(), e0);
    }
}
