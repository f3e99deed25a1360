//! The Listing-1 operation protocol, written once for every BDL
//! structure: the `begin_op` → prealloc-`take` → HTM-retry →
//! `abort_op`-on-[`OLD_SEE_NEW`] → post-commit effects bracket
//! ([`run_op`]), and the in-transaction steps on the KV block
//! ([`OpGuard`]).
//!
//! A structure (PHTM-vEB, BDL-Skiplist, BD-Spash, the Listing-1 table)
//! supplies only its own search and link. The §5 invariants are kept
//! here:
//!
//! 1. the preallocated block's epoch is claimed **inside** the
//!    transaction, before the linearization point
//!    ([`OpGuard::claim`], Listing 1 line 17);
//! 2. an existing block is updated in place only from its own epoch,
//!    replaced when older, and never touched when newer
//!    ([`OpGuard::update`], [`OpGuard::check_remove`], lines 20–29);
//! 3. persistence ([`EpochSys::p_track`]) and reclamation
//!    ([`EpochSys::p_retire`]) happen **strictly after commit**
//!    (lines 31–38, the `op_done` block, [`Upsert::effects`]);
//! 4. a preallocated block is never reused while carrying a stale
//!    epoch (the [`PreallocSlots`] invariant).
//!
//! The structure's closure *describes* its post-commit obligations as a
//! [`CommitEffects`] value; [`run_op`] applies them exactly once, in a
//! fixed order, after the transaction has committed. Failure paths
//! (explicit [`OLD_SEE_NEW`] aborts, panics unwinding through the
//! bracket) are funneled through [`OpGuard`]'s drop glue, so an
//! interrupted operation always returns its block to the slot (epoch
//! reset) and clears its epoch announcement — exactly the
//! `retry_regist` path of Listing 1 lines 39–41.

use crate::esys::{EpochSys, PreallocSlots, OLD_SEE_NEW};
use crate::kv::{KV_KEY, KV_VALUE};
use crate::obs::{EventKind, ObsShard, ABORT_RESTART, ABORT_UNWIND};
use htm_sim::{MemAccess, RunError, TxResult};
use nvm_sim::{CrashTriggered, NvmAddr};
use persist_alloc::{Header, CLASS_WORDS};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// What one attempt of an operation body decided.
pub enum OpStep<'a, R> {
    /// The transaction committed: apply these effects and return.
    Commit(CommitEffects<R>),
    /// Abort the registration and retry from `begin_op`, optionally
    /// running a fix-up in between: after the registration is cleanly
    /// aborted, before the retry (e.g. BD-Spash splitting a full
    /// segment — splitting under an open registration would deadlock
    /// the epoch advance the split may wait on).
    Restart(Option<Box<dyn FnOnce() + 'a>>),
}

impl<'a, R> OpStep<'a, R> {
    /// The attempt committed with `effects`.
    pub fn commit(effects: CommitEffects<R>) -> Result<Self, RunError> {
        Ok(OpStep::Commit(effects))
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
    /// path) instead of tracking it — the §4.3 large-cold policy. Drops
    /// a pending [`track`](Self::track) of the same block. Recovery
    /// visibility is still gated by the epoch frontier.
    pub fn persist_now(mut self, blk: NvmAddr) -> Self {
        if self.track == Some(blk) {
            self.track = None;
        }
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

/// What [`OpGuard::update`] did with a key's existing block, or that
/// the structure linked the operation's block for an absent key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Upsert {
    /// The key was absent: the operation's block was linked.
    Inserted,
    /// The block is from the operation's epoch: its value word was
    /// rewritten in place.
    InPlace(NvmAddr),
    /// The block is from an older epoch: the operation's block replaced
    /// it, and the old one retires after commit.
    Replaced(NvmAddr),
}

impl Upsert {
    /// The `op_done` block for this outcome (Listing 1 lines 31–38),
    /// with `blk` the operation's preallocated block: a linked block is
    /// tracked (and a replaced one retired), and an in-place update
    /// keeps `blk` for the thread's next operation. The result is
    /// whether the key was newly inserted.
    #[inline]
    pub fn effects(self, blk: NvmAddr) -> CommitEffects<bool> {
        match self {
            Upsert::Inserted => CommitEffects::of(true).track(blk),
            Upsert::InPlace(_) => CommitEffects::of(false).keep_prealloc(),
            Upsert::Replaced(old) => CommitEffects::of(false).retire(old).track(blk),
        }
    }
}

/// RAII bracket around one registered operation attempt, and the
/// in-transaction half of Listing 1 on its KV block.
///
/// Created by [`run_op`]: registers the operation
/// ([`EpochSys::begin_op`]) and takes the thread's preallocated block.
/// Until `run_op` commits or aborts the attempt, dropping the guard —
/// including a panic or injected-crash unwind mid-operation — returns
/// the block to its slot and clears the epoch announcement, so an
/// interrupted operation can never stall a future epoch advance or leak
/// a stale-epoch block.
pub struct OpGuard<'a> {
    esys: &'a EpochSys,
    /// The thread's observability shard, looked up once per attempt.
    obs: &'a ObsShard,
    epoch: u64,
    prealloc: Option<(&'a PreallocSlots, NvmAddr)>,
    armed: bool,
    /// Flight-recorder tag of an abort; the unwind default distinguishes
    /// an unwind from deliberate restarts.
    abort_tag: Cell<u64>,
    /// Restart count reported with the commit event (set by `run_op`).
    restarts: Cell<u64>,
}

impl<'a> OpGuard<'a> {
    /// Registers an operation in the current epoch and, when `prealloc`
    /// is given, takes the thread's spare block (Listing 1 lines 7–12).
    /// Its `OpBegin` event is stamped `t_ns`, a clock reading `run_op`
    /// took just before (and measures the op's latency from).
    fn begin(esys: &'a EpochSys, prealloc: Option<&'a PreallocSlots>, t_ns: u64) -> OpGuard<'a> {
        let epoch = esys.begin_op();
        let obs = esys.obs().shard();
        obs.ring.record_at(t_ns, EventKind::OpBegin, epoch, 0);
        let prealloc = prealloc.map(|slots| (slots, slots.take(esys)));
        OpGuard {
            esys,
            obs,
            epoch,
            prealloc,
            armed: true,
            abort_tag: Cell::new(ABORT_UNWIND),
            restarts: Cell::new(0),
        }
    }

    /// The epoch this attempt registered in (`op_epoch`).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The preallocated block (`new_blk`), epoch reset to invalid.
    ///
    /// # Panics
    ///
    /// Panics if the operation was started without a [`PreallocSlots`].
    #[inline]
    pub fn blk(&self) -> NvmAddr {
        self.prealloc
            .expect("operation was started without a prealloc slot")
            .1
    }

    /// Writes the still-private block: `key`, `value` and the
    /// structure's recovery `tag` (Listing 1 lines 13–15). Plain stores:
    /// nothing can reach the block before the transaction links it.
    #[inline]
    pub fn fill(&self, key: u64, value: u64, tag: u64) {
        let (es, blk) = (self.esys, self.blk());
        es.payload_word(blk, KV_KEY).store(key, Ordering::Release);
        es.payload_word(blk, KV_VALUE)
            .store(value, Ordering::Release);
        Header::set_tag(es.heap(), blk, tag);
    }

    /// Claims the block for this operation's epoch, inside the
    /// transaction and before its linearization point (Listing 1
    /// line 17), so that concurrent operations can classify it.
    #[inline]
    pub fn claim(&self, m: &mut dyn MemAccess<'a>) -> TxResult<()> {
        self.esys.set_epoch(m, self.blk(), self.epoch)
    }

    /// Writes `value` to the key whose block is `old` (Listing 1
    /// lines 20–29): in place on [`KV_VALUE`] if `old` is from this
    /// operation's epoch; through `replace`, which links the operation's
    /// block in its stead, if `old` is older; and an [`OLD_SEE_NEW`]
    /// abort if `old` is newer — BDL forbids an old operation
    /// overwriting newer state.
    pub fn update(
        &self,
        m: &mut dyn MemAccess<'a>,
        old: NvmAddr,
        value: u64,
        replace: impl FnOnce(&mut dyn MemAccess<'a>) -> TxResult<()>,
    ) -> TxResult<Upsert> {
        let be = self.esys.get_epoch(m, old)?;
        if be > self.epoch {
            Err(m.abort(OLD_SEE_NEW))
        } else if be < self.epoch {
            replace(m)?;
            Ok(Upsert::Replaced(old))
        } else {
            self.esys.p_set(m, old, KV_VALUE, value)?;
            Ok(Upsert::InPlace(old))
        }
    }

    /// The remove guard: aborts with [`OLD_SEE_NEW`] if `blk`, the block
    /// about to be unlinked, is from a newer epoch. Call before any
    /// write.
    #[inline]
    pub fn check_remove(&self, m: &mut dyn MemAccess<'a>, blk: NvmAddr) -> TxResult<()> {
        if self.esys.get_epoch(m, blk)? > self.epoch {
            return Err(m.abort(OLD_SEE_NEW));
        }
        Ok(())
    }

    /// Aborts the attempt (the drop glue), flight-recorded with `tag`.
    fn abort(self, tag: u64) {
        self.abort_tag.set(tag);
    }

    /// Commits the attempt: records its latency from `t0`, the clock
    /// reading the op began at, applies `effects` in the canonical
    /// post-commit order and ends the operation. Returns the body's
    /// result.
    fn finish<R>(mut self, effects: CommitEffects<R>, t0: u64) -> R {
        self.armed = false;
        // One clock reading stamps the OpCommit flight event, the
        // durability-lag span and the latency sample; the span is folded
        // into the lag histogram when this epoch's batch publishes the
        // frontier.
        self.esys.obs().record_commit(
            self.obs,
            self.epoch,
            self.restarts.get(),
            self.esys.persisted_frontier(),
            t0,
        );
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
    // Aborts the attempt unless `finish` committed it: the prealloc block
    // goes back to its slot (epoch reset) and the registration is
    // cleared, refunding any buffered tracking (Listing 1 lines 39–41).
    // An unwind mid-operation — e.g. an injected crash — takes this path
    // too, so it leaves no stale announcement and no stale-epoch block.
    fn drop(&mut self) {
        if self.armed {
            let t_ns = self.esys.obs().now_ns();
            self.obs
                .ring
                .record_at(t_ns, EventKind::OpAbort, self.epoch, self.abort_tag.get());
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
/// The `body` runs its own hardware transaction(s), calling the
/// guard's [`fill`](OpGuard::fill), [`claim`](OpGuard::claim),
/// [`update`](OpGuard::update) and [`check_remove`](OpGuard::check_remove)
/// around its search and link, and returns:
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
        let op = OpGuard::begin(esys, prealloc, t_begin);
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
            Ok(OpStep::Commit(effects)) => return op.finish(effects, t0),
            Ok(OpStep::Restart(fixup)) => {
                op.abort(ABORT_RESTART);
                if let Some(f) = fixup {
                    f();
                }
            }
            Err(RunError(code)) => {
                debug_assert_eq!(
                    code, OLD_SEE_NEW,
                    "unhandled explicit abort code {code:#x} escaped an operation body"
                );
                op.abort(1 + code as u64);
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
    use crate::kv::KV_WORDS;
    use htm_sim::{AbortCause, FallbackLock, Htm, HtmConfig};
    use nvm_sim::{NvmConfig, NvmHeap};
    use persist_alloc::HDR_EPOCH;
    use std::sync::atomic::AtomicU64;
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
            op.fill(7, 77, 0);
            htm.run(&lock, |m| op.claim(m))?;
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

    /// Listing 1 lines 20–29 through [`OpGuard::update`]: in place for
    /// the op's own epoch, replace for an older block, `OLD_SEE_NEW`
    /// for a newer one.
    #[test]
    fn update_matches_listing1() {
        let (esys, htm) = setup();
        let heap = esys.heap();
        let op = OpGuard::begin(&esys, None, 0);
        let e = op.epoch();
        let block = |epoch: u64| {
            let blk = esys.p_new(KV_WORDS);
            heap.word(payload(blk, KV_VALUE))
                .store(1, Ordering::Relaxed);
            Header::set_epoch(heap, blk, epoch);
            blk
        };
        let value = |blk: NvmAddr| heap.word(payload(blk, KV_VALUE)).load(Ordering::Relaxed);
        let replaced = Cell::new(0);
        let update = |old: NvmAddr| {
            htm.attempt(|t| {
                op.update(t, old, 2, |_| {
                    replaced.set(replaced.get() + 1);
                    Ok(())
                })
            })
        };

        // Own epoch: the value word is rewritten in place.
        let own = block(e);
        assert_eq!(update(own), Ok(Upsert::InPlace(own)));
        assert_eq!((value(own), replaced.get()), (2, 0));

        // Older: the structure's replace runs; the old block is untouched.
        let older = block(e - 1);
        assert_eq!(update(older), Ok(Upsert::Replaced(older)));
        assert_eq!((value(older), replaced.get()), (1, 1));

        // Newer: OldSeeNewException, and nothing is written.
        let newer = block(e + 1);
        assert_eq!(update(newer), Err(AbortCause::Explicit(OLD_SEE_NEW)));
        assert_eq!((value(newer), replaced.get()), (1, 1));
        op.abort(ABORT_RESTART);
    }

    /// One op per [`Upsert`] outcome on a one-key map, with the
    /// effects [`Upsert::effects`] gives it.
    #[test]
    fn upsert_effects_follow_op_done() {
        let (esys, htm) = setup();
        let (slot, lock, slots) = (
            AtomicU64::new(0),
            FallbackLock::new(),
            PreallocSlots::new(KV_WORDS),
        );
        let upsert = |value: u64| {
            let seen = Cell::new(None);
            run_op(&esys, Some(&slots), |op| {
                let blk = op.blk();
                op.fill(7, value, 0);
                let up = htm.run(&lock, |m| {
                    op.claim(m)?;
                    match m.load(&slot)? {
                        0 => m.store(&slot, blk.0).map(|()| Upsert::Inserted),
                        old => op.update(m, NvmAddr(old), value, |m| m.store(&slot, blk.0)),
                    }
                })?;
                seen.set(Some((up, blk)));
                OpStep::commit(up.effects(blk))
            });
            seen.get().expect("the op committed")
        };
        let durable = |blk: NvmAddr| {
            let img = esys.heap().crash();
            (
                img.word(blk.offset(HDR_EPOCH)),
                img.word(payload(blk, KV_VALUE)),
            )
        };

        // Inserted, then InPlace in the same epoch: the tracked block
        // is durable with the updated value after two advances.
        let e = esys.current_epoch();
        let (up, first) = upsert(1);
        assert_eq!(up, Upsert::Inserted);
        let (up, spare) = upsert(2);
        assert_eq!(up, Upsert::InPlace(first));
        esys.advance();
        esys.advance();
        assert_eq!(durable(first), (e, 2));

        // Replaced: the block the in-place op left is the next op's,
        // the new block becomes durable, and the old one is reclaimed
        // once its retire epoch publishes.
        let e = esys.current_epoch();
        let (up, second) = upsert(3);
        assert_eq!((up, second), (Upsert::Replaced(first), spare));
        assert_eq!(esys.stats().snapshot().blocks_reclaimed, 0);
        esys.advance();
        esys.advance();
        assert_eq!(durable(second), (e, 3));
        assert_eq!(esys.stats().snapshot().blocks_reclaimed, 1);

        // The §4.3 eager persist replaces the tracking of its block.
        let fx = Upsert::Inserted.effects(second).persist_now(second);
        assert_eq!((fx.track, fx.persist_now), (None, Some(second)));
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
                return Ok(OpStep::Restart(None));
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
