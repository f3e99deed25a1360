//! Deadline watchdog: a background sibling of
//! [`EpochTicker`](crate::EpochTicker) and [`Persister`](crate::Persister)
//! that samples epoch-system progress every
//! [`EpochConfig::watchdog_period`](crate::EpochConfig) and fires when two
//! consecutive samples show none.
//!
//! Three stall shapes are detected, each mapping to a liveness hazard of
//! the buffered-durability runtime:
//!
//! * **Stalled advance** ([`STALL_ADVANCE`]) — the clock did not move
//!   while the buffered set sits above its backpressure bound: the
//!   ticker died or advances keep failing, and dirty state is piling up.
//! * **Hung straggler** ([`STALL_STRAGGLER`]) — a thread has been
//!   announced in an epoch behind the clock for a whole period:
//!   [`EpochSys::advance`](crate::EpochSys::advance) is (or will be)
//!   spinning in its quiesce loop on an operation that never ends.
//! * **Wedged persister** ([`STALL_PERSISTER`]) — released batches
//!   stayed in flight while the durable frontier did not move: the
//!   write-back worker is stuck and durability is no longer advancing.
//!   A batch the persister sealed early is in flight for most of every
//!   epoch while it waits for its release; it does not count.
//! * **Wedged pool fan-out** ([`STALL_POOL`]) — a batch's chunk fan-out
//!   kept pending chunks across the whole period with no frontier
//!   progress: a chunk worker (or the coordinator's join) is stuck
//!   inside one batch, a finer-grained shape than the whole-persister
//!   stall and reported first so the log points at the pool.
//!
//! Each firing dumps the flight recorder to stderr, bumps the
//! `watchdog_fires` counter and emits a
//! [`WatchdogFired`](crate::obs::EventKind::WatchdogFired) event;
//! *consecutive* firings escalate along the configured
//! [`WatchdogPolicy`] ceiling: log only, then degrade to synchronous
//! persistence, then fail-stop.

use crate::error::HealthState;
use crate::esys::{EpochSys, EMPTY_EPOCH};
use crate::obs::EventKind;
use crate::worker::{StopFlag, Worker};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Stall reason code carried in a `WatchdogFired` event's `a` field.
pub const STALL_ADVANCE: u64 = 0;
/// See [`STALL_ADVANCE`].
pub const STALL_STRAGGLER: u64 = 1;
/// See [`STALL_ADVANCE`].
pub const STALL_PERSISTER: u64 = 2;
/// See [`STALL_ADVANCE`].
pub const STALL_POOL: u64 = 3;

/// How far an attached [`Watchdog`] may escalate on consecutive
/// firings. The ladder below the ceiling always runs: a `FailStop`
/// watchdog still logs on the first firing and degrades on the second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WatchdogPolicy {
    /// Only log (and count) firings; never touch the health ladder.
    Log,
    /// After two consecutive firings, ratchet health to
    /// [`HealthState::Degraded`] (synchronous inline persistence).
    Degrade,
    /// After three consecutive firings, ratchet health to
    /// [`HealthState::Failed`] (reject new operations) — for
    /// deployments that prefer fail-stop over silent stall.
    FailStop,
}

/// One progress sample; stalls are judged by comparing two of them.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Sample {
    clock: u64,
    frontier: u64,
    /// Released batches in flight: those the persister could publish.
    released: usize,
    pool_pending: usize,
    buffered: u64,
    announce: Vec<u64>,
}

impl Sample {
    fn take(esys: &EpochSys) -> Sample {
        Sample {
            clock: esys.current_epoch(),
            frontier: esys.persisted_frontier(),
            released: esys.released_batches_in_flight(),
            pool_pending: esys.pool_pending(),
            buffered: esys.buffered_words(),
            announce: esys.announced_epochs(),
        }
    }
}

/// Compares two consecutive samples; `Some(reason)` when no progress
/// shape explains the standstill.
fn detect_stall(prev: &Sample, cur: &Sample, backpressure_bound: u64) -> Option<u64> {
    // Wedged pool fan-out: one batch's chunks stayed pending across the
    // whole period with no durability progress. Checked before the
    // coarser persister shape so the report names the stuck layer.
    if prev.pool_pending > 0 && cur.pool_pending > 0 && cur.frontier == prev.frontier {
        return Some(STALL_POOL);
    }
    // Wedged persister: released batches stayed in flight across the
    // whole period and durability did not advance.
    if prev.released > 0 && cur.released > 0 && cur.frontier == prev.frontier {
        return Some(STALL_PERSISTER);
    }
    // Hung straggler: same thread announced in the same behind-the-clock
    // epoch at both samples. (A thread re-announcing the same epoch for
    // back-to-back short ops is indistinguishable — acceptable: the
    // first escalation step is a log line, not a downgrade.)
    for (p, c) in prev.announce.iter().zip(cur.announce.iter()) {
        if *c != EMPTY_EPOCH && *c == *p && *c < cur.clock {
            return Some(STALL_STRAGGLER);
        }
    }
    // Stalled advance: neither clock nor frontier moved while the
    // buffered set is past the bound that should have forced an
    // advance. (Frontier progress means a batch just completed, which
    // will shrink the buffered set — give it the next period.)
    if backpressure_bound != 0
        && cur.clock == prev.clock
        && cur.frontier == prev.frontier
        && cur.buffered > backpressure_bound
    {
        return Some(STALL_ADVANCE);
    }
    None
}

fn reason_str(reason: u64) -> &'static str {
    match reason {
        STALL_ADVANCE => "stalled epoch advance",
        STALL_STRAGGLER => "hung straggler quiesce",
        STALL_PERSISTER => "wedged persister",
        STALL_POOL => "wedged pool fan-out",
        _ => "unknown stall",
    }
}

/// Owns the background stall-detection thread. Same stop/join
/// discipline as [`EpochTicker`](crate::EpochTicker): stops (and joins)
/// on drop.
pub struct Watchdog {
    worker: Worker,
}

impl Watchdog {
    /// Spawns the watchdog, sampling every
    /// [`EpochConfig::watchdog_period`](crate::EpochConfig) and
    /// escalating up to
    /// [`EpochConfig::watchdog_policy`](crate::EpochConfig).
    ///
    /// Falls back to an inert (never-firing) watchdog with a logged
    /// warning if the OS cannot spawn the thread.
    pub fn spawn(esys: Arc<EpochSys>) -> Watchdog {
        let worker = Worker::spawn("watchdog", "running without stall detection", move |stop| {
            watch(&esys, stop)
        });
        Watchdog { worker }
    }

    /// Stops the watchdog and waits for it to exit.
    pub fn stop(mut self) {
        self.worker.stop();
    }
}

fn watch(esys: &EpochSys, stop: &StopFlag) {
    if esys.is_disabled() {
        return; // eADR: no epochs, nothing to watch
    }
    let period = esys.config().watchdog_period;
    let bound = esys.config().max_buffered_words;
    let policy = esys.config().watchdog_policy;
    let mut prev = Sample::take(esys);
    let mut consecutive: u64 = 0;
    while !stop.sleep_or_stop(period) {
        let cur = Sample::take(esys);
        // A fail-stopped system is *intentionally* still — nothing to
        // detect, and escalating further is meaningless.
        if esys.health() == HealthState::Failed {
            prev = cur;
            consecutive = 0;
            continue;
        }
        match detect_stall(&prev, &cur, bound) {
            Some(reason) => {
                consecutive += 1;
                esys.stats().watchdog_fires.fetch_add(1, Ordering::Relaxed);
                esys.obs()
                    .event(EventKind::WatchdogFired, reason, consecutive);
                eprintln!(
                    "bdhtm watchdog: {} (firing #{consecutive}; clock={} frontier={} \
                     released_in_flight={} buffered={})",
                    reason_str(reason),
                    cur.clock,
                    cur.frontier,
                    cur.released,
                    cur.buffered
                );
                for ev in esys.obs().dump(32) {
                    eprintln!("bdhtm watchdog:   {}", ev.render());
                }
                if consecutive >= 3 && policy >= WatchdogPolicy::FailStop {
                    esys.escalate_health(HealthState::Failed, None);
                } else if consecutive >= 2 && policy >= WatchdogPolicy::Degrade {
                    esys.escalate_health(HealthState::Degraded, None);
                }
            }
            None => consecutive = 0,
        }
        prev = cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(clock: u64, frontier: u64, released: usize, buffered: u64) -> Sample {
        Sample {
            clock,
            frontier,
            released,
            pool_pending: 0,
            buffered,
            announce: vec![EMPTY_EPOCH; 4],
        }
    }

    #[test]
    fn wedged_pool_fanout_detected_before_persister_shape() {
        let mut a = sample(10, 8, 2, 0);
        let mut b = sample(11, 8, 1, 0);
        a.pool_pending = 3;
        b.pool_pending = 1; // still stuck inside one batch's fan-out
        assert_eq!(detect_stall(&a, &b, 0), Some(STALL_POOL));
        // Fan-out drained between samples: the coarser shape reports.
        b.pool_pending = 0;
        assert_eq!(detect_stall(&a, &b, 0), Some(STALL_PERSISTER));
    }

    #[test]
    fn progress_in_any_dimension_is_not_a_stall() {
        let a = sample(10, 8, 1, 500);
        let mut b = sample(10, 9, 1, 500); // frontier moved
        assert_eq!(detect_stall(&a, &b, 100), None);
        b = sample(11, 8, 0, 500); // clock moved, pipeline drained
        assert_eq!(detect_stall(&a, &b, 100), None);
    }

    #[test]
    fn wedged_persister_detected() {
        let a = sample(10, 8, 2, 0);
        let b = sample(11, 8, 1, 0); // clock moves but durability does not
        assert_eq!(detect_stall(&a, &b, 0), Some(STALL_PERSISTER));
    }

    /// An early-sealed batch written back and waiting for its release
    /// sits in flight for most of every epoch with the frontier still:
    /// a watchdog period shorter than the epoch must not call that a
    /// wedged persister.
    #[test]
    fn unreleased_batch_in_flight_is_not_a_wedged_persister() {
        use crate::EpochConfig;
        use nvm_sim::{NvmConfig, NvmHeap};
        use persist_alloc::Header;

        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(2 << 20)));
        let es = EpochSys::format(heap, EpochConfig::manual());
        es.attach_persister();
        let e = es.begin_op();
        let blk = es.p_new(1);
        Header::set_epoch(es.heap(), blk, e);
        es.p_track(blk);
        es.end_op();
        es.advance();
        while es.persist_next_batch() {}
        assert!(es.seal_quiescent());
        while es.persist_next_batch() {} // early write-back, no publish
        assert_eq!(es.batches_in_flight(), 1);
        let a = Sample::take(&es);
        let b = Sample::take(&es);
        assert_eq!(a.released, 0, "the batch waits for its release");
        assert_eq!(detect_stall(&a, &b, 0), None);

        es.advance(); // releases it: now the persister owes a publish
        let c = Sample::take(&es);
        assert_eq!(c.released, 1);
        assert_eq!(detect_stall(&c, &c, 0), Some(STALL_PERSISTER));
        es.detach_persister();
    }

    #[test]
    fn hung_straggler_detected() {
        let mut a = sample(10, 8, 0, 0);
        let mut b = sample(11, 9, 0, 0);
        a.announce[2] = 9;
        b.announce[2] = 9; // same old epoch a full period later
        assert_eq!(detect_stall(&a, &b, 0), Some(STALL_STRAGGLER));
        // A *current*-epoch announcement is a live op, not a straggler.
        a.announce[2] = 11;
        b.announce[2] = 11;
        assert_eq!(detect_stall(&a, &b, 0), None);
    }

    #[test]
    fn watchdog_escalates_a_wedged_persister_to_fail_stop() {
        use crate::EpochConfig;
        use nvm_sim::{NvmConfig, NvmHeap};
        use std::time::{Duration, Instant};

        let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(2 << 20)));
        let es = EpochSys::format(
            heap,
            EpochConfig::manual()
                .with_watchdog_period(Duration::from_millis(5))
                .with_watchdog_policy(WatchdogPolicy::FailStop),
        );
        // Attached but never drained: the exact wedged-persister shape.
        es.attach_persister();
        es.advance();
        es.advance();
        assert!(es.batches_in_flight() > 0);
        let wd = Watchdog::spawn(Arc::clone(&es));
        let t = Instant::now();
        while es.health() != HealthState::Failed && t.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        wd.stop();
        assert_eq!(
            es.health(),
            HealthState::Failed,
            "log → degrade → fail-stop must run the whole ladder"
        );
        assert!(es.stats().snapshot().watchdog_fires >= 3);
        assert!(es.stats().snapshot().degradations >= 2);
        es.detach_persister();
    }

    #[test]
    fn stalled_advance_needs_a_backpressure_bound() {
        let a = sample(10, 8, 0, 5_000);
        let b = sample(10, 8, 0, 6_000);
        assert_eq!(detect_stall(&a, &b, 1_000), Some(STALL_ADVANCE));
        assert_eq!(detect_stall(&a, &b, 0), None, "bound 0 disables the check");
    }
}
