//! The crash-point sweep driver: exhaustive BDL recovery validation.
//!
//! The paper's guarantee — after a crash in epoch `e`, every structure
//! recovers to a consistent state no older than the end of epoch `e−2`
//! — is only as strong as the crash points it is tested at. This driver
//! replaces hand-placed crashes with systematic enumeration:
//!
//! 1. **Count.** Run a seeded, mixed insert/remove/get workload with a
//!    counting [`FaultPlan`] armed, learning the number `N` of persist
//!    boundaries (`clwb`, fence, format, eviction write-back) the
//!    workload crosses.
//! 2. **Replay.** Re-run the identical workload `N` times, crashing at
//!    point `i` on run `i`. The interrupted persist never reaches
//!    media. Recover, and assert two things: the structure's own
//!    [`validate`](SweepTarget::validate) invariants, and the **BDL
//!    prefix property** — the recovered key/value state equals the fold
//!    of exactly those logged mutations whose epoch is `≤` the
//!    recovered frontier `R` (single-threaded histories make the
//!    durable prefix exact, not merely bounded).
//!
//! Three adversarial twists, all seeded and reproducible:
//!
//! * **Torn writes** ([`SweepConfig::torn`]): at the crash instant a
//!   random subset of dirty *words* drains to media — cache lines race
//!   out of the write-pending queue, and ADR promises 8-byte atomicity
//!   and nothing more.
//! * **Double crash** ([`SweepConfig::double_crash`]): recovery itself
//!   is crashed at a seeded point of *its own* enumerated schedule, and
//!   the second recovery must still produce the same durable prefix —
//!   the idempotent-recovery contract.
//! * **Pipelined persistence** ([`SweepConfig::pipelined`]): the
//!   synchronous schedule crosses every persist boundary *inside*
//!   `advance`; with a persister attached those boundaries move off
//!   the advancing thread, the clock runs ahead of the durable
//!   frontier, and a crash can land while sealed batches are still in
//!   flight. The driver stands in for the persister worker — it enters
//!   pipelined mode with [`EpochSys::attach_persister`], so `advance`
//!   only seals and enqueues, and drains by hand with
//!   [`EpochSys::persist_next_batch`] on a seeded cadence that lets
//!   batches linger across operations. On a stream of its own it also
//!   runs the persister's early seal ([`EpochSys::seal_quiescent`]),
//!   sometimes writing the early batch back before the advance that
//!   releases it. Every crash point — in the workload's evictions, in
//!   a batch's write-backs (early or not), in the frontier publish
//!   itself — still fires on the driving thread, and the oracle
//!   is unchanged: that the clock may be arbitrarily far past `R` at
//!   the crash is what's under test — recovery keys off the frontier,
//!   never off `clock − 2`.
//!
//! The same [`SweepConfig`] (in particular the same `seed`, usually
//! from the `FAULT_SEED` environment variable) produces the same
//! workload, the same crash-point schedule, and the same verdicts.

use bdhtm_core::obs::{EventKind, FlightEvent};
use bdhtm_core::{EpochConfig, EpochSys};
use hashtable::BdSpash;
use htm_sim::{Htm, HtmConfig, SplitMix64};
use nvm_sim::{CrashImage, CrashPointKind, CrashTriggered, FaultPlan, NvmConfig, NvmHeap};
use skiplist::BdlSkiplist;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use veb::PhtmVeb;

/// Universe bits bounding every target's key space so all structures
/// see identical workloads (re-exported from `bdhtm-core`).
pub use bdhtm_core::KV_UNIVERSE_BITS as UNIVERSE_BITS;

/// A structure family the sweep can drive: any [`bdhtm_core::BdlKv`]
/// implementor. The sweep needs exactly the trait's surface —
/// substrate-only constructors, tag-filtered recovery, and a quiescent
/// `validate` — so the core trait *is* the sweep target; there is no
/// adapter layer to keep in sync when a structure is added.
pub use bdhtm_core::BdlKv as SweepTarget;

/// Reads the sweep seed from `FAULT_SEED` (decimal or `0x`-hex),
/// falling back to `default`. Pinning `FAULT_SEED` pins the entire
/// sweep: workload, crash schedule, torn-write masks, verdicts.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("FAULT_SEED") {
        Ok(s) => {
            let s = s.trim().to_owned();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("FAULT_SEED must be an integer, got {s:?}"))
        }
        Err(_) => default,
    }
}

/// Parameters of one sweep. Everything is deterministic in `seed`.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Master seed (workload, eviction, torn writes, double-crash point).
    pub seed: u64,
    /// Mixed operations per run (1/2 insert, 1/4 remove, 1/4 get).
    pub ops: usize,
    /// Keys are drawn from `1..=keys` (must fit [`UNIVERSE_BITS`]).
    pub keys: u64,
    /// The epoch advances every this many operations.
    pub advance_every: usize,
    /// Every this many operations, evict [`SweepConfig::evict_lines`]
    /// random cache lines (0 = no background eviction).
    pub evict_every: usize,
    /// Lines per eviction burst.
    pub evict_lines: usize,
    /// Tear the write-pending queue at the crash instant.
    pub torn: bool,
    /// Also crash recovery at a seeded point and re-recover.
    pub double_crash: bool,
    /// Seal on `advance`, write back later on a seeded drain cadence
    /// (the hand-driven stand-in for a background persister).
    pub pipelined: bool,
    /// Replay at most this many crash points, evenly strided over the
    /// schedule (0 = replay every point).
    pub max_replays: u64,
    /// Simulated NVM size per run.
    pub heap_bytes: usize,
    /// HTM configuration for the workload side (set abort injection
    /// here to sweep crashes *through the fallback path*).
    pub htm: HtmConfig,
}

impl SweepConfig {
    /// A sweep sized for CI: a few hundred crash points per structure.
    pub fn quick(seed: u64) -> Self {
        SweepConfig {
            seed,
            ops: 240,
            keys: 96,
            advance_every: 24,
            evict_every: 17,
            evict_lines: 3,
            torn: false,
            double_crash: false,
            pipelined: false,
            max_replays: 0,
            heap_bytes: 8 << 20,
            htm: HtmConfig::for_tests(),
        }
    }

    pub fn with_torn_writes(mut self) -> Self {
        self.torn = true;
        self
    }

    pub fn with_double_crash(mut self) -> Self {
        self.double_crash = true;
        self
    }

    pub fn with_max_replays(mut self, n: u64) -> Self {
        self.max_replays = n;
        self
    }

    pub fn with_htm(mut self, htm: HtmConfig) -> Self {
        self.htm = htm;
        self
    }
}

/// A logged state mutation, with the epoch it executed in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mutation {
    Insert(u64, u64),
    Remove(u64),
}

/// Outcome of one crash-point replay.
#[derive(Clone, Copy, Debug)]
pub struct ReplayVerdict {
    /// Whether the armed point fired (false means the workload finished
    /// first and the replay crashed at its natural end instead).
    pub fired: bool,
    /// Whether double-crash mode interrupted recovery too.
    pub double_crashed: bool,
}

/// Aggregate result of [`sweep`].
#[derive(Debug)]
pub struct SweepReport {
    pub structure: &'static str,
    /// Crash points the workload enumerates.
    pub points: u64,
    /// Points actually replayed (`min(points, max_replays)`).
    pub replays: u64,
    /// Replays where the armed crash fired.
    pub fired: u64,
    /// Replays whose recovery was itself crashed and re-run.
    pub double_crashes: u64,
    /// Prefix-property or invariant violations, one line each.
    pub failures: Vec<String>,
    /// Flight-recorder dump of the *first* failing replay: the last
    /// lifecycle events the crashed run recorded before the fault fired,
    /// rendered one per line. Empty when the sweep passed. Deliberately
    /// excluded from [`digest_reports`](crate::digest_reports) —
    /// timing-dependent text must not perturb the behavior-preservation
    /// digest.
    pub flight_dump: Vec<String>,
    /// The same events, raw — what `fault_sweep` feeds the Perfetto
    /// exporter ([`bdhtm_core::trace::chrome_trace`]) when a failure
    /// warrants a timeline, not just a text tail. Also excluded from
    /// [`digest_reports`](crate::digest_reports).
    pub flight_events: Vec<FlightEvent>,
}

impl SweepReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Installs (once, process-wide) a panic hook that stays silent for the
/// [`CrashTriggered`] unwinds a sweep throws by the hundreds, and
/// delegates everything else to the previous hook.
pub fn silence_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashTriggered>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Pipeline depth of the driver's epoch system. The pipelined drain
/// cadence keeps at most three batches in flight, so the depth is never
/// hit and `advance` never waits on a persister that doesn't exist.
const DRIVER_DEPTH: usize = 4;

fn setup<T: SweepTarget>(cfg: &SweepConfig) -> (Arc<NvmHeap>, Arc<EpochSys>, T) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(cfg.heap_bytes)));
    let esys = EpochSys::format(
        Arc::clone(&heap),
        EpochConfig::manual().with_pipeline_depth(DRIVER_DEPTH),
    );
    if cfg.pipelined {
        esys.attach_persister();
    }
    let t = T::new(Arc::clone(&esys), Arc::new(Htm::new(cfg.htm.clone())));
    (heap, esys, t)
}

/// The seeded mixed workload. Logs every mutation with the epoch it ran
/// in; the log is the ground truth the prefix oracle folds over.
///
/// The pipelined schedule draws its drain cadence from a stream of its
/// own, so the synchronous schedule's draws (and the pinned digest) do
/// not depend on it.
fn run_workload<T: SweepTarget>(
    t: &T,
    esys: &EpochSys,
    cfg: &SweepConfig,
    log: &mut Vec<(u64, Mutation)>,
) {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut drain_rng = SplitMix64::new(cfg.seed ^ 0xD7_A14B_A7C4_5EED);
    let mut seal_rng = SplitMix64::new(cfg.seed ^ 0x5EA1_0E4A_71E5_EA15);
    let mut deferred = false;
    for i in 0..cfg.ops {
        if cfg.evict_every != 0 && i % cfg.evict_every == cfg.evict_every - 1 {
            esys.heap()
                .evict_random_lines(cfg.evict_lines, rng.next_u64());
        }
        let key = 1 + rng.next_below(cfg.keys);
        let value = rng.next_u64() | 1;
        match rng.next_below(8) {
            0..=3 => {
                log.push((esys.current_epoch(), Mutation::Insert(key, value)));
                t.insert(key, value);
            }
            4..=5 => {
                log.push((esys.current_epoch(), Mutation::Remove(key)));
                t.remove(key);
            }
            _ => {
                t.get(key);
            }
        }
        if i % cfg.advance_every == cfg.advance_every - 1 {
            esys.advance();
        }
        // Pipelined: drain half a period after each seal. Occasionally
        // defer a batch for a whole period (bounded at one deferral, so
        // in-flight stays below DRIVER_DEPTH): the next drain then
        // writes back two batches in a row, and crash points fall both
        // while the frontier trails by one epoch and while it trails by
        // several.
        //
        // Before draining, the persister's early seal may run on the
        // previous (quiescent) epoch: one draw in four leaves it sealed
        // for the released path, two in four also write it back now,
        // ahead of its release — so crash points land inside an early
        // write-back and between it and the releasing advance.
        if cfg.pipelined && i % cfg.advance_every == cfg.advance_every / 2 {
            let seal = seal_rng.next_below(4);
            let sealed = seal != 0 && esys.seal_quiescent();
            if !deferred && drain_rng.next_below(2) == 0 {
                deferred = true;
            } else {
                esys.persist_next_batch();
                if deferred {
                    esys.persist_next_batch();
                    deferred = false;
                }
            }
            if sealed && seal >= 2 {
                // Publishes what is released, then writes the early
                // batch back and stops at its release gate.
                while esys.persist_next_batch() {}
                deferred = false;
            }
        }
    }
    if cfg.pipelined {
        // End of run: seal the tail epochs and drain everything, as a
        // clean shutdown (Persister::stop) would.
        esys.advance();
        while esys.persist_next_batch() {}
    }
}

/// Folds the logged history up to (and including) epoch `frontier`: the
/// exact state a single-threaded run must recover to.
pub(crate) fn durable_prefix(log: &[(u64, Mutation)], frontier: u64) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for &(e, op) in log {
        if e > frontier {
            break; // single-threaded log: epochs are monotone
        }
        match op {
            Mutation::Insert(k, v) => {
                m.insert(k, v);
            }
            Mutation::Remove(k) => {
                m.remove(&k);
            }
        }
    }
    m
}

/// Counts the workload's crash points without crashing.
pub fn enumerate_points<T: SweepTarget>(cfg: &SweepConfig) -> u64 {
    let (heap, esys, t) = setup::<T>(cfg);
    let plan = Arc::new(FaultPlan::count());
    heap.arm_fault_plan(Arc::clone(&plan));
    let mut log = Vec::new();
    run_workload(&t, &esys, cfg, &mut log);
    heap.disarm_fault_plan();
    plan.points()
}

/// Events kept when a failing replay dumps its flight recorder.
const FLIGHT_DUMP_EVENTS: usize = 32;

/// Runs the workload with a crash armed at `point`; returns the crash
/// image, the mutation log, whether the point fired, and the crashed
/// run's flight-recorder tail (the postmortem context a failing replay
/// attaches to its report). A point at or beyond the schedule's end
/// degenerates to a crash after the final operation — still a legal
/// crash.
fn crash_at<T: SweepTarget>(
    cfg: &SweepConfig,
    point: u64,
) -> (CrashImage, Vec<(u64, Mutation)>, bool, Vec<FlightEvent>) {
    let (heap, esys, t) = setup::<T>(cfg);
    let mut plan = FaultPlan::crash_at(point);
    if cfg.torn {
        plan = plan.with_torn_writes(cfg.seed ^ point.rotate_left(17));
    }
    let plan = Arc::new(plan);
    heap.arm_fault_plan(Arc::clone(&plan));
    let mut log = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_workload(&t, &esys, cfg, &mut log);
    }));
    heap.disarm_fault_plan();
    match outcome {
        Ok(()) => {
            let dump = dump_events(&esys);
            (heap.crash(), log, false, dump)
        }
        Err(payload) => {
            let crash = payload
                .downcast_ref::<CrashTriggered>()
                .expect("workload panicked with something other than an injected crash");
            // Record the fault into the crashed run's flight recorder so
            // the postmortem dump shows it in sequence with the lifecycle
            // events that led up to it.
            esys.obs().event(
                EventKind::FaultInjected,
                crash.point,
                crash_kind_code(crash.kind),
            );
            let dump = dump_events(&esys);
            let img = plan.take_image().expect("fired plan must capture an image");
            (img, log, true, dump)
        }
    }
}

fn crash_kind_code(kind: CrashPointKind) -> u64 {
    match kind {
        CrashPointKind::Clwb => 0,
        CrashPointKind::Fence => 1,
        CrashPointKind::FormatLine => 2,
        CrashPointKind::EvictLine => 3,
    }
}

fn dump_events(esys: &EpochSys) -> Vec<FlightEvent> {
    esys.obs().dump(FLIGHT_DUMP_EVENTS)
}

/// Recovers `img` and returns the recovered system, target, and frontier.
pub(crate) fn recover<T: SweepTarget>(img: CrashImage) -> (Arc<EpochSys>, T, u64) {
    let heap = Arc::new(NvmHeap::from_image(img));
    let (esys, live) = EpochSys::recover(heap, EpochConfig::manual(), 1);
    let r = esys.persisted_frontier();
    let t = T::recover(
        Arc::clone(&esys),
        Arc::new(Htm::new(HtmConfig::for_tests())),
        &live,
    );
    (esys, t, r)
}

/// Double-crash mode: crash recovery itself at a seeded point of its own
/// schedule and hand back the second image. Returns `None` when the
/// chosen point never fired (recovery completed on the throwaway heap).
fn crash_during_recovery<T: SweepTarget>(
    cfg: &SweepConfig,
    img: &CrashImage,
    point: u64,
) -> Option<CrashImage> {
    // Enumerate recovery's own crash points on a clone of the image.
    let counter = Arc::new(FaultPlan::count());
    {
        let heap = Arc::new(NvmHeap::from_image(img.duplicate()));
        heap.arm_fault_plan(Arc::clone(&counter));
        let (esys, live) = EpochSys::recover(Arc::clone(&heap), EpochConfig::manual(), 1);
        let _t = T::recover(esys, Arc::new(Htm::new(HtmConfig::for_tests())), &live);
        heap.disarm_fault_plan();
    }
    let n = counter.points();
    if n == 0 {
        return None;
    }
    let j = SplitMix64::new(cfg.seed ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_below(n);

    let mut plan = FaultPlan::crash_at(j);
    if cfg.torn {
        plan = plan.with_torn_writes(cfg.seed ^ j.rotate_left(31) ^ point);
    }
    let plan = Arc::new(plan);
    let heap = Arc::new(NvmHeap::from_image(img.duplicate()));
    heap.arm_fault_plan(Arc::clone(&plan));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (esys, live) = EpochSys::recover(Arc::clone(&heap), EpochConfig::manual(), 1);
        let _t = T::recover(esys, Arc::new(Htm::new(HtmConfig::for_tests())), &live);
    }));
    heap.disarm_fault_plan();
    match outcome {
        Ok(()) => None,
        Err(payload) => {
            assert!(
                payload.downcast_ref::<CrashTriggered>().is_some(),
                "recovery panicked with something other than an injected crash"
            );
            Some(plan.take_image().expect("fired plan must capture an image"))
        }
    }
}

/// Checks the recovered target against the prefix oracle and its own
/// structural invariants.
pub(crate) fn check_recovered<T: SweepTarget>(
    t: &T,
    log: &[(u64, Mutation)],
    frontier: u64,
    cfg: &SweepConfig,
    ctx: &str,
) -> Result<(), String> {
    t.validate()
        .map_err(|e| format!("{ctx}: structural invariant violated: {e}"))?;
    let want = durable_prefix(log, frontier);
    for key in 1..=cfg.keys {
        let got = t.get(key);
        let expect = want.get(&key).copied();
        if got != expect {
            return Err(format!(
                "{ctx}: key {key} diverged after recovery: got {got:?}, want {expect:?} \
                 (frontier {frontier})"
            ));
        }
    }
    Ok(())
}

/// One full replay: crash the workload at `point`, (optionally) crash
/// recovery too, recover, and check the e−2 prefix property plus the
/// structure's invariants.
pub fn replay<T: SweepTarget>(cfg: &SweepConfig, point: u64) -> Result<ReplayVerdict, String> {
    replay_with_dump::<T>(cfg, point).map_err(|(msg, _dump)| msg)
}

/// [`replay`], but a failure also carries the crashed run's raw
/// flight-recorder tail (used by [`sweep`] to populate
/// [`SweepReport::flight_dump`] / [`SweepReport::flight_events`]).
pub fn replay_with_dump<T: SweepTarget>(
    cfg: &SweepConfig,
    point: u64,
) -> Result<ReplayVerdict, (String, Vec<FlightEvent>)> {
    silence_crash_panics();
    let (img, log, fired, dump) = crash_at::<T>(cfg, point);
    let mut double_crashed = false;
    let img = if cfg.double_crash {
        match crash_during_recovery::<T>(cfg, &img, point) {
            Some(second) => {
                double_crashed = true;
                second
            }
            None => img,
        }
    } else {
        img
    };
    let ctx = format!(
        "{}{} point {point}{}{}",
        T::NAME,
        if cfg.pipelined { " pipelined" } else { "" },
        if cfg.torn { " (torn)" } else { "" },
        if double_crashed {
            " (double crash)"
        } else {
            ""
        },
    );
    let (_esys, t, frontier) = recover::<T>(img);
    check_recovered(&t, &log, frontier, cfg, &ctx).map_err(|msg| (msg, dump))?;
    Ok(ReplayVerdict {
        fired,
        double_crashed,
    })
}

/// The points [`sweep`] will replay: all of them, or an even stride.
fn chosen_points(points: u64, max_replays: u64) -> Vec<u64> {
    if max_replays == 0 || points <= max_replays {
        (0..points).collect()
    } else {
        (0..max_replays).map(|i| i * points / max_replays).collect()
    }
}

/// Runs the full count→replay protocol for one structure family.
pub fn sweep<T: SweepTarget>(cfg: &SweepConfig) -> SweepReport {
    silence_crash_panics();
    let points = enumerate_points::<T>(cfg);
    let mut report = SweepReport {
        structure: T::NAME,
        points,
        replays: 0,
        fired: 0,
        double_crashes: 0,
        failures: Vec::new(),
        flight_dump: Vec::new(),
        flight_events: Vec::new(),
    };
    for point in chosen_points(points, cfg.max_replays) {
        report.replays += 1;
        match replay_with_dump::<T>(cfg, point) {
            Ok(v) => {
                report.fired += v.fired as u64;
                report.double_crashes += v.double_crashed as u64;
            }
            Err((e, dump)) => {
                if report.failures.is_empty() {
                    report.flight_dump = dump.iter().map(|ev| ev.render()).collect();
                    report.flight_events = dump;
                }
                report.failures.push(e);
            }
        }
    }
    report
}

/// Sweeps all three BDL structure families with the same config.
pub fn sweep_all(cfg: &SweepConfig) -> Vec<SweepReport> {
    vec![
        sweep::<PhtmVeb>(cfg),
        sweep::<BdlSkiplist>(cfg),
        sweep::<BdSpash>(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = SweepConfig::quick(0xFA_57EED);
        let a = enumerate_points::<PhtmVeb>(&cfg);
        let b = enumerate_points::<PhtmVeb>(&cfg);
        assert_eq!(a, b, "identical seed must enumerate identical points");
        let other = enumerate_points::<PhtmVeb>(&SweepConfig::quick(0xFA_57EED + 1));
        assert_ne!(a, other, "different seeds should shift the schedule");
    }

    #[test]
    fn workloads_enumerate_enough_points() {
        let cfg = SweepConfig::quick(7);
        assert!(enumerate_points::<PhtmVeb>(&cfg) >= 100);
        assert!(enumerate_points::<BdlSkiplist>(&cfg) >= 100);
        assert!(enumerate_points::<BdSpash>(&cfg) >= 100);
    }

    #[test]
    fn single_replay_round_trips() {
        let cfg = SweepConfig::quick(21);
        let v = replay::<BdSpash>(&cfg, 5).expect("replay at point 5");
        assert!(v.fired, "an early point must fire");
    }

    #[test]
    fn crashed_run_dump_ends_with_the_injected_fault() {
        silence_crash_panics();
        let cfg = SweepConfig::quick(21);
        let (_img, _log, fired, dump) = crash_at::<BdSpash>(&cfg, 5);
        assert!(fired, "an early point must fire");
        assert!(!dump.is_empty(), "a crashed run must leave flight events");
        assert_eq!(
            dump.last().unwrap().kind,
            EventKind::FaultInjected,
            "the injected crash must be the newest event: {:?}",
            dump.last()
        );
        assert!(
            dump.iter()
                .any(|ev| ev.kind == EventKind::OpBegin || ev.kind == EventKind::OpCommit),
            "lifecycle events must precede the fault"
        );
    }

    #[test]
    fn replay_beyond_schedule_crashes_at_the_end() {
        let cfg = SweepConfig::quick(21);
        let v = replay::<PhtmVeb>(&cfg, u64::MAX).expect("end-of-run crash");
        assert!(!v.fired);
    }

    fn pipelined(seed: u64) -> SweepConfig {
        SweepConfig {
            pipelined: true,
            ..SweepConfig::quick(seed)
        }
    }

    #[test]
    fn pipelined_schedule_is_deterministic() {
        let cfg = pipelined(0xBA7C4);
        let a = enumerate_points::<PhtmVeb>(&cfg);
        let b = enumerate_points::<PhtmVeb>(&cfg);
        assert_eq!(a, b, "same seed, same pipelined schedule");
        assert!(a >= 50, "the drains must cross many persist boundaries");
    }

    #[test]
    fn pipelined_run_develops_frontier_lag() {
        // Assert the hand-driven regime is reachable at all: when seals
        // outpace drains, the clock must get more than 2 epochs past
        // the frontier (sealed batches in flight).
        let cfg = pipelined(0xBA7C5);
        let (_heap, esys, t) = setup::<BdSpash>(&cfg);
        let mut rng = SplitMix64::new(cfg.seed);
        let mut max_lag = 0;
        for i in 0..cfg.ops {
            let key = 1 + rng.next_below(cfg.keys);
            t.insert(key, rng.next_u64() | 1);
            if i % cfg.advance_every == cfg.advance_every - 1 {
                esys.advance();
            }
            // Drain *two* batches every other period: seals outpace
            // drains for a whole period (lag grows past 2), then the
            // double drain restores balance without ever filling the
            // depth-4 pipeline.
            if i % (2 * cfg.advance_every) == cfg.advance_every / 2 {
                esys.persist_next_batch();
                esys.persist_next_batch();
            }
            max_lag = max_lag.max(esys.current_epoch() - esys.persisted_frontier());
        }
        assert!(
            max_lag > 2,
            "driver must let the clock outrun the frontier, max lag {max_lag}"
        );
    }

    /// The sweep's early seals fire, and the clean tail still releases
    /// and publishes every early batch.
    #[test]
    fn pipelined_run_seals_epochs_early() {
        let cfg = pipelined(0xBA7C6);
        let (_heap, esys, t) = setup::<BdSpash>(&cfg);
        run_workload(&t, &esys, &cfg, &mut Vec::new());
        assert!(esys.stats().snapshot().early_seals > 0);
        assert_eq!(esys.persisted_frontier(), esys.current_epoch() - 2);
        assert_eq!(esys.batches_in_flight(), 0);
    }

    #[test]
    fn single_pipelined_replay_round_trips() {
        let v = replay::<BdSpash>(&pipelined(33), 3).expect("replay at point 3");
        assert!(v.fired, "an early point must fire");
    }

    #[test]
    fn mid_batch_crash_recovers_to_old_frontier() {
        // Crash points are dominated by the drains' clwb/fence traffic,
        // so a torn mid-schedule point lands inside a batch write-back
        // with near-certainty; sweep a stride of them.
        let cfg = pipelined(0x5EA1).with_torn_writes();
        let points = enumerate_points::<PhtmVeb>(&cfg);
        for point in (0..points).step_by((points as usize / 12).max(1)) {
            replay::<PhtmVeb>(&cfg, point)
                .unwrap_or_else(|e| panic!("pipelined torn replay failed: {e}"));
        }
    }

    #[test]
    fn chosen_points_cover_and_stride() {
        assert_eq!(chosen_points(4, 0), vec![0, 1, 2, 3]);
        assert_eq!(chosen_points(4, 8), vec![0, 1, 2, 3]);
        let s = chosen_points(100, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
