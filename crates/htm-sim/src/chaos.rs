//! Seeded deterministic-interleaving harness ("chaos mode").
//!
//! Lock-free protocols fail on rare interleavings the OS scheduler
//! almost never produces. This module plants named *chaos points* at the
//! suspect sites of those protocols (MwCAS helping, EBR pin/collect,
//! skiplist unlink/free) and, when a session is armed, perturbs the
//! schedule at each point with seeded, per-thread SplitMix64 decisions —
//! yields and short spins that stretch the race windows the sites
//! bracket. Every acting decision is recorded, so a failing run can be
//! replayed (same seed ⇒ same decision stream) and read back as an
//! interleaving schedule.
//!
//! Three layers, from cheapest to most precise:
//!
//! 1. **Disarmed** (production / normal tests): [`point`] is a single
//!    relaxed load of an `AtomicBool` and a branch — effectively free,
//!    so the hooks can stay in the hot paths permanently.
//! 2. **Armed** ([`arm`]): each thread draws from its own SplitMix64
//!    stream, seeded from the session seed and the thread's *lane* (its
//!    registration order within the session). Decisions are a pure
//!    function of `(seed, lane, visit index)`, so a seed replays its
//!    yields and spins, though the OS still interleaves the threads
//!    between them: a failing seed reproduces often, not always. The
//!    recorder keeps the tail of the decision schedule for diagnosis.
//! 3. **Gates** ([`ChaosSession::close_once`]): one-shot breakpoints
//!    that park the next thread reaching a site until the test opens
//!    them. Regression tests use gates to script an exact interleaving
//!    deterministically — no probabilities involved.
//!
//! Two `ci.sh` gates are [`run_gate`] binaries: `chaos_stress` (the DL-
//! and BDL-Skiplist mixed workloads) and `bdl_chaos` (the churn of every
//! `BdlKv` structure).
//!
//! Sessions are process-global and serialized: [`arm`] blocks until the
//! previous session drops, so chaos-driven tests in one binary cannot
//! interfere with each other. Threads *outside* the arming test also hit
//! armed points; harmless — they only gain extra yields (gates are
//! one-shot and scripted tests control which threads run).

use crate::rng::{parse_seed, SplitMix64};
use crate::tid::thread_serial;
use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// One recorded scheduling decision at a chaos point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// `yield_now` called this many times.
    Yield(u32),
    /// `spin_loop` hint executed this many times.
    Spin(u32),
    /// Parked at a closed gate until the session opened it.
    Park,
}

/// One entry of the interleaving-schedule recording.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global order of acting decisions within the session.
    pub seq: u64,
    /// Session-local thread lane (registration order under this seed).
    pub lane: u32,
    /// The thread's [`thread_serial`]: unlike its
    /// dense id, never shared with a thread that ran before it.
    pub tid: u64,
    /// The chaos-point site name.
    pub site: &'static str,
    pub action: Action,
}

impl Event {
    /// Compact one-line rendering for schedule dumps.
    pub fn render(&self) -> String {
        let act = match self.action {
            Action::Yield(n) => format!("yield x{n}"),
            Action::Spin(n) => format!("spin x{n}"),
            Action::Park => "park".to_string(),
        };
        format!(
            "[{:>5}] lane {:<2} (tid {:<3}) {:<24} {act}",
            self.seq, self.lane, self.tid, self.site
        )
    }
}

/// Probability knobs for an armed session. Probabilities are in parts
/// per million of chaos-point visits.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Session seed; equal seeds give equal per-lane decision streams.
    pub seed: u64,
    /// Probability of yielding the CPU at a point (ppm).
    pub yield_ppm: u32,
    /// Probability of a short spin-delay at a point (ppm).
    pub spin_ppm: u32,
}

impl Config {
    /// Defaults tuned for the skiplist stress workloads: roughly one
    /// schedule perturbation per six chaos-point visits.
    pub fn new(seed: u64) -> Self {
        Config {
            seed,
            yield_ppm: 120_000,
            spin_ppm: 40_000,
        }
    }
}

const RING_CAP: usize = 4096;

struct GateState {
    /// How many future arrivals to capture (one-shot gates).
    capture_left: u32,
    /// Threads currently parked here.
    parked: u32,
    /// Set by `open`; parked threads re-check on every wakeup.
    open: bool,
}

struct Gates {
    map: Mutex<HashMap<&'static str, GateState>>,
    cv: Condvar,
}

struct Recorder {
    ring: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static SESSION_LOCK: AtomicBool = AtomicBool::new(false);
/// Bumped on every arm; per-thread RNG state re-seeds when it changes.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static GATES_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);
static YIELD_PPM: AtomicU32 = AtomicU32::new(0);
static SPIN_PPM: AtomicU32 = AtomicU32::new(0);

fn gates() -> &'static Gates {
    static GATES: OnceLock<Gates> = OnceLock::new();
    GATES.get_or_init(|| Gates {
        map: Mutex::new(HashMap::new()),
        cv: Condvar::new(),
    })
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        ring: Mutex::new(VecDeque::with_capacity(RING_CAP)),
        seq: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    })
}

thread_local! {
    /// `(generation, lane, rng)` for the current session, re-derived on
    /// the first point of a new generation.
    static TLS: Cell<(u64, u32, SplitMix64)> = const { Cell::new((0, 0, SplitMix64::new(0))) };
}

/// Returns whether a chaos session is currently armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// A chaos point: a named site where the harness may perturb the
/// schedule. Compiles to a relaxed load and a predictable branch when no
/// session is armed — cheap enough for permanent placement on hot paths.
#[inline]
pub fn point(site: &'static str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    point_slow(site);
}

#[cold]
fn point_slow(site: &'static str) {
    // Register the thread's session lane first so gate-park events carry
    // a meaningful lane in the schedule recording.
    let gen = GENERATION.load(Ordering::Acquire);
    let (mut tls_gen, mut lane, mut rng) = TLS.with(|t| t.get());
    if tls_gen != gen {
        lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        let seed = SEED.load(Ordering::Relaxed);
        // Golden-ratio lane spacing keeps per-lane streams uncorrelated.
        rng = SplitMix64::new(seed ^ (u64::from(lane) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        tls_gen = gen;
        TLS.with(|t| t.set((tls_gen, lane, rng)));
    }
    // Gates before the probabilistic draw: a scripted regression wants
    // its park exactly at the site, with no rng state consumed.
    if GATES_ENABLED.load(Ordering::Acquire) {
        park_if_gated(site, lane);
        if !ARMED.load(Ordering::Relaxed) {
            return; // session ended while parked
        }
    }
    let draw = (rng.next_u64() % 1_000_000) as u32;
    TLS.with(|t| t.set((tls_gen, lane, rng)));
    let yield_ppm = YIELD_PPM.load(Ordering::Relaxed);
    let spin_ppm = SPIN_PPM.load(Ordering::Relaxed);
    if draw < yield_ppm {
        let n = 1 + (draw % 3);
        record(lane, site, Action::Yield(n));
        for _ in 0..n {
            std::thread::yield_now();
        }
    } else if draw < yield_ppm + spin_ppm {
        let n = 32 + (draw % 224);
        record(lane, site, Action::Spin(n));
        for _ in 0..n {
            std::hint::spin_loop();
        }
    }
}

fn record(lane: u32, site: &'static str, action: Action) {
    let rec = recorder();
    let seq = rec.seq.fetch_add(1, Ordering::Relaxed);
    let ev = Event {
        seq,
        lane,
        tid: thread_serial(),
        site,
        action,
    };
    let mut ring = rec.ring.lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() == RING_CAP {
        ring.pop_front();
        rec.dropped.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(ev);
}

fn park_if_gated(site: &'static str, lane: u32) {
    let g = gates();
    let mut map = g.map.lock().unwrap_or_else(|e| e.into_inner());
    let capture = match map.get_mut(site) {
        Some(st) if st.capture_left > 0 => {
            st.capture_left -= 1;
            st.parked += 1;
            true
        }
        _ => false,
    };
    if !capture {
        return;
    }
    record(lane, site, Action::Park);
    g.cv.notify_all(); // wake any await_parked watcher
    loop {
        let open = match map.get(site) {
            Some(st) => st.open,
            None => true,
        };
        if open {
            break;
        }
        map = g.cv.wait(map).unwrap_or_else(|e| e.into_inner());
    }
}

/// RAII handle for an armed chaos session. Dropping it opens every gate,
/// disarms the points, and releases the global session slot.
pub struct ChaosSession {
    seed: u64,
}

/// Takes the process-wide session lock, blocking until any previous
/// holder releases it.
fn lock_session() {
    while SESSION_LOCK
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        std::thread::yield_now();
    }
}

/// Holds the session lock without arming, so that no test in this
/// binary arms a session while the caller's threads pass chaos points
/// (they would take lanes in it and perturb its recorded schedule).
/// Released on drop.
#[cfg(test)]
pub(crate) fn quiet() -> impl Drop {
    struct Unlock;
    impl Drop for Unlock {
        fn drop(&mut self) {
            SESSION_LOCK.store(false, Ordering::Release);
        }
    }
    lock_session();
    Unlock
}

/// Arms a chaos session with `config`, blocking until any previous
/// session has been dropped (sessions are process-global).
pub fn arm(config: Config) -> ChaosSession {
    lock_session();
    SEED.store(config.seed, Ordering::Relaxed);
    YIELD_PPM.store(config.yield_ppm, Ordering::Relaxed);
    SPIN_PPM.store(config.spin_ppm, Ordering::Relaxed);
    NEXT_LANE.store(0, Ordering::Relaxed);
    {
        let rec = recorder();
        rec.ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
        rec.seq.store(0, Ordering::Relaxed);
        rec.dropped.store(0, Ordering::Relaxed);
    }
    GENERATION.fetch_add(1, Ordering::Release);
    ARMED.store(true, Ordering::Release);
    ChaosSession { seed: config.seed }
}

impl ChaosSession {
    /// The session seed (for failure reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Arms a one-shot gate: the next thread to reach `site` parks there
    /// until [`ChaosSession::open`]. Calling again adds one more capture.
    pub fn close_once(&self, site: &'static str) {
        let g = gates();
        let mut map = g.map.lock().unwrap_or_else(|e| e.into_inner());
        let st = map.entry(site).or_insert(GateState {
            capture_left: 0,
            parked: 0,
            open: false,
        });
        st.capture_left += 1;
        st.open = false;
        drop(map);
        GATES_ENABLED.store(true, Ordering::Release);
    }

    /// Blocks until at least `n` threads are parked at `site`.
    pub fn await_parked(&self, site: &'static str, n: u32) {
        let g = gates();
        let mut map = g.map.lock().unwrap_or_else(|e| e.into_inner());
        while map.get(site).map_or(0, |st| st.parked) < n {
            map = g.cv.wait(map).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Opens `site`: every thread parked there resumes, and future
    /// arrivals pass freely (until closed again).
    pub fn open(&self, site: &'static str) {
        let g = gates();
        let mut map = g.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(st) = map.get_mut(site) {
            st.open = true;
            st.capture_left = 0;
            st.parked = 0;
        }
        drop(map);
        g.cv.notify_all();
    }

    /// Drains the recorded decision schedule (oldest first). The ring
    /// keeps the most recent `RING_CAP` acting decisions.
    pub fn take_schedule(&self) -> Vec<Event> {
        let rec = recorder();
        let mut ring = rec.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.drain(..).collect()
    }

    /// Renders the tail of the recorded schedule, newest last.
    pub fn schedule_tail(&self, n: usize) -> String {
        let rec = recorder();
        let ring = rec.ring.lock().unwrap_or_else(|e| e.into_inner());
        let skip = ring.len().saturating_sub(n);
        let mut out = String::new();
        let dropped = rec.dropped.load(Ordering::Relaxed);
        if dropped > 0 || skip > 0 {
            out.push_str(&format!(
                "  … {} earlier decisions elided\n",
                dropped + skip as u64
            ));
        }
        for ev in ring.iter().skip(skip) {
            out.push_str("  ");
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

impl Drop for ChaosSession {
    fn drop(&mut self) {
        // Disarm first so parked threads released below fall straight
        // through their points, then open every gate.
        ARMED.store(false, Ordering::Release);
        let g = gates();
        {
            let mut map = g.map.lock().unwrap_or_else(|e| e.into_inner());
            for st in map.values_mut() {
                st.open = true;
                st.capture_left = 0;
                st.parked = 0;
            }
            map.clear();
        }
        g.cv.notify_all();
        GATES_ENABLED.store(false, Ordering::Release);
        SESSION_LOCK.store(false, Ordering::Release);
    }
}

/// How long one iteration of a [`run_gate`] may run before the gate
/// reports it as hung.
pub const GATE_WATCHDOG: std::time::Duration = std::time::Duration::from_secs(120);

/// The body of a chaos gate binary: runs `phases` in order once per
/// iteration, each iteration under a fresh session seeded
/// `seed_base + i`. The command line sets `--iters` (default 50) and
/// `--seed-base` (default `default_seed_base`, decimal or `0x` hex).
///
/// Each iteration runs on a watched thread. A panic exits the process
/// with status 1, an iteration still running after [`GATE_WATCHDOG`]
/// with status 2 (a hung worker cannot be killed, so it is leaked);
/// both print the phase, the seed, the recorded schedule tail and the
/// command that replays the seed.
pub fn run_gate(gate: &str, default_seed_base: u64, phases: &'static [(&'static str, fn())]) {
    let (mut iters, mut seed_base) = (50u64, default_seed_base);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let v = args
            .next()
            .as_deref()
            .and_then(parse_seed)
            .unwrap_or_else(|| panic!("{a} needs a numeric argument"));
        match a.as_str() {
            "--iters" => iters = v,
            "--seed-base" => seed_base = v,
            other => panic!("unknown argument {other}"),
        }
    }
    println!(
        "{gate}: {iters} iterations, seeds {seed_base:#x}..{:#x}",
        seed_base + iters
    );
    for i in 0..iters {
        let seed = seed_base + i;
        let session = arm(Config::new(seed));
        let (tx, rx) = std::sync::mpsc::channel();
        let phase = std::sync::Arc::new(AtomicU32::new(0));
        let at = std::sync::Arc::clone(&phase);
        let worker = std::thread::Builder::new()
            .name(format!("chaos-iter-{i}"))
            .spawn(move || {
                let verdict = std::panic::catch_unwind(|| {
                    for (p, (_, run)) in phases.iter().enumerate() {
                        at.store(p as u32, Ordering::SeqCst);
                        run();
                    }
                });
                let _ = tx.send(verdict.is_ok());
            })
            .expect("spawn chaos worker");
        let (code, what) = match rx.recv_timeout(GATE_WATCHDOG) {
            Ok(true) => (0, ""),
            Ok(false) => (1, "FAILED"),
            Err(_) => (2, "HUNG"),
        };
        if code != 0 {
            let name = phases[phase.load(Ordering::SeqCst) as usize].0;
            eprintln!("{gate}: iteration {i} {what} in {name} phase under seed {seed:#x}");
            eprintln!("interleaving schedule tail:\n{}", session.schedule_tail(64));
            eprintln!("replay with: {gate} --iters 1 --seed-base {seed:#x}");
            std::process::exit(code);
        }
        let _ = worker.join();
        drop(session);
        if (i + 1) % 25 == 0 {
            println!("{gate}: {}/{iters} iterations passed", i + 1);
        }
    }
    println!("{gate}: all {iters} iterations passed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn disarmed_points_are_free_and_silent() {
        // `armed()` is process-global and sibling tests arm sessions:
        // hold the session lock, unarmed, so none can start meanwhile.
        let _quiet = quiet();
        assert!(!armed());
        for _ in 0..10_000 {
            point("test::noop");
        }
    }

    #[test]
    fn armed_session_records_deterministic_schedule() {
        let run = |seed| {
            let session = arm(Config::new(seed));
            for _ in 0..2000 {
                point("test::site_a");
                point("test::site_b");
            }
            session
                .take_schedule()
                .into_iter()
                .map(|e| (e.site, e.action))
                .collect::<Vec<_>>()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert!(!a.is_empty(), "chaos decisions never fired");
        assert_eq!(a, b, "equal seeds must replay the same schedule");
        assert_ne!(a, c, "distinct seeds should diverge");
    }

    #[test]
    fn gates_park_and_release_exactly_once() {
        let session = arm(Config {
            seed: 7,
            yield_ppm: 0,
            spin_ppm: 0,
        });
        session.close_once("test::gate");
        let reached = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&reached);
        let h = std::thread::spawn(move || {
            point("test::gate");
            r2.fetch_add(1, Ordering::SeqCst);
        });
        session.await_parked("test::gate", 1);
        assert_eq!(reached.load(Ordering::SeqCst), 0, "thread must be parked");
        session.open("test::gate");
        h.join().unwrap();
        assert_eq!(reached.load(Ordering::SeqCst), 1);
        // Gate is one-shot: a second arrival passes freely.
        point("test::gate");
    }

    #[test]
    fn dropping_a_session_releases_parked_threads() {
        let session = arm(Config {
            seed: 9,
            yield_ppm: 0,
            spin_ppm: 0,
        });
        session.close_once("test::drop_gate");
        let h = std::thread::spawn(|| point("test::drop_gate"));
        session.await_parked("test::drop_gate", 1);
        drop(session);
        h.join().unwrap();
    }
}
