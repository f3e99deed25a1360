//! Observability for the BDL stack: a lifecycle flight recorder, the
//! unified [`MetricsRegistry`], and a std-only JSON writer/parser pair.
//!
//! The paper's argument is quantitative — Fig. 2's abort-cause
//! breakdown, §5.1's write amplification, Fig. 7's epoch-length
//! sensitivity — but the simulator's counters grew up as three
//! disconnected islands (`HtmStats`, `NvmStats`, `EpochStats`) with no
//! latency data and no record of what the system was *doing* when a
//! fault-sweep crash point fired. This module unifies them:
//!
//! * [`Obs`] — per-`EpochSys` instrumentation: log₂ latency histograms
//!   (op latency, restarts per op, advance duration, persist batch
//!   size) and a lock-free per-thread ring buffer of lifecycle events.
//!   Everything on the hot path costs only relaxed per-thread writes,
//!   so the pinned fault-sweep digest and bench throughput are
//!   unaffected.
//! * [`MetricsRegistry`] / [`MetricsReport`] — one snapshot call that
//!   folds HTM, NVM, epoch, allocator, and histogram data into a
//!   stable, versioned JSON document (hand-written writer, no serde).
//! * [`JsonValue`] — a small recursive-descent JSON parser used by the
//!   round-trip tests and the `metrics_check` validation binary.

use crate::error::HealthState;
use crate::esys::{EpochStatsSnapshot, EpochSys};
use htm_sim::{max_threads, thread_id, HistSnapshot, Htm, LogHistogram, StatsSnapshot};
use nvm_sim::{NvmHeap, NvmStatsSnapshot};
use persist_alloc::AllocStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Default events per thread kept by the flight recorder. Small on
/// purpose: the postmortem recorder answers "what were the last few
/// things each thread did before the failure", not "give me a full
/// trace". Trace-export runs raise the capacity via
/// [`EpochConfig::flight_slots`](crate::EpochConfig::flight_slots) so
/// the exported timeline covers more than the final instants.
pub const RING_SLOTS: usize = 64;

/// Lifecycle event vocabulary (see DESIGN.md §6 for payload meanings).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u64)]
pub enum EventKind {
    /// An operation registered: `a` = epoch.
    OpBegin = 0,
    /// An operation attempt aborted its registration: `a` = epoch,
    /// `b` = abort tag ([`ABORT_RESTART`], `1 + explicit code`, or
    /// [`ABORT_UNWIND`]).
    OpAbort = 1,
    /// An operation committed: `a` = epoch, `b` = restarts it took.
    OpCommit = 2,
    /// The epoch clock moved: `a` = new epoch, `b` = new frontier.
    EpochAdvance = 3,
    /// An advance flushed tracked blocks: `a` = blocks, `b` = words.
    PersistBatch = 4,
    /// `begin_op` helped advance under a full buffered set:
    /// `a` = buffered words, `b` = configured bound.
    Backpressure = 5,
    /// The `nvm-sim` fault plan fired a crash point: `a` = point index,
    /// `b` = crash-point kind code.
    FaultInjected = 6,
    /// An advance sealed an epoch's buffers into a batch: `a` = tracked
    /// entries as sealed (duplicates merge later, at persist intake),
    /// `b` = accounted words.
    BatchSealed = 7,
    /// The persister finished a batch and published the frontier:
    /// `a` = new frontier epoch, `b` = blocks written back.
    BatchPersisted = 8,
    /// The persist pipeline was full and the advance stalled the clock:
    /// `a` = batches in flight, `b` = configured depth.
    PipelineStall = 9,
    /// A batch write-back hit a transient device error and will retry:
    /// `a` = batch epoch, `b` = attempt number (1-based).
    PersistRetry = 10,
    /// The health ladder ratcheted up: `a` = new
    /// [`HealthState`] code, `b` = epoch of the causing batch
    /// (`u64::MAX` when the cause was not a persist failure).
    DegradedToSync = 11,
    /// The watchdog detected a stall: `a` = reason code
    /// (see [`crate::watchdog`]), `b` = consecutive firings.
    WatchdogFired = 12,
    /// A user op closure panicked inside `run_op`: `a` = epoch,
    /// `b` = restarts before the panic.
    OpPanicked = 13,
}

/// [`EventKind::OpAbort`] tag: the structure requested a restart.
pub const ABORT_RESTART: u64 = 0;
/// [`EventKind::OpAbort`] tag: a panic unwound through the bracket.
pub const ABORT_UNWIND: u64 = u64::MAX;

impl EventKind {
    fn of(code: u64) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::OpBegin),
            1 => Some(EventKind::OpAbort),
            2 => Some(EventKind::OpCommit),
            3 => Some(EventKind::EpochAdvance),
            4 => Some(EventKind::PersistBatch),
            5 => Some(EventKind::Backpressure),
            6 => Some(EventKind::FaultInjected),
            7 => Some(EventKind::BatchSealed),
            8 => Some(EventKind::BatchPersisted),
            9 => Some(EventKind::PipelineStall),
            10 => Some(EventKind::PersistRetry),
            11 => Some(EventKind::DegradedToSync),
            12 => Some(EventKind::WatchdogFired),
            13 => Some(EventKind::OpPanicked),
            _ => None,
        }
    }
}

struct Slot {
    /// 1-based per-thread event number; 0 = never written. Stored last
    /// (Release) so a dump that observes it sees the payload stores.
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Events this thread has written (owner-only counter). Never
    /// wraps back: `next − slots.len()` is exactly how many events the
    /// ring has silently overwritten (the `events_dropped` gauge).
    next: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    t_ns: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Events overwritten by ring wrap so far.
    fn dropped(&self) -> u64 {
        self.next
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len() as u64)
    }
}

/// One recovered event, ordered by a monotonic timestamp shared by all
/// threads of the recorder.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder (i.e. the `EpochSys`) was built.
    pub t_ns: u64,
    /// Recording thread's dense id.
    pub tid: usize,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

impl FlightEvent {
    /// Human-readable one-liner for postmortem dumps.
    pub fn render(&self) -> String {
        let head = format!("[+{:>12}ns t{:02}] ", self.t_ns, self.tid);
        let body = match self.kind {
            EventKind::OpBegin => format!("OpBegin      e={}", self.a),
            EventKind::OpAbort => {
                let cause = match self.b {
                    ABORT_RESTART => "restart".to_string(),
                    ABORT_UNWIND => "unwind".to_string(),
                    tag => {
                        let code = tag - 1;
                        if code == crate::esys::OLD_SEE_NEW as u64 {
                            format!("old_see_new({code:#04x})")
                        } else {
                            format!("explicit({code:#04x})")
                        }
                    }
                };
                format!("OpAbort      e={} cause={}", self.a, cause)
            }
            EventKind::OpCommit => format!("OpCommit     e={} restarts={}", self.a, self.b),
            EventKind::EpochAdvance => {
                format!("EpochAdvance e={} frontier={}", self.a, self.b)
            }
            EventKind::PersistBatch => {
                format!("PersistBatch blocks={} words={}", self.a, self.b)
            }
            EventKind::Backpressure => {
                format!("Backpressure buffered={} bound={}", self.a, self.b)
            }
            EventKind::FaultInjected => {
                let kind = ["clwb", "fence", "format_line", "evict_line"]
                    .get(self.b as usize)
                    .copied()
                    .unwrap_or("?");
                format!("FaultInjected point={} kind={}", self.a, kind)
            }
            EventKind::BatchSealed => {
                format!("BatchSealed  blocks={} words={}", self.a, self.b)
            }
            EventKind::BatchPersisted => {
                format!("BatchPersisted frontier={} blocks={}", self.a, self.b)
            }
            EventKind::PipelineStall => {
                format!("PipelineStall in_flight={} depth={}", self.a, self.b)
            }
            EventKind::PersistRetry => {
                format!("PersistRetry e={} attempt={}", self.a, self.b)
            }
            EventKind::DegradedToSync => {
                let to = HealthState::from_code(self.a.min(u8::MAX as u64) as u8).as_str();
                if self.b == u64::MAX {
                    format!("DegradedToSync to={to}")
                } else {
                    format!("DegradedToSync to={to} cause_epoch={}", self.b)
                }
            }
            EventKind::WatchdogFired => {
                format!("WatchdogFired reason={} consecutive={}", self.a, self.b)
            }
            EventKind::OpPanicked => {
                format!("OpPanicked   e={} restarts={}", self.a, self.b)
            }
        };
        head + &body
    }
}

/// Lock-free per-thread ring buffer of lifecycle events.
///
/// Each thread owns one lazily-allocated ring and is its only writer;
/// recording is a handful of relaxed stores plus one Release store of
/// the slot's sequence number. [`FlightRecorder::dump`] may race an
/// active writer, in which case at worst one in-flight slot renders
/// stale fields — acceptable for a postmortem diagnostic, and the
/// common consumer (the fault sweep) dumps from a single thread after
/// the crash unwound.
pub struct FlightRecorder {
    origin: Instant,
    capacity: usize,
    rings: Box<[OnceLock<Box<Ring>>]>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::with_slots(Instant::now(), RING_SLOTS)
    }

    /// A recorder with `capacity` slots per thread whose event
    /// timestamps count from `origin` (shared with the durability-lag
    /// tracker so exported traces and lag spans line up).
    pub(crate) fn with_slots(origin: Instant, capacity: usize) -> Self {
        FlightRecorder {
            origin,
            capacity: capacity.max(1),
            rings: (0..max_threads()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Records one event on the calling thread.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.record_at(self.origin.elapsed().as_nanos() as u64, kind, a, b);
    }

    /// Records one event with a caller-supplied timestamp (nanoseconds
    /// since the recorder's origin) so one `Instant::now()` can serve
    /// both this event and another timeline (the lag tracker).
    #[inline]
    pub(crate) fn record_at(&self, t_ns: u64, kind: EventKind, a: u64, b: u64) {
        let ring = self.rings[thread_id()].get_or_init(|| Box::new(Ring::new(self.capacity)));
        let n = ring.next.load(Ordering::Relaxed);
        let slot = &ring.slots[(n % ring.slots.len() as u64) as usize];
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(n + 1, Ordering::Release);
        ring.next.store(n + 1, Ordering::Relaxed);
    }

    /// Total events silently overwritten by ring wrap, summed across
    /// threads. A non-zero value means [`dump`](Self::dump) (and any
    /// trace exported from it) is missing that many older events.
    pub fn events_dropped(&self) -> u64 {
        self.rings
            .iter()
            .filter_map(|slot| slot.get())
            .map(|ring| ring.dropped())
            .sum()
    }

    /// The last `max` events across all threads, oldest first, merged
    /// by timestamp.
    pub fn dump(&self, max: usize) -> Vec<FlightEvent> {
        let mut events = Vec::new();
        for (tid, slot) in self.rings.iter().enumerate() {
            let Some(ring) = slot.get() else { continue };
            for s in ring.slots.iter() {
                if s.seq.load(Ordering::Acquire) == 0 {
                    continue;
                }
                let Some(kind) = EventKind::of(s.kind.load(Ordering::Relaxed)) else {
                    continue;
                };
                events.push(FlightEvent {
                    t_ns: s.t_ns.load(Ordering::Relaxed),
                    tid,
                    kind,
                    a: s.a.load(Ordering::Relaxed),
                    b: s.b.load(Ordering::Relaxed),
                });
            }
        }
        events.sort_by_key(|e| (e.t_ns, e.tid));
        if events.len() > max {
            events.drain(..events.len() - max);
        }
        events
    }
}

// ---------------------------------------------------------------------------
// Durability-lag tracker
// ---------------------------------------------------------------------------

/// Epoch generations a lag shard distinguishes. Must exceed the worst
/// frontier lag of a healthy system (`pipeline_depth + 2`, default 4)
/// so a slot is never reused before its epoch publishes; reuse beyond
/// that (deep Degraded stalls, a FailStop-pinned frontier) is detected
/// by the epoch tag and counted as dropped spans, never mis-folded.
const LAG_GENS: usize = 8;

/// Commit timestamps kept verbatim per thread per epoch; commits beyond
/// this fold through the overflow aggregate at their mean commit time.
const LAG_SAMPLES: usize = 512;

/// Lag-slot epoch tag meaning "never used".
const LAG_EMPTY: u64 = u64::MAX;

/// One epoch's commit timestamps for one thread. The owning thread is
/// the only writer; the publisher (whoever runs `complete_batch` for
/// this epoch) only reads. All fields are atomics so the one
/// pathological race — an owner recycling the slot for epoch
/// `e + LAG_GENS` while the publisher still folds epoch `e` — is a
/// coherence question, not UB; the tag double-check below bounds the
/// damage to miscounting a handful of spans in an already-failed run.
struct LagSlot {
    /// The epoch whose commits this slot holds ([`LAG_EMPTY`] = unused).
    epoch: AtomicU64,
    /// Samples stored in `samples` (owner-only; capped at
    /// [`LAG_SAMPLES`]).
    len: AtomicU64,
    /// Commits beyond the sample capacity, and the sum of their commit
    /// times in µs-granules (`t_ns >> 10`, so ~10⁹ overflow commits of
    /// multi-hour timestamps still fit a u64).
    overflow_count: AtomicU64,
    overflow_sum_us: AtomicU64,
    /// Commit times, nanoseconds since the [`Obs`] origin.
    samples: Box<[AtomicU64]>,
}

impl LagSlot {
    fn new() -> Self {
        LagSlot {
            epoch: AtomicU64::new(LAG_EMPTY),
            len: AtomicU64::new(0),
            overflow_count: AtomicU64::new(0),
            overflow_sum_us: AtomicU64::new(0),
            samples: (0..LAG_SAMPLES).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

struct LagShard {
    slots: [LagSlot; LAG_GENS],
}

/// Per-op commit→durable span collection: each committing thread stamps
/// its commit time into the slot of its op's epoch; when that epoch's
/// batch publishes the frontier, `complete_batch` folds
/// `t_publish − t_commit` for every stamped commit into the
/// `durability_lag_ns` histogram.
///
/// Why the publisher may read the owner's relaxed stores: every commit
/// in epoch `r` happens-before the seal of `r` (the op's Release
/// deregister is observed by the sealer's SeqCst straggler scan),
/// which happens-before the publish (batch hand-off through the
/// pipeline mutex). Slot *reuse* is the only access outside that
/// ordering, and the epoch tag guards it.
pub(crate) struct LagTracker {
    shards: Box<[OnceLock<Box<LagShard>>]>,
    /// Spans whose epoch was recycled before it ever published
    /// (frontier pinned by FailStop, or lag beyond [`LAG_GENS`]). These
    /// ops committed but their durability was never observed — counting
    /// them as zero or infinite lag would both lie, so they are counted
    /// here and surfaced as `derived.lag_spans_dropped`.
    dropped: AtomicU64,
}

impl LagTracker {
    fn new() -> Self {
        LagTracker {
            shards: (0..max_threads()).map(|_| OnceLock::new()).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Stamps one commit at `t_ns` for `epoch` on the calling thread.
    /// `frontier` is the durable frontier at the time of the call; it
    /// decides whether a recycled slot's old spans were published
    /// (already folded) or lost (count as dropped).
    #[inline]
    fn record_commit(&self, epoch: u64, t_ns: u64, frontier: u64) {
        let shard = self.shards[thread_id()].get_or_init(|| {
            Box::new(LagShard {
                slots: std::array::from_fn(|_| LagSlot::new()),
            })
        });
        let slot = &shard.slots[(epoch % LAG_GENS as u64) as usize];
        let tag = slot.epoch.load(Ordering::Relaxed);
        if tag != epoch {
            if tag != LAG_EMPTY && tag > frontier {
                let lost =
                    slot.len.load(Ordering::Relaxed) + slot.overflow_count.load(Ordering::Relaxed);
                self.dropped.fetch_add(lost, Ordering::Relaxed);
            }
            slot.len.store(0, Ordering::Relaxed);
            slot.overflow_count.store(0, Ordering::Relaxed);
            slot.overflow_sum_us.store(0, Ordering::Relaxed);
            // Release: a publisher that acquires the new tag must also
            // see the cleared counters, not the old epoch's.
            slot.epoch.store(epoch, Ordering::Release);
        }
        let n = slot.len.load(Ordering::Relaxed);
        if (n as usize) < LAG_SAMPLES {
            slot.samples[n as usize].store(t_ns, Ordering::Relaxed);
            // Release pairs with the publisher's Acquire len read: a
            // sample is visible once the length covering it is.
            slot.len.store(n + 1, Ordering::Release);
        } else {
            slot.overflow_count.fetch_add(1, Ordering::Relaxed);
            slot.overflow_sum_us
                .fetch_add(t_ns >> 10, Ordering::Relaxed);
        }
    }

    /// Folds every thread's spans for `epoch` into `hist` as
    /// `now_ns − t_commit`. Called by `complete_batch` with the publish
    /// timestamp, before the frontier mirror moves. Returns the number
    /// of spans folded.
    fn fold_epoch(&self, epoch: u64, now_ns: u64, hist: &LogHistogram) -> u64 {
        let mut folded = 0u64;
        for shard in self.shards.iter().filter_map(|s| s.get()) {
            let slot = &shard.slots[(epoch % LAG_GENS as u64) as usize];
            if slot.epoch.load(Ordering::Acquire) != epoch {
                continue;
            }
            let n = (slot.len.load(Ordering::Acquire) as usize).min(LAG_SAMPLES);
            for sample in &slot.samples[..n] {
                hist.record(now_ns.saturating_sub(sample.load(Ordering::Relaxed)));
            }
            let oc = slot.overflow_count.load(Ordering::Relaxed);
            if let Some(mean_us) = slot.overflow_sum_us.load(Ordering::Relaxed).checked_div(oc) {
                hist.record_n(now_ns.saturating_sub(mean_us << 10), oc);
            }
            folded += n as u64 + oc;
        }
        folded
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Per-EpochSys instrumentation bundle
// ---------------------------------------------------------------------------

/// Instrumentation carried by every [`EpochSys`]: latency/size
/// histograms, the durability-lag tracker, and the flight recorder. All
/// four `BdlKv` structures inherit it through `run_op`; the epoch
/// ticker, persist pipeline, and backpressure path feed it from inside
/// the epoch system itself. The recorder and the lag tracker share one
/// `origin` instant, so flight-event timestamps and lag spans live on
/// the same timeline (what makes the exported trace's lag arrows line
/// up with the op tracks).
pub struct Obs {
    origin: Instant,
    recorder: FlightRecorder,
    lag: LagTracker,
    pub(crate) op_latency_ns: LogHistogram,
    pub(crate) op_restarts: LogHistogram,
    pub(crate) advance_ns: LogHistogram,
    pub(crate) persist_batch_blocks: LogHistogram,
    pub(crate) batch_persist_ns: LogHistogram,
    pub(crate) durability_lag_ns: LogHistogram,
    pub(crate) persist_chunks: LogHistogram,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    pub fn new() -> Self {
        Self::with_flight_slots(RING_SLOTS)
    }

    /// An `Obs` whose flight recorder keeps `flight_slots` events per
    /// thread (see [`EpochConfig::flight_slots`](crate::EpochConfig::flight_slots)).
    pub fn with_flight_slots(flight_slots: usize) -> Self {
        let origin = Instant::now();
        Obs {
            origin,
            recorder: FlightRecorder::with_slots(origin, flight_slots),
            lag: LagTracker::new(),
            op_latency_ns: LogHistogram::new(),
            op_restarts: LogHistogram::new(),
            advance_ns: LogHistogram::new(),
            persist_batch_blocks: LogHistogram::new(),
            batch_persist_ns: LogHistogram::new(),
            durability_lag_ns: LogHistogram::new(),
            persist_chunks: LogHistogram::new(),
        }
    }

    /// Records one lifecycle event (see [`EventKind`] for payloads).
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        self.recorder.record(kind, a, b);
    }

    /// Records an op commit: the `OpCommit` flight event *and* the
    /// durability-lag span stamp, from a single `Instant::now()` so the
    /// two timelines agree. `frontier` is the durable frontier at call
    /// time (recycled-slot accounting; see [`LagTracker`]).
    #[inline]
    pub(crate) fn commit_event(&self, epoch: u64, restarts: u64, frontier: u64) {
        let t_ns = self.origin.elapsed().as_nanos() as u64;
        self.recorder
            .record_at(t_ns, EventKind::OpCommit, epoch, restarts);
        self.lag.record_commit(epoch, t_ns, frontier);
    }

    /// Folds every commit span of `epoch` into the `durability_lag_ns`
    /// histogram, stamped against now. Called by `complete_batch` when
    /// the batch closing `epoch` has fully persisted.
    pub(crate) fn fold_epoch_lag(&self, epoch: u64) -> u64 {
        let now_ns = self.origin.elapsed().as_nanos() as u64;
        self.lag.fold_epoch(epoch, now_ns, &self.durability_lag_ns)
    }

    /// The last `max` lifecycle events across all threads.
    pub fn dump(&self, max: usize) -> Vec<FlightEvent> {
        self.recorder.dump(max)
    }

    /// Flight-recorder events lost to ring wrap across all threads.
    pub fn flight_events_dropped(&self) -> u64 {
        self.recorder.events_dropped()
    }

    /// Commit→durable spans that could never be folded because their
    /// epoch's slot was recycled before the epoch published (FailStop
    /// frontier pin or frontier lag beyond the tracker's window).
    pub fn lag_spans_dropped(&self) -> u64 {
        self.lag.dropped()
    }

    /// End-to-end `run_op` latency, nanoseconds.
    pub fn op_latency_ns(&self) -> &LogHistogram {
        &self.op_latency_ns
    }

    /// Registration restarts per completed operation.
    pub fn op_restarts(&self) -> &LogHistogram {
        &self.op_restarts
    }

    /// `advance` duration, nanoseconds.
    pub fn advance_ns(&self) -> &LogHistogram {
        &self.advance_ns
    }

    /// Tracked blocks flushed per epoch transition.
    pub fn persist_batch_blocks(&self) -> &LogHistogram {
        &self.persist_batch_blocks
    }

    /// Background write-back duration per sealed batch, nanoseconds
    /// (persister side; `advance_ns` no longer contains this work when
    /// a persister is attached).
    pub fn batch_persist_ns(&self) -> &LogHistogram {
        &self.batch_persist_ns
    }

    /// Per-op commit→durable latency, nanoseconds: the time from an
    /// operation's commit to the frontier publish that made its epoch
    /// durable — the buffered-durability window the paper trades
    /// against throughput.
    pub fn durability_lag_ns(&self) -> &LogHistogram {
        &self.durability_lag_ns
    }

    /// Chunks each batch's flush plan was split into by the persister
    /// pool (1 = serial write-back; larger = fan-out width actually
    /// achieved for that batch).
    pub fn persist_chunks(&self) -> &LogHistogram {
        &self.persist_chunks
    }
}

// ---------------------------------------------------------------------------
// Metrics registry and report
// ---------------------------------------------------------------------------

/// Derived point-in-time gauges of the epoch system.
#[derive(Clone, Copy, Debug)]
pub struct DerivedGauges {
    pub current_epoch: u64,
    pub persisted_frontier: u64,
    /// `current_epoch − persisted_frontier`: 2 in steady state; growth
    /// means the ticker is falling behind (Fig. 7's failure mode).
    pub frontier_lag: u64,
    /// Words tracked for background persistence and not yet flushed.
    pub buffered_words: u64,
    /// Position on the runtime health ladder (see [`HealthState`]).
    pub health: HealthState,
    /// Commit→durable latency quantiles (ns), from `durability_lag_ns`.
    pub durability_lag_p50: u64,
    pub durability_lag_p99: u64,
    pub durability_lag_max: u64,
    /// Commit spans whose epoch never published (see
    /// [`Obs::lag_spans_dropped`]).
    pub lag_spans_dropped: u64,
    /// Flight-recorder events lost to ring wrap (see
    /// [`Obs::flight_events_dropped`]).
    pub flight_events_dropped: u64,
    /// Attached write-back workers: the persister head-count plus the
    /// pool's chunk workers (0 = everything persists inline).
    pub persist_workers: u64,
    /// Cumulative words written back per pool worker slot (slot 0 is
    /// the coordinator / inline drains; chunk workers fill 1..) — the
    /// fan-out balance gauge.
    pub persist_worker_words: [u64; crate::MAX_PERSIST_WORKERS],
}

/// A histogram snapshot with its identity in the report schema.
#[derive(Clone, Copy, Debug)]
pub struct NamedHist {
    pub name: &'static str,
    pub unit: &'static str,
    pub snap: HistSnapshot,
}

/// Aggregates the stack's stats sources into one [`MetricsReport`].
/// Attach whatever the program actually built — absent sources simply
/// drop out of the report.
#[derive(Default, Clone)]
pub struct MetricsRegistry {
    esys: Option<Arc<EpochSys>>,
    htm: Option<Arc<Htm>>,
    heap: Option<Arc<NvmHeap>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an epoch system: contributes epoch stats, derived
    /// gauges, allocator stats, NVM traffic (via its heap), and the
    /// lifecycle histograms.
    pub fn attach_esys(&mut self, esys: Arc<EpochSys>) {
        self.esys = Some(esys);
    }

    /// Attaches an HTM domain: contributes commit/abort stats and the
    /// backoff-wait histogram.
    pub fn attach_htm(&mut self, htm: Arc<Htm>) {
        self.htm = Some(htm);
    }

    /// Attaches a bare heap (for programs with NVM traffic but no epoch
    /// system, e.g. the MwCAS benchmark). Ignored when an epoch system
    /// is attached — the report uses the epoch system's heap.
    pub fn attach_heap(&mut self, heap: Arc<NvmHeap>) {
        self.heap = Some(heap);
    }

    /// Snapshots every attached source.
    pub fn report(&self) -> MetricsReport {
        let mut histograms = Vec::new();
        if let Some(htm) = &self.htm {
            histograms.push(NamedHist {
                name: "htm_backoff_spins",
                unit: "spins",
                snap: htm.backoff_hist().snapshot(),
            });
        }
        let mut nvm = self.heap.as_ref().map(|h| h.stats().snapshot());
        let mut epoch = None;
        let mut alloc = None;
        let mut derived = None;
        if let Some(esys) = &self.esys {
            nvm = Some(esys.heap().stats().snapshot());
            epoch = Some(esys.stats().snapshot());
            alloc = Some(esys.alloc_stats());
            let current_epoch = esys.current_epoch();
            let persisted_frontier = esys.persisted_frontier();
            let obs = esys.obs();
            let lag = obs.durability_lag_ns.snapshot();
            derived = Some(DerivedGauges {
                current_epoch,
                persisted_frontier,
                frontier_lag: current_epoch.saturating_sub(persisted_frontier),
                buffered_words: esys.buffered_words(),
                health: esys.health(),
                durability_lag_p50: lag.p50(),
                durability_lag_p99: lag.p99(),
                durability_lag_max: lag.max,
                lag_spans_dropped: obs.lag_spans_dropped(),
                flight_events_dropped: obs.flight_events_dropped(),
                persist_workers: esys.persist_pool_workers(),
                persist_worker_words: esys.persist_worker_words(),
            });
            histograms.push(NamedHist {
                name: "op_latency_ns",
                unit: "ns",
                snap: obs.op_latency_ns.snapshot(),
            });
            histograms.push(NamedHist {
                name: "op_restarts",
                unit: "restarts",
                snap: obs.op_restarts.snapshot(),
            });
            histograms.push(NamedHist {
                name: "advance_ns",
                unit: "ns",
                snap: obs.advance_ns.snapshot(),
            });
            histograms.push(NamedHist {
                name: "persist_batch_blocks",
                unit: "blocks",
                snap: obs.persist_batch_blocks.snapshot(),
            });
            histograms.push(NamedHist {
                name: "batch_persist_ns",
                unit: "ns",
                snap: obs.batch_persist_ns.snapshot(),
            });
            histograms.push(NamedHist {
                name: "durability_lag_ns",
                unit: "ns",
                snap: lag,
            });
            histograms.push(NamedHist {
                name: "persist_chunks",
                unit: "chunks",
                snap: obs.persist_chunks.snapshot(),
            });
        }
        MetricsReport {
            htm: self.htm.as_ref().map(|h| h.stats().snapshot()),
            nvm,
            epoch,
            alloc,
            derived,
            histograms,
        }
    }
}

/// One coherent snapshot of every attached stats source. Serialize with
/// [`MetricsReport::to_json`]; the schema is documented in DESIGN.md §6.
pub struct MetricsReport {
    pub htm: Option<StatsSnapshot>,
    pub nvm: Option<NvmStatsSnapshot>,
    pub epoch: Option<EpochStatsSnapshot>,
    pub alloc: Option<AllocStats>,
    pub derived: Option<DerivedGauges>,
    pub histograms: Vec<NamedHist>,
}

/// Schema identifier emitted in every report.
pub const METRICS_SCHEMA: &str = "bdhtm-metrics";
/// Schema identifier of the time-series stream a
/// [`Sampler`](crate::Sampler) emits: one JSON object per line, each
/// wrapping a delta [`MetricsReport`] (see [`series_line`]).
pub const METRICS_SERIES_SCHEMA: &str = "bdhtm-metrics-series";
/// Schema version; bump when a key changes meaning or disappears.
/// Consumers (`metrics_check`) accept exactly this version.
pub const METRICS_VERSION: u64 = 5;

/// Formats an `f64` as a JSON number token (never `NaN`/`inf`, which
/// JSON forbids — non-finite values degrade to 0).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".to_string()
    }
}

fn json_hist(out: &mut String, h: &NamedHist) {
    out.push('"');
    out.push_str(h.name);
    out.push_str("\":{");
    out.push_str(&format!(
        "\"unit\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
        h.unit,
        h.snap.count,
        h.snap.sum,
        h.snap.max,
        json_f64(h.snap.mean()),
        h.snap.p50(),
        h.snap.p95(),
        h.snap.p99(),
    ));
    let mut first = true;
    for (i, &n) in h.snap.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{i},{n}]"));
    }
    out.push_str("]}");
}

impl MetricsReport {
    /// Serializes the report to the versioned `bdhtm-metrics` JSON
    /// schema (DESIGN.md §6). Sections whose source was not attached
    /// are omitted entirely rather than emitted empty.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(&format!(
            "{{\"schema\":\"{METRICS_SCHEMA}\",\"version\":{METRICS_VERSION}"
        ));
        if let Some(h) = &self.htm {
            s.push_str(&format!(
                ",\"htm\":{{\"commits\":{},\"fallbacks\":{},\"attempts\":{},\
                 \"commit_ratio\":{},\"aborts\":{{",
                h.commits,
                h.fallbacks,
                h.attempts(),
                json_f64(h.commit_ratio()),
            ));
            for (i, &n) in h.aborts.iter().enumerate() {
                if i != 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{}", htm_sim::AbortCause::label(i), n));
            }
            s.push_str("}}");
        }
        if let Some(n) = &self.nvm {
            s.push_str(&format!(
                ",\"nvm\":{{\"reads\":{},\"writes\":{},\"cas_ops\":{},\"flushes\":{},\
                 \"lines_written_back\":{},\"xplines_touched\":{},\"fences\":{},\
                 \"evicted_lines\":{},\"media_bytes\":{},\"write_amplification\":{}}}",
                n.reads,
                n.writes,
                n.cas_ops,
                n.flushes,
                n.lines_written_back,
                n.xplines_touched,
                n.fences,
                n.evicted_lines,
                n.media_bytes(),
                json_f64(n.write_amplification()),
            ));
        }
        if let Some(e) = &self.epoch {
            s.push_str(&format!(
                ",\"epoch\":{{\"advances\":{},\"blocks_persisted\":{},\"words_persisted\":{},\
                 \"blocks_reclaimed\":{},\"backpressure_advances\":{},\
                 \"pipeline_stalls\":{},\"persist_retries\":{},\"coalesced_flushes\":{},\
                 \"degradations\":{},\"watchdog_fires\":{}}}",
                e.advances,
                e.blocks_persisted,
                e.words_persisted,
                e.blocks_reclaimed,
                e.backpressure_advances,
                e.pipeline_stalls,
                e.persist_retries,
                e.coalesced_flushes,
                e.degradations,
                e.watchdog_fires,
            ));
        }
        if let Some(a) = &self.alloc {
            s.push_str(",\"alloc\":{\"live_blocks\":[");
            for (i, &n) in a.live_blocks.iter().enumerate() {
                if i != 0 {
                    s.push(',');
                }
                s.push_str(&n.to_string());
            }
            s.push_str(&format!("],\"bytes_in_use\":{}}}", a.bytes_in_use()));
        }
        if let Some(d) = &self.derived {
            s.push_str(&format!(
                ",\"derived\":{{\"current_epoch\":{},\"persisted_frontier\":{},\
                 \"frontier_lag\":{},\"buffered_words\":{},\"health\":\"{}\",\
                 \"durability_lag_p50\":{},\"durability_lag_p99\":{},\
                 \"durability_lag_max\":{},\"lag_spans_dropped\":{},\
                 \"flight_events_dropped\":{},\"persist_workers\":{}",
                d.current_epoch,
                d.persisted_frontier,
                d.frontier_lag,
                d.buffered_words,
                d.health.as_str(),
                d.durability_lag_p50,
                d.durability_lag_p99,
                d.durability_lag_max,
                d.lag_spans_dropped,
                d.flight_events_dropped,
                d.persist_workers,
            ));
            s.push_str(",\"persist_worker_words\":[");
            for (i, &w) in d.persist_worker_words.iter().enumerate() {
                if i != 0 {
                    s.push(',');
                }
                s.push_str(&w.to_string());
            }
            s.push_str("]}");
        }
        s.push_str(",\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i != 0 {
                s.push(',');
            }
            json_hist(&mut s, h);
        }
        s.push_str("}}");
        s
    }

    /// The delta between two reports of the same registry: monotonic
    /// counters and histograms subtract (saturating, like the
    /// per-source `since` methods they build on); point-in-time gauges
    /// (`alloc`, `derived`) keep this report's values. The
    /// [`Sampler`](crate::Sampler) emits exactly these deltas, so each
    /// series line describes one interval instead of a growing total.
    pub fn since(&self, earlier: &MetricsReport) -> MetricsReport {
        MetricsReport {
            htm: match (&self.htm, &earlier.htm) {
                (Some(now), Some(then)) => Some(now.since(then)),
                _ => self.htm,
            },
            nvm: match (&self.nvm, &earlier.nvm) {
                (Some(now), Some(then)) => Some(now.since(then)),
                _ => self.nvm,
            },
            epoch: match (&self.epoch, &earlier.epoch) {
                (Some(now), Some(then)) => Some(now.since(then)),
                _ => self.epoch,
            },
            alloc: self.alloc,
            derived: self.derived,
            histograms: self
                .histograms
                .iter()
                .map(
                    |h| match earlier.histograms.iter().find(|e| e.name == h.name) {
                        Some(e) => NamedHist {
                            name: h.name,
                            unit: h.unit,
                            snap: h.snap.since(&e.snap),
                        },
                        None => *h,
                    },
                )
                .collect(),
        }
    }
}

/// Serializes one line of the `bdhtm-metrics-series` JSON-lines stream:
/// the sample's timestamp (ns since the sampler started), its sequence
/// number, and the interval's delta report.
pub fn series_line(t_ns: u64, seq: u64, delta: &MetricsReport) -> String {
    format!(
        "{{\"schema\":\"{METRICS_SERIES_SCHEMA}\",\"version\":{METRICS_VERSION},\
         \"t_ns\":{t_ns},\"seq\":{seq},\"delta\":{}}}",
        delta.to_json()
    )
}

// ---------------------------------------------------------------------------
// JSON parser (validation side)
// ---------------------------------------------------------------------------

/// A parsed JSON value — the readback half of the metrics pipeline,
/// used by round-trip tests and the `metrics_check` binary. Minimal by
/// design: numbers are `f64` (exact for every counter below 2⁵³).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str).
                    let rest = &self.b[self.i..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            members.push((key, val));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_dumps_in_order() {
        let r = FlightRecorder::new();
        r.record(EventKind::OpBegin, 2, 0);
        r.record(EventKind::OpCommit, 2, 0);
        r.record(EventKind::EpochAdvance, 3, 1);
        let d = r.dump(16);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].kind, EventKind::OpBegin);
        assert_eq!(d[2].kind, EventKind::EpochAdvance);
        assert!(d.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let r = FlightRecorder::new();
        for i in 0..(RING_SLOTS as u64 + 10) {
            r.record(EventKind::OpBegin, i, 0);
        }
        let d = r.dump(usize::MAX);
        assert_eq!(d.len(), RING_SLOTS, "ring holds exactly RING_SLOTS");
        // The oldest 10 were overwritten; the newest survive in order.
        assert_eq!(d.first().unwrap().a, 10);
        assert_eq!(d.last().unwrap().a, RING_SLOTS as u64 + 9);
        assert!(d.windows(2).all(|w| w[1].a == w[0].a + 1));
    }

    #[test]
    fn dump_respects_bound() {
        let r = FlightRecorder::new();
        for i in 0..20 {
            r.record(EventKind::OpCommit, i, 0);
        }
        let d = r.dump(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.last().unwrap().a, 19, "bound keeps the newest");
        assert_eq!(d.first().unwrap().a, 15);
    }

    #[test]
    fn render_is_stable() {
        let e = FlightEvent {
            t_ns: 42,
            tid: 3,
            kind: EventKind::OpAbort,
            a: 5,
            b: 1 + crate::esys::OLD_SEE_NEW as u64,
        };
        let s = e.render();
        assert!(s.contains("OpAbort"), "{s}");
        assert!(s.contains("old_see_new(0xa1)"), "{s}");
        let f = FlightEvent {
            t_ns: 1,
            tid: 0,
            kind: EventKind::FaultInjected,
            a: 7,
            b: 0,
        };
        assert!(f.render().contains("kind=clwb"));
    }

    #[test]
    fn lag_spans_fold_into_the_histogram_on_publish() {
        let obs = Obs::new();
        obs.commit_event(2, 0, 0);
        obs.commit_event(2, 1, 0);
        obs.commit_event(3, 0, 0); // a later epoch, different slot
        assert_eq!(obs.fold_epoch_lag(2), 2, "exactly epoch 2's spans fold");
        let snap = obs.durability_lag_ns().snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(obs.lag_spans_dropped(), 0);
        assert_eq!(obs.fold_epoch_lag(3), 1, "epoch 3 folds independently");
    }

    #[test]
    fn lag_slot_recycled_before_publish_counts_dropped() {
        let obs = Obs::new();
        // Epoch 2 commits, never publishes (frontier stays 0), and the
        // owner reuses the slot LAG_GENS epochs later — the span must be
        // counted as dropped, not silently lost or mis-folded.
        obs.commit_event(2, 0, 0);
        obs.commit_event(2 + LAG_GENS as u64, 0, 0);
        assert_eq!(obs.lag_spans_dropped(), 1);
        // The recycling epoch's own span is intact.
        assert_eq!(obs.fold_epoch_lag(2 + LAG_GENS as u64), 1);
    }

    #[test]
    fn lag_slot_recycled_after_publish_is_not_dropped() {
        let obs = Obs::new();
        obs.commit_event(2, 0, 0);
        assert_eq!(obs.fold_epoch_lag(2), 1);
        // Frontier has passed epoch 2 by the time the slot recycles:
        // the publisher already folded it, so nothing was dropped.
        obs.commit_event(2 + LAG_GENS as u64, 0, 5);
        assert_eq!(obs.lag_spans_dropped(), 0);
    }

    #[test]
    fn lag_overflow_aggregates_beyond_the_sample_cap() {
        let obs = Obs::new();
        let n = LAG_SAMPLES as u64 + 100;
        for _ in 0..n {
            obs.commit_event(2, 0, 0);
        }
        assert_eq!(obs.fold_epoch_lag(2), n, "overflow commits still fold");
        assert_eq!(obs.durability_lag_ns().snapshot().count, n);
        assert_eq!(obs.lag_spans_dropped(), 0);
    }

    #[test]
    fn json_parser_round_trips_values() {
        let text = r#"{"a":1,"b":[1,2.5,-3],"c":{"d":"x\ny","e":true,"f":null},"g":""}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().get("e"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("c").unwrap().get("f"), Some(&JsonValue::Null));
        assert_eq!(v.get("g").unwrap().as_str(), Some(""));
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{}x").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
    }
}
