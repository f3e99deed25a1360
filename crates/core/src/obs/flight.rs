//! The lifecycle flight recorder: the event vocabulary, declared once
//! in the `events!` table below, and the lock-free ring, one per
//! thread's observability shard, that holds the last few events of that
//! thread for postmortems and trace export.

use crate::error::HealthState;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default events per thread kept by the flight recorder. Small on
/// purpose: the postmortem recorder answers "what were the last few
/// things each thread did before the failure", not "give me a full
/// trace". Trace-export runs raise the capacity via
/// [`EpochConfig::flight_slots`](crate::EpochConfig::flight_slots) so
/// the exported timeline covers more than the final instants.
pub const RING_SLOTS: usize = 64;

/// The trace track an event is drawn on: its worker's own, or one of
/// the three virtual tracks for events that belong to the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Track {
    Op,
    Epoch,
    Persist,
    Health,
}

/// How one payload word of an event is labelled and decoded.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Arg {
    /// The word carries nothing.
    Unused,
    /// An epoch number: `epoch` in traces, abbreviated `e` in dumps.
    Epoch,
    /// A plain number under this label.
    Num(&'static str),
    /// An abort tag ([`ABORT_RESTART`], `1 + explicit code`, or
    /// [`ABORT_UNWIND`]), decoded by [`abort_cause`].
    AbortTag(&'static str),
    /// A crash-point kind code: named in dumps, numeric in traces.
    CrashKind(&'static str),
    /// A [`HealthState`] code, decoded to its label.
    Health(&'static str),
    /// An epoch where `u64::MAX` means "none": dumps omit the field
    /// then, traces keep the raw word.
    OptEpoch(&'static str),
}

/// One row of the event table: everything a dump line or a trace
/// record says about an [`EventKind`] besides the payload values.
pub(crate) struct EventDef {
    pub(crate) kind: EventKind,
    /// The variant name, as flight dumps print it.
    pub(crate) label: &'static str,
    /// Slice or instant name in the Chrome trace.
    pub(crate) trace_name: &'static str,
    pub(crate) track: Track,
    pub(crate) a: Arg,
    pub(crate) b: Arg,
}

/// Declares the lifecycle event vocabulary: the [`EventKind`] enum and
/// [`EVENTS`], its table, row `i` describing the variant with code `i`.
/// The ring decoder, [`FlightEvent::render`] and
/// [`chrome_trace`](crate::trace::chrome_trace) all read the table, so
/// a new event is one row here plus its `Obs::event` call.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $kind:ident: $trace:literal, $track:ident, $a:ident $(($al:literal))?, $b:ident $(($bl:literal))?;
    )*) => {
        /// Lifecycle event vocabulary; `a` and `b` are the two payload words.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u64)]
        pub enum EventKind {
            $($(#[$doc])* $kind,)*
        }

        pub(crate) const EVENTS: &[EventDef] = &[$(EventDef {
            kind: EventKind::$kind,
            label: stringify!($kind),
            trace_name: $trace,
            track: Track::$track,
            a: Arg::$a $(($al))?,
            b: Arg::$b $(($bl))?,
        },)*];
    };
}

events! {
    /// An operation registered: `a` = epoch.
    OpBegin:        "op (end lost)",    Op,      Epoch,             Unused;
    /// An operation attempt aborted its registration: `a` = epoch,
    /// `b` = abort tag ([`ABORT_RESTART`], `1 + explicit code`, or
    /// [`ABORT_UNWIND`]).
    OpAbort:        "op (abort)",       Op,      Epoch,             AbortTag("cause");
    /// An operation committed: `a` = epoch, `b` = restarts it took.
    OpCommit:       "op",               Op,      Epoch,             Num("restarts");
    /// The epoch clock moved: `a` = new epoch, `b` = new frontier.
    EpochAdvance:   "epoch-advance",    Epoch,   Epoch,             Num("frontier");
    /// The `nvm-sim` fault plan fired a crash point: `a` = point index,
    /// `b` = crash-point kind code.
    FaultInjected:  "fault-injected",   Health,  Num("point"),      CrashKind("kind");
    /// An epoch's buffers were sealed into a batch: `a` = tracked
    /// entries as sealed (duplicates merge later, at write-back),
    /// `b` = retired blocks.
    BatchSealed:    "batch-sealed",     Epoch,   Num("blocks"),     Num("retires");
    /// The persister finished a batch and published the frontier:
    /// `a` = new frontier epoch, `b` = blocks written back.
    BatchPersisted: "frontier-publish", Persist, Num("frontier"),   Num("blocks");
    /// An advance waits for the seal of the epoch whose arena generation
    /// its next epoch reuses: `a` = that epoch, `b` = newest sealed epoch.
    PipelineStall:  "pipeline-stall",   Epoch,   Epoch,             Num("sealed");
    /// A batch write-back hit a transient device error and will retry:
    /// `a` = batch epoch, `b` = attempt number (1-based).
    PersistRetry:   "persist-retry",    Persist, Epoch,             Num("attempt");
    /// The health ladder ratcheted up: `a` = new
    /// [`HealthState`] code, `b` = epoch of the causing batch.
    DegradedToSync: "health-ratchet",   Health,  Health("to"),      OptEpoch("cause_epoch");
    /// A user op closure panicked inside `run_op`: `a` = epoch,
    /// `b` = restarts before the panic.
    OpPanicked:     "op (panic)",       Op,      Epoch,             Num("restarts");
}

/// [`EventKind::OpAbort`] tag: the structure requested a restart.
pub const ABORT_RESTART: u64 = 0;
/// [`EventKind::OpAbort`] tag: a panic unwound through the bracket.
pub const ABORT_UNWIND: u64 = u64::MAX;

impl EventKind {
    fn of(code: u64) -> Option<EventKind> {
        EVENTS.get(code as usize).map(|def| def.kind)
    }

    /// This kind's row of [`EVENTS`].
    pub(crate) fn def(self) -> &'static EventDef {
        &EVENTS[self as usize]
    }
}

/// Decodes an [`EventKind::OpAbort`] tag. Dumps (`name_codes`) spell out
/// the explicit codes they know; traces keep `explicit(code)` for all.
pub(crate) fn abort_cause(tag: u64, name_codes: bool) -> String {
    match tag {
        ABORT_RESTART => "restart".to_string(),
        ABORT_UNWIND => "unwind".to_string(),
        tag if name_codes && tag - 1 == crate::esys::OLD_SEE_NEW as u64 => {
            format!("old_see_new({:#04x})", tag - 1)
        }
        tag => format!("explicit({:#04x})", tag - 1),
    }
}

/// Decodes a [`HealthState`] code carried in an event payload.
pub(crate) fn health_label(code: u64) -> &'static str {
    HealthState::from_code(code.min(u8::MAX as u64) as u8).as_str()
}

/// Names an `nvm_sim::CrashPointKind` code.
fn crash_kind(code: u64) -> &'static str {
    ["clwb", "fence", "format_line", "evict_line"]
        .get(code as usize)
        .copied()
        .unwrap_or("?")
}

#[derive(Default)]
struct Slot {
    /// 1-based per-thread event number; 0 = never written. Stored last
    /// (Release) so a dump that observes it sees the payload stores.
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// One thread's ring of its most recent lifecycle events.
///
/// Recording is a handful of relaxed stores plus one Release store of
/// the slot's sequence number. [`dump`] may race an active writer, in which case at worst one in-flight slot renders
/// stale fields — acceptable for a postmortem diagnostic, and the
/// common consumer (the fault sweep) dumps from a single thread after
/// the crash unwound.
pub(crate) struct Ring {
    slots: Box<[Slot]>,
    /// Events this thread has written (owner-only counter). Never
    /// wraps back: `next − slots.len()` is exactly how many events the
    /// ring has silently overwritten (the `events_dropped` gauge).
    next: AtomicU64,
}

impl Ring {
    /// A ring of `capacity` slots (at least one).
    pub(super) fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Records one event stamped `t_ns` (an `Obs::now_ns` reading).
    #[inline]
    pub(crate) fn record_at(&self, t_ns: u64, kind: EventKind, a: u64, b: u64) {
        let n = self.next.load(Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(n + 1, Ordering::Release);
        self.next.store(n + 1, Ordering::Relaxed);
    }

    /// Events overwritten by ring wrap so far.
    pub(super) fn dropped(&self) -> u64 {
        self.next
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len() as u64)
    }
}

/// The last `max` events of `rings` (each with its thread's dense id),
/// oldest first, merged by timestamp.
pub(super) fn dump<'a>(
    rings: impl Iterator<Item = (usize, &'a Ring)>,
    max: usize,
) -> Vec<FlightEvent> {
    let mut events = Vec::new();
    for (tid, ring) in rings {
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

/// One recovered event, ordered by a monotonic timestamp shared by all
/// threads of the recorder.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Nanoseconds since the `Obs` (i.e. the `EpochSys`) was built.
    pub t_ns: u64,
    /// Recording thread's dense id. Ids are recycled, so one id (and
    /// one trace track) may carry the events of successive threads.
    pub tid: usize,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

impl FlightEvent {
    /// Human-readable one-liner for postmortem dumps.
    pub fn render(&self) -> String {
        let def = self.kind.def();
        let mut line = format!("[+{:>12}ns t{:02}] {:<12}", self.t_ns, self.tid, def.label);
        for (arg, v) in [(def.a, self.a), (def.b, self.b)] {
            let _ = match arg {
                Arg::Unused => Ok(()),
                Arg::Epoch => write!(line, " e={v}"),
                Arg::Num(label) => write!(line, " {label}={v}"),
                Arg::AbortTag(label) => write!(line, " {label}={}", abort_cause(v, true)),
                Arg::CrashKind(label) => write!(line, " {label}={}", crash_kind(v)),
                Arg::Health(label) => write!(line, " {label}={}", health_label(v)),
                Arg::OptEpoch(_) if v == u64::MAX => Ok(()),
                Arg::OptEpoch(label) => write!(line, " {label}={v}"),
            };
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Obs;
    use crate::EpochConfig;

    fn obs() -> Obs {
        Obs::for_config(&EpochConfig::default())
    }

    #[test]
    fn every_kind_decodes_to_its_own_table_row() {
        for (code, def) in EVENTS.iter().enumerate() {
            assert_eq!(def.kind as usize, code);
            assert_eq!(EventKind::of(code as u64), Some(def.kind));
            assert_eq!(def.label, format!("{:?}", def.kind));
        }
        assert_eq!(EventKind::of(EVENTS.len() as u64), None);
    }

    #[test]
    fn ring_records_and_dumps_in_order() {
        let r = obs();
        r.event(EventKind::OpBegin, 2, 0);
        r.event(EventKind::OpCommit, 2, 0);
        r.event(EventKind::EpochAdvance, 3, 1);
        let d = r.dump(16);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].kind, EventKind::OpBegin);
        assert_eq!(d[2].kind, EventKind::EpochAdvance);
        assert!(d.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let r = obs();
        for i in 0..(RING_SLOTS as u64 + 10) {
            r.event(EventKind::OpBegin, i, 0);
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
        let r = obs();
        for i in 0..20 {
            r.event(EventKind::OpCommit, i, 0);
        }
        let d = r.dump(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.last().unwrap().a, 19, "bound keeps the newest");
        assert_eq!(d.first().unwrap().a, 15);
    }
}
