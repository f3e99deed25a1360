//! Chrome `trace_event` / Perfetto export of the flight recorder.
//!
//! [`chrome_trace`] converts a [`FlightRecorder`](crate::FlightRecorder)
//! dump into the JSON object format consumed by `chrome://tracing` and
//! <https://ui.perfetto.dev>: one track per worker thread showing each
//! operation as a complete ("X") span from `OpBegin` to its
//! commit/abort/panic, three virtual tracks for the epoch clock, the
//! persist pipeline, and health events, and one flow arrow per epoch
//! from its last commit to the `BatchPersisted` that made it durable —
//! the durability lag of §3, drawn.
//!
//! Timestamps are the recorder's shared monotonic clock (µs in the
//! output, as the format requires), so span edges, epoch seals, and the
//! lag arrows all line up on one timeline. The trace `metadata` block
//! carries `events_dropped` / `lag_spans_dropped` so a reader knows
//! when ring wrap truncated the window (raise
//! [`EpochConfig::flight_slots`](crate::EpochConfig::with_flight_slots)
//! to widen it).

use crate::obs::{abort_cause, health_label, Arg, EventKind, FlightEvent, JsonWriter, Obs, Track};
use std::collections::HashMap;

/// Run-level facts embedded in the trace `metadata` object.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceMeta {
    /// Flight-ring events overwritten by wrap (missing from the trace).
    pub events_dropped: u64,
    /// Commit→durable spans whose epoch never published (see
    /// [`DerivedGauges::lag_spans_dropped`](crate::obs::DerivedGauges)).
    pub lag_spans_dropped: u64,
}

/// The track (`tid`) and category an event of this [`Track`] is drawn
/// on. System events get virtual tids above every worker's (Perfetto
/// sorts by name within a process, so they stay grouped at the bottom).
fn track(track: Track, worker: usize) -> (usize, &'static str) {
    match track {
        Track::Op => (worker, "op"),
        Track::Epoch => (1000, "epoch"),
        Track::Persist => (1001, "persist"),
        Track::Health => (1002, "health"),
    }
}

/// Microsecond timestamp with nanosecond precision, as the format's
/// fractional-µs convention expects.
fn us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

/// The `args` object of an event's record: its two payload words under
/// the labels its `events!` row (`obs/flight.rs`) declares.
fn args(w: &mut JsonWriter, e: &FlightEvent) {
    let def = e.kind.def();
    w.key("args").open('{');
    for (arg, v) in [(def.a, e.a), (def.b, e.b)] {
        match arg {
            Arg::Unused => {}
            Arg::Epoch => {
                w.field("epoch", v);
            }
            Arg::Num(label) | Arg::CrashKind(label) | Arg::OptEpoch(label) => {
                w.field(label, v);
            }
            Arg::AbortTag(label) => {
                w.field_str(label, &abort_cause(v, false));
            }
            Arg::Health(label) => {
                w.field_str(label, health_label(v));
            }
        }
    }
    w.close('}');
}

/// The trace records, one JSON object each.
struct Records(Vec<String>);

impl Records {
    fn push(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        let mut w = JsonWriter::with_capacity(160);
        w.open('{');
        body(&mut w);
        w.close('}');
        self.0.push(w.finish());
    }

    /// A complete ("X") span of `e`'s kind from `t_ns` to `e.t_ns`.
    fn span(&mut self, e: &FlightEvent, t_ns: u64) {
        let def = e.kind.def();
        let (tid, cat) = track(def.track, e.tid);
        self.push(|w| {
            w.field_str("name", def.trace_name).field_str("cat", cat);
            w.field_str("ph", "X").field("ts", us(t_ns));
            w.field("dur", us(e.t_ns.saturating_sub(t_ns)));
            w.field("pid", 1).field("tid", tid);
            args(w, e);
        });
    }

    /// A thread-scoped instant ("i") of `e`'s kind at `e.t_ns`. An op
    /// still open when the window ends (`unfinished`) is drawn from its
    /// begin event, under that name and without arguments.
    fn instant(&mut self, e: &FlightEvent, unfinished: bool) {
        let def = e.kind.def();
        let (tid, cat) = track(def.track, e.tid);
        self.push(|w| {
            let name = if unfinished {
                "op (unfinished)"
            } else {
                def.trace_name
            };
            w.field_str("name", name).field_str("cat", cat);
            w.field_str("ph", "i").field_str("s", "t");
            w.field("ts", us(e.t_ns)).field("pid", 1).field("tid", tid);
            if unfinished {
                w.key("args").open('{').close('}');
            } else {
                args(w, e);
            }
        });
    }

    /// A flow start ("s") or finish ("f", binding to the enclosing
    /// slice's end) — one arrow per epoch, commit → frontier publish.
    fn flow(&mut self, phase: &str, id: u64, tid: usize, t_ns: u64) {
        self.push(|w| {
            w.field_str("name", "durability-lag")
                .field_str("cat", "lag");
            w.field_str("ph", phase).field("id", id);
            if phase == "f" {
                w.field_str("bp", "e");
            }
            w.field("ts", us(t_ns)).field("pid", 1).field("tid", tid);
        });
    }

    /// A metadata ("M") record naming a process or thread.
    fn name_meta(&mut self, what: &str, tid: Option<usize>, name: &str) {
        self.push(|w| {
            w.field_str("name", what)
                .field_str("ph", "M")
                .field("pid", 1);
            if let Some(tid) = tid {
                w.field("tid", tid);
            }
            w.key("args").open('{').field_str("name", name).close('}');
        });
    }
}

/// Renders a flight-recorder dump as a Chrome `trace_event` JSON
/// document. `events` must be timestamp-ordered, as
/// [`FlightRecorder::dump`](crate::FlightRecorder::dump) returns them.
pub fn chrome_trace(events: &[FlightEvent], meta: &TraceMeta) -> String {
    let mut out = Records(Vec::new());

    // Track names. Worker tracks appear in tid order; the virtual
    // tracks follow them.
    out.name_meta("process_name", None, "bd-htm");
    let mut tids: Vec<usize> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        out.name_meta("thread_name", Some(tid), &format!("worker-{tid:02}"));
    }
    for (t, name) in [
        (Track::Epoch, "epoch clock"),
        (Track::Persist, "persist pipeline"),
        (Track::Health, "health"),
    ] {
        out.name_meta("thread_name", Some(track(t, 0).0), name);
    }

    // One pass for the flow endpoints: per epoch, the LAST commit (the
    // span the histogram's max tracks) and the frontier publish.
    let mut last_commit: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut published: HashMap<u64, u64> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::OpCommit => {
                last_commit.insert(e.a, (e.tid, e.t_ns));
            }
            EventKind::BatchPersisted => {
                published.entry(e.a).or_insert(e.t_ns);
            }
            _ => {}
        }
    }

    // Per-thread open op, for pairing OpBegin with its terminal event.
    let mut open: HashMap<usize, FlightEvent> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::OpBegin => {
                // A begin with a still-open predecessor means the
                // terminal event was lost to ring wrap; render the
                // orphan as an instant so it stays visible (at its own
                // time, labelled with the epoch of the begin that
                // displaced it).
                if let Some(orphan) = open.insert(e.tid, *e) {
                    out.instant(&FlightEvent { a: e.a, ..orphan }, false);
                }
            }
            EventKind::OpCommit | EventKind::OpAbort | EventKind::OpPanicked => {
                // A begin lost to ring wrap leaves a zero-width span at
                // the terminal event.
                out.span(e, open.remove(&e.tid).map_or(e.t_ns, |begin| begin.t_ns));
                // Durability-lag arrow: from the epoch's last commit to
                // the instant its frontier published.
                if e.kind == EventKind::OpCommit
                    && last_commit.get(&e.a) == Some(&(e.tid, e.t_ns))
                    && published.contains_key(&e.a)
                {
                    out.flow("s", e.a, e.tid, e.t_ns);
                }
            }
            // Everything else is an instant on its virtual track.
            _ => {
                out.instant(e, false);
                if e.kind == EventKind::BatchPersisted
                    && published.get(&e.a) == Some(&e.t_ns)
                    && last_commit.contains_key(&e.a)
                {
                    out.flow("f", e.a, track(Track::Persist, 0).0, e.t_ns);
                }
            }
        }
    }
    // Ops still open at the end of the window (e.g. a crashed run).
    for begin in open.values() {
        out.instant(begin, true);
    }

    format!(
        "{{\n\"traceEvents\": [\n    {}\n],\n\"displayTimeUnit\": \"ns\",\n\"metadata\": {{\"schema\": \"bdhtm-trace\", \"events\": {}, \"events_dropped\": {}, \"lag_spans_dropped\": {}}}\n}}\n",
        out.0.join(",\n    "),
        events.len(),
        meta.events_dropped,
        meta.lag_spans_dropped
    )
}

/// [`chrome_trace`] over everything an [`Obs`] currently holds.
pub fn chrome_trace_from_obs(obs: &Obs) -> String {
    let events = obs.dump(usize::MAX);
    chrome_trace(
        &events,
        &TraceMeta {
            events_dropped: obs.flight_events_dropped(),
            lag_spans_dropped: obs.lag_spans_dropped(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{JsonValue, ABORT_RESTART};

    fn ev(t_ns: u64, tid: usize, kind: EventKind, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            t_ns,
            tid,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn trace_parses_and_pairs_op_spans() {
        let events = vec![
            ev(1_000, 0, EventKind::OpBegin, 2, 0),
            ev(5_000, 0, EventKind::OpCommit, 2, 1),
            ev(6_000, 1, EventKind::OpBegin, 2, 0),
            ev(7_000, 1, EventKind::OpAbort, 2, ABORT_RESTART),
            ev(9_000, 0, EventKind::EpochAdvance, 3, 0),
            ev(12_000, 2, EventKind::BatchPersisted, 2, 4),
        ];
        let json = chrome_trace(
            &events,
            &TraceMeta {
                events_dropped: 3,
                lag_spans_dropped: 1,
            },
        );
        let v = JsonValue::parse(&json).expect("trace must be valid JSON");
        let evs = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();

        // The commit became an X span of 4 µs on tid 0.
        let span = evs
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("tid").and_then(|t| t.as_u64()) == Some(0)
            })
            .expect("commit span");
        assert_eq!(span.get("dur").and_then(|d| d.as_f64()), Some(4.0));

        // The lag arrow exists: one flow start on the committer, one
        // flow finish on the persist track, same id (the epoch).
        let start = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .expect("flow start");
        let finish = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .expect("flow finish");
        assert_eq!(start.get("id").and_then(|i| i.as_u64()), Some(2));
        assert_eq!(finish.get("id").and_then(|i| i.as_u64()), Some(2));
        assert_eq!(
            finish.get("tid").and_then(|t| t.as_u64()),
            Some(track(Track::Persist, 0).0 as u64)
        );

        // Dropped-event counts survive into metadata.
        let meta = v.get("metadata").unwrap();
        assert_eq!(meta.get("events_dropped").and_then(|d| d.as_u64()), Some(3));
        assert_eq!(
            meta.get("lag_spans_dropped").and_then(|d| d.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn orphan_terminal_becomes_zero_width_span() {
        let events = vec![ev(2_000, 0, EventKind::OpCommit, 2, 0)];
        let json = chrome_trace(&events, &TraceMeta::default());
        let v = JsonValue::parse(&json).unwrap();
        let evs = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let span = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("dur").and_then(|d| d.as_f64()), Some(0.0));
    }
}
