//! The harness's own spans: recorded in memory around the calls into
//! each layer and written as a Chrome `trace_event` file when the run
//! ends. Spans *inside* the program are the flight recorder's business
//! (`bdhtm_core::trace`), exported next to this file.

use crate::workload::Kind;
use bdhtm_core::{EpochStatsSnapshot, EpochSys};
use htm_sim::{Htm, StatsSnapshot};
use nvm_sim::NvmStatsSnapshot;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every layer's counters, read at one instant.
#[derive(Clone, Copy)]
pub struct Counters {
    pub nvm: NvmStatsSnapshot,
    pub htm: StatsSnapshot,
    pub epoch: EpochStatsSnapshot,
}

impl Counters {
    pub fn read(esys: &EpochSys, htm: &Htm) -> Counters {
        Counters {
            nvm: esys.heap().stats().snapshot(),
            htm: htm.stats().snapshot(),
            epoch: esys.stats().snapshot(),
        }
    }
}

pub type SpanId = usize;

struct Span {
    name: Cow<'static, str>,
    layer: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// A sampled operation: kept compact, there are many.
struct OpSpan {
    start_ns: u64,
    dur_ns: u32,
    kind: Kind,
    parent: SpanId,
}

/// Span recorder. Switched off (`--trace 0`) every method returns at once.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    ops: Vec<OpSpan>,
    counters: Vec<(u64, Counters)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            // Reserved up front so that sampling never reallocates inside
            // the timed window (1 op in 64 of half the window).
            ops: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
            counters: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        layer: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.span(name, layer, parent, Instant::now(), Instant::now())
    }

    pub fn close(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span whose two ends were already measured.
    pub fn span(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        layer: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Records one sampled operation under the slice span `parent`.
    #[inline]
    pub fn op(&mut self, kind: Kind, parent: SpanId, start: Instant, dur_ns: u64) {
        let start_ns = self.ns(start);
        self.ops.push(OpSpan {
            start_ns,
            dur_ns: dur_ns.min(u32::MAX as u64) as u32,
            kind,
            parent,
        });
    }

    /// Records the layers' counters at a span boundary.
    pub fn counters(&mut self, c: Counters) {
        if self.on {
            let now = self.ns(Instant::now());
            self.counters.push((now, c));
        }
    }

    /// Renders everything as Chrome `trace_event` JSON. `pid` is the
    /// workload's id, shared by all its spans; harness phases and probes
    /// are thread 1, sampled operations thread 2.
    pub fn render(&self, workload: &str, pid: usize) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = String::with_capacity(64 + 160 * (self.spans.len() + self.ops.len()));
        out.push_str("{\"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":\"{workload}\"}}}}"
        );
        for (tid, name) in [(1, "harness phases and probes"), (2, "sampled operations")] {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\"}}}}",
                s.name,
                s.layer,
                us(s.start_ns),
                us(s.end_ns.saturating_sub(s.start_ns)),
            );
        }
        for o in &self.ops {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"op\",\"pid\":{pid},\"tid\":2,\"ts\":{},\"dur\":{},\"args\":{{\"parent\":{},\"workload\":\"{workload}\"}}}}",
                o.kind.name(),
                us(o.start_ns),
                us(o.dur_ns as u64),
                o.parent,
            );
        }
        for (t, c) in &self.counters {
            for (name, series) in [
                (
                    "nvm-sim",
                    vec![
                        ("fences", c.nvm.fences),
                        ("flushes", c.nvm.flushes),
                        ("xplines", c.nvm.xplines_touched),
                    ],
                ),
                (
                    "htm-sim",
                    vec![
                        ("commits", c.htm.commits),
                        ("aborts", c.htm.total_aborts()),
                        ("fallbacks", c.htm.fallbacks),
                    ],
                ),
                (
                    "esys",
                    vec![
                        ("advances", c.epoch.advances),
                        ("blocks_persisted", c.epoch.blocks_persisted),
                        ("blocks_reclaimed", c.epoch.blocks_reclaimed),
                    ],
                ),
            ] {
                let args: Vec<String> =
                    series.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                let _ = write!(
                    out,
                    ",\n{{\"ph\":\"C\",\"name\":\"{name}\",\"pid\":{pid},\"ts\":{},\"args\":{{{}}}}}",
                    us(*t),
                    args.join(",")
                );
            }
        }
        let _ = write!(
            out,
            "\n],\n\"displayTimeUnit\": \"ns\",\n\"metadata\": {{\"schema\": \"bdhtm-benchmark-trace\", \"workload\": \"{workload}\", \"spans\": {}, \"sampled_ops\": {}}}\n}}\n",
            self.spans.len(),
            self.ops.len()
        );
        out
    }

    pub fn write(&self, path: &Path, workload: &str, pid: usize) -> std::io::Result<()> {
        std::fs::write(path, self.render(workload, pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::JsonValue;

    #[test]
    fn rendered_trace_is_valid_json_with_parent_links() {
        let mut t = Tracer::new(true);
        let root = t.open("run", "bench", None);
        let child = t.open(format!("run.slice[{}]", 0), "bench", Some(root));
        t.op(Kind::Insert, child, Instant::now(), 1234);
        t.close(child);
        t.close(root);
        let json = JsonValue::parse(&t.render("w", 3)).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let slice = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("run.slice[0]"))
            .unwrap();
        let args = slice.get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(|p| p.as_u64()),
            Some(root as u64)
        );
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("insert")));
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", "bench", None);
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
