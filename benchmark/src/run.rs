//! One run of one workload: set-up, timed window, drain, crash,
//! recovery and verification.

use crate::stats::{median, Hist};
use crate::store::Store;
use crate::trace::{Counters, SpanId, Tracer};
use crate::workload::{value_for, KeyOrder, Kind, OpStream, Spec};
use bdhtm_core::{EpochConfig, EpochSys, EpochTicker, Persister};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{CrashImage, NvmAddr, NvmConfig, NvmHeap};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUPS: usize = 3;
/// Slices of the timed window. The traced run alternates untraced
/// control slices with traced ones, five of each.
const SLICES: usize = 20;
const TRACED_RUN_SLICES: usize = 10;
/// Every `SAMPLE`-th write is stamped for durability lag, and every
/// `SAMPLE`-th operation of a traced slice becomes a span.
const SAMPLE: u64 = 64;

pub fn nvm_config(spec: &Spec) -> NvmConfig {
    if spec.optane {
        NvmConfig::optane(spec.heap_bytes)
    } else {
        NvmConfig::for_tests(spec.heap_bytes)
    }
}

/// The production topology, spelled out in full so that a later change
/// of a default cannot silently change the benchmark: 50 ms epochs (the
/// paper's), one persister (auto = nproc/2 would make the program depend
/// on the host), pipeline depth 2, no backpressure bound.
pub fn epoch_config(traced: bool) -> EpochConfig {
    let config = EpochConfig::default()
        .with_epoch_len(Duration::from_millis(50))
        .with_persist_workers(1)
        .with_pipeline_depth(2)
        .with_max_buffered_words(0);
    if traced {
        // So that the flight-recorder export covers more than the last
        // 64 events of each thread.
        config.with_flight_slots(1 << 14)
    } else {
        config
    }
}

/// The expected value of every key (0 = absent) and the live count.
pub struct Oracle {
    pub values: Vec<u64>,
    pub live: u64,
}

impl Oracle {
    pub fn get(&self, key: u64) -> Option<u64> {
        Some(self.values[key as usize]).filter(|&v| v != 0)
    }
}

/// What a structure answered to one operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reply {
    Value(Option<u64>),
    Changed(bool),
}

#[inline]
pub fn execute(store: &Store, key: u64, kind: Kind, value: u64) -> Reply {
    match kind {
        Kind::Get => Reply::Value(store.get(key)),
        Kind::Insert => Reply::Changed(store.insert(key, value)),
        Kind::Remove => Reply::Changed(store.remove(key)),
    }
}

/// The single client: issues operations, keeps the oracle, counts
/// what was attempted and what disagreed with the oracle.
pub struct Client {
    pub oracle: Oracle,
    /// Operations issued so far in this run; written values derive from it.
    pub index: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Client {
    pub fn new(keys: u64) -> Client {
        Client {
            oracle: Oracle {
                values: vec![0; keys as usize + 1],
                live: 0,
            },
            index: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// The value the next operation writes if it is an insert.
    #[inline]
    pub fn next_value(&self, key: u64) -> u64 {
        value_for(key, self.index)
    }

    /// Checks `reply` against the oracle and applies the operation to it.
    #[inline]
    pub fn check(&mut self, key: u64, kind: Kind, value: u64, reply: Reply) {
        let before = self.oracle.get(key);
        let slot = &mut self.oracle.values[key as usize];
        let expected = match kind {
            Kind::Get => Reply::Value(before),
            Kind::Insert => {
                let fresh = before.is_none();
                *slot = value;
                self.oracle.live += fresh as u64;
                Reply::Changed(fresh)
            }
            Kind::Remove => {
                let present = before.is_some();
                *slot = 0;
                self.oracle.live -= present as u64;
                Reply::Changed(present)
            }
        };
        self.index += 1;
        self.attempted += 1;
        self.failed += (reply != expected) as u64;
    }

    /// One untimed, checked operation (prefill, warm-up, top-up).
    #[inline]
    pub fn apply(&mut self, store: &Store, key: u64, kind: Kind) {
        let value = self.next_value(key);
        let reply = execute(store, key, kind, value);
        self.check(key, kind, value, reply);
    }
}

/// A formatted heap with a structure on it and the background threads
/// of the production topology running.
pub struct Instance {
    pub store: Store,
    pub esys: Arc<EpochSys>,
    pub htm: Arc<Htm>,
    pub heap: Arc<NvmHeap>,
    pub client: Client,
    pub stream: OpStream,
    ticker: EpochTicker,
    persister: Persister,
}

impl Instance {
    /// Stops the background threads (the persister drains its queue).
    fn quiesce(self) -> (Store, Arc<EpochSys>, Arc<NvmHeap>, Client) {
        self.ticker.stop();
        self.persister.stop();
        (self.store, self.esys, self.heap, self.client)
    }
}

#[derive(Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub prefault_s: f64,
    pub prefill_s: f64,
    pub warmup_s: f64,
}

/// Allocates, touches and frees `bytes`, before any clock starts: with
/// the allocator told to keep freed memory (run.sh sets
/// `MALLOC_MMAP_MAX_=0` and `MALLOC_TRIM_THRESHOLD_`), every later heap
/// image, crash image and recovered heap reuses these pages instead of
/// faulting fresh ones in inside a timed section.
pub fn pretouch(bytes: usize) {
    let mut buf = vec![0u8; bytes];
    for page in buf.chunks_mut(4096) {
        page[0] = 1;
    }
    black_box(&buf);
}

/// An estimate of the run's peak footprint, reached during recovery:
/// the crash image, its copy and the recovered heap's two images, plus
/// per key the oracle, the DRAM index and recovery's block lists, plus
/// the stream and the histograms.
pub fn peak_bytes(spec: &Spec) -> usize {
    4 * spec.heap_bytes + 160 * spec.keys as usize + 4 * spec.ring_ops as usize + (64 << 20)
}

/// Set-up: everything between process start and the first timed
/// operation that a user of the system would also pay.
pub fn setup(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> (Instance, SetupTimes) {
    let t0 = Instant::now();
    let mut stream = OpStream::generate(spec, seed);
    let mut client = Client::new(spec.keys);

    // Both images are written once here, so that no page of either is
    // first touched inside the timed window: a word per 4 KB page of the
    // volatile image, then a device-level copy of the whole (zeroed)
    // heap to the media image.
    let t_prefault = Instant::now();
    let heap = Arc::new(NvmHeap::new(nvm_config(spec)));
    let words = heap.capacity_words();
    for w in (0..words).step_by(512) {
        heap.word(NvmAddr(w)).store(0, Ordering::Relaxed);
    }
    heap.format_region(NvmAddr(0), words);
    let t_format = Instant::now();

    let esys = EpochSys::format(Arc::clone(&heap), epoch_config(tracer.on()));
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let store = Store::new(spec.structure, Arc::clone(&esys), Arc::clone(&htm));
    let ticker = EpochTicker::spawn(Arc::clone(&esys));
    let persister = Persister::spawn(Arc::clone(&esys));

    let t_prefill = Instant::now();
    for key in spec.prefill_keys() {
        client.apply(&store, key, Kind::Insert);
    }
    let t_warmup = Instant::now();
    for _ in 0..spec.warmup_ops {
        let Some((key, kind)) = stream.next() else {
            break;
        };
        client.apply(&store, key, kind);
    }
    esys.flush_all();
    let t1 = Instant::now();

    let set_up = tracer.span("setup", "bench", parent, t0, t1);
    tracer.span("setup.generate", "ycsb-gen", Some(set_up), t0, t_prefault);
    tracer.span(
        "setup.prefault",
        "nvm-sim",
        Some(set_up),
        t_prefault,
        t_format,
    );
    tracer.span("setup.format", "esys", Some(set_up), t_format, t_prefill);
    tracer.span(
        "setup.prefill",
        "structure",
        Some(set_up),
        t_prefill,
        t_warmup,
    );
    tracer.span("setup.warmup", "structure", Some(set_up), t_warmup, t1);

    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        total_s: secs(t0, t1),
        prefault_s: secs(t_prefault, t_format),
        prefill_s: secs(t_prefill, t_warmup),
        warmup_s: secs(t_warmup, t1),
    };
    let instance = Instance {
        store,
        esys,
        htm,
        heap,
        client,
        stream,
        ticker,
        persister,
    };
    (instance, times)
}

/// Client-side durability-lag probe: stamps every [`SAMPLE`]-th write
/// with the time and the clock's epoch right after it returns, watches
/// the persisted frontier after every operation, and when it moves
/// resolves every stamp whose epoch it now covers.
pub struct LagProbe {
    pending: VecDeque<(Instant, u64)>,
    frontier: u64,
    writes: u64,
    pub lags_ms: Vec<f64>,
}

impl LagProbe {
    pub fn new(esys: &EpochSys) -> LagProbe {
        LagProbe {
            pending: VecDeque::with_capacity(1 << 16),
            frontier: esys.persisted_frontier(),
            writes: 0,
            lags_ms: Vec::with_capacity(1 << 18),
        }
    }

    #[inline]
    pub fn after_op(&mut self, esys: &EpochSys, wrote: bool, now: Instant) {
        if wrote {
            self.writes += 1;
            if self.writes.is_multiple_of(SAMPLE) {
                self.pending.push_back((now, esys.current_epoch()));
            }
        }
        self.observe(esys, now);
    }

    #[inline]
    fn observe(&mut self, esys: &EpochSys, now: Instant) {
        let frontier = esys.persisted_frontier();
        if frontier != self.frontier {
            self.frontier = frontier;
            while let Some(&(at, epoch)) = self.pending.front() {
                if epoch > frontier {
                    break;
                }
                self.lags_ms.push((now - at).as_secs_f64() * 1e3);
                self.pending.pop_front();
            }
        }
    }

    /// After the window: keeps watching (the ticker still runs) until
    /// the last stamps are durable. Bounded, in case the frontier is
    /// pinned; stamps still pending then are dropped and counted failed
    /// by the caller.
    pub fn finish(&mut self, esys: &EpochSys) -> usize {
        let give_up = Instant::now() + Duration::from_secs(5);
        while !self.pending.is_empty() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(100));
            self.observe(esys, Instant::now());
        }
        self.pending.len()
    }
}

pub struct Slice {
    pub ops: u64,
    pub secs: f64,
    /// `bytes_in_use` ÷ live records at the slice's end.
    pub nvm_bytes_per_record: f64,
    pub traced: bool,
}

pub struct Window {
    pub slices: Vec<Slice>,
    /// One histogram per slice, or per [`Kind`] in the traced run.
    pub hists: Vec<Hist>,
    pub lag: LagProbe,
    pub ops: u64,
    pub secs: f64,
    /// The key space ran out before the time did (sequential load).
    pub exhausted: bool,
}

/// The timed window: `seconds` of closed-loop operations in equal
/// slices, every operation timed on its own.
pub fn timed_window(
    inst: &mut Instance,
    seconds: f64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Window {
    let traced_run = tracer.on();
    let n_slices = if traced_run {
        TRACED_RUN_SLICES
    } else {
        SLICES
    };
    let slice_len = Duration::from_secs_f64(seconds / n_slices as f64);
    let n_hists = if traced_run {
        Kind::ALL.len()
    } else {
        n_slices
    };
    let mut hists: Vec<Hist> = (0..n_hists).map(|_| Hist::new()).collect();
    let mut slices = Vec::with_capacity(n_slices);
    let mut lag = LagProbe::new(&inst.esys);

    let Instance {
        store,
        esys,
        htm,
        client,
        stream,
        ..
    } = inst;
    let (mut ops, mut exhausted) = (0u64, false);
    let window_start = Instant::now();
    let mut slice_start = window_start;

    for slice in 0..n_slices {
        let traced = traced_run && slice % 2 == 1;
        if traced_run {
            tracer.counters(Counters::read(esys, htm));
        }
        let span = tracer.open(format!("run.slice[{slice}]"), "bench", parent);
        let deadline = slice_start + slice_len;
        let mut slice_ops = 0u64;
        let mut slice_end = slice_start;
        while slice_end < deadline {
            let Some((key, kind)) = stream.next() else {
                exhausted = true;
                break;
            };
            let value = client.next_value(key);
            let t0 = Instant::now();
            let reply = execute(store, key, kind, value);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            hists[if traced_run { kind as usize } else { slice }].record(ns);
            client.check(key, kind, value, reply);
            lag.after_op(esys, kind != Kind::Get, t1);
            slice_ops += 1;
            if traced && slice_ops.is_multiple_of(SAMPLE) {
                tracer.op(kind, span, t0, ns);
            }
            slice_end = t1;
        }
        tracer.close(span);
        ops += slice_ops;
        // A slice cut short by the end of the key space still counts
        // its operations, but is too short to speak for the rate.
        if !exhausted {
            slices.push(Slice {
                ops: slice_ops,
                secs: (slice_end - slice_start).as_secs_f64(),
                nvm_bytes_per_record: esys.alloc_stats().bytes_in_use() as f64
                    / client.oracle.live.max(1) as f64,
                traced,
            });
        }
        slice_start = slice_end;
        if exhausted {
            break;
        }
    }
    Window {
        slices,
        hists,
        lag,
        ops,
        secs: (slice_start - window_start).as_secs_f64(),
        exhausted,
    }
}

#[derive(Clone, Copy)]
pub struct RecoveryTimes {
    pub scan_ms: f64,
    pub rebuild_ms: f64,
    pub validate_ms: f64,
    pub live_records: u64,
}

impl RecoveryTimes {
    pub fn total_ms(&self) -> f64 {
        self.scan_ms + self.rebuild_ms + self.validate_ms
    }
}

/// Compares the recovered structure with the oracle, key by key.
/// Returns the number of keys that differ.
pub fn verify(store: &Store, oracle: &Oracle) -> u64 {
    (1..oracle.values.len() as u64)
        .filter(|&key| store.get(key) != oracle.get(key))
        .count() as u64
}

pub struct Recovered {
    pub times: Vec<RecoveryTimes>,
    /// `validate()` failures, and after the last recovery the keys that
    /// differ from the oracle.
    pub failures: u64,
    pub checks: u64,
    pub errors: Vec<String>,
}

/// Recovers `image` `spec.recoveries` times with one thread, validating
/// each result, and compares the last one with the oracle.
pub fn recover_and_verify(
    spec: &Spec,
    image: CrashImage,
    oracle: &Oracle,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Recovered {
    let mut out = Recovered {
        times: Vec::new(),
        failures: 0,
        checks: 0,
        errors: Vec::new(),
    };
    let mut image = Some(image);
    for i in 0..spec.recoveries {
        let last = i + 1 == spec.recoveries;
        // The copy is the reboot, not the recovery: untimed.
        let copy = if last {
            image.take().expect("image kept until the last recovery")
        } else {
            image
                .as_ref()
                .expect("image kept until the last recovery")
                .duplicate()
        };
        let heap = Arc::new(NvmHeap::from_image(copy));
        let htm = Arc::new(Htm::new(HtmConfig::default()));

        let t0 = Instant::now();
        let (esys, live) = EpochSys::recover(heap, epoch_config(tracer.on()), 1);
        let t_scan = Instant::now();
        let store = Store::recover(spec.structure, esys, htm, &live);
        let t_rebuild = Instant::now();
        let valid = store.validate();
        let t_validate = Instant::now();

        let span = tracer.span(format!("recover[{i}]"), "recovery", parent, t0, t_validate);
        tracer.span("recover.scan", "persist-alloc", Some(span), t0, t_scan);
        tracer.span(
            "recover.rebuild",
            "structure",
            Some(span),
            t_scan,
            t_rebuild,
        );
        tracer.span(
            "recover.validate",
            "structure",
            Some(span),
            t_rebuild,
            t_validate,
        );

        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        out.times.push(RecoveryTimes {
            scan_ms: ms(t0, t_scan),
            rebuild_ms: ms(t_scan, t_rebuild),
            validate_ms: ms(t_rebuild, t_validate),
            live_records: live.len() as u64,
        });
        out.checks += 1;
        if let Err(e) = valid {
            out.failures += 1;
            out.errors
                .push(format!("validate() after recovery {i}: {e}"));
        }
        if last {
            let t_verify = Instant::now();
            let wrong = verify(&store, oracle);
            tracer.span("verify", "bench", parent, t_verify, Instant::now());
            out.checks += oracle.values.len() as u64 - 1;
            out.failures += wrong;
            if wrong > 0 {
                out.errors.push(format!(
                    "{wrong} keys differ from the oracle after recovery"
                ));
            }
            if live.len() as u64 != oracle.live {
                out.failures += 1;
                out.errors.push(format!(
                    "recovery found {} live blocks, the oracle holds {} records",
                    live.len(),
                    oracle.live
                ));
            }
        }
    }
    out
}

/// Median of one field over the recoveries.
pub fn recovery_median(times: &[RecoveryTimes], field: impl Fn(&RecoveryTimes) -> f64) -> f64 {
    median(&mut times.iter().map(field).collect::<Vec<_>>())
}

/// Everything one run measured, before it is turned into metrics.
pub struct RunData {
    pub setups: Vec<SetupTimes>,
    pub window: Window,
    pub before: Counters,
    pub after: Counters,
    pub drain_s: f64,
    pub recoveries: Vec<RecoveryTimes>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Facts read from the live instance just before the crash.
    pub at_crash: AtCrash,
    /// The program's own flight-recorder export (traced run only).
    pub flight_trace: Option<String>,
}

pub struct AtCrash {
    pub live_blocks: i64,
    pub bytes_in_use: u64,
    pub live_records: u64,
    pub dram_bytes: Option<u64>,
    pub obs: ObsFacts,
}

/// The program's own instrumentation, as deltas over the timed window
/// and its drain.
pub struct ObsFacts {
    pub op_latency_p50_ns: u64,
    pub restarts_per_op: f64,
    pub batch_persist_mean_us: f64,
    pub batch_blocks_mean: f64,
    pub batch_persist_busy_ns: u64,
    pub flight_events_dropped: u64,
    pub lag_spans_dropped: u64,
}

struct ObsBaseline {
    op_latency: htm_sim::HistSnapshot,
    restarts: htm_sim::HistSnapshot,
    batch_ns: htm_sim::HistSnapshot,
    batch_blocks: htm_sim::HistSnapshot,
}

impl ObsBaseline {
    fn read(esys: &EpochSys) -> ObsBaseline {
        let obs = esys.obs();
        ObsBaseline {
            op_latency: obs.op_latency_ns().snapshot(),
            restarts: obs.op_restarts().snapshot(),
            batch_ns: obs.batch_persist_ns().snapshot(),
            batch_blocks: obs.persist_batch_blocks().snapshot(),
        }
    }

    fn facts_since(&self, esys: &EpochSys) -> ObsFacts {
        let now = ObsBaseline::read(esys);
        let batch_ns = now.batch_ns.since(&self.batch_ns);
        ObsFacts {
            op_latency_p50_ns: now.op_latency.since(&self.op_latency).p50(),
            restarts_per_op: now.restarts.since(&self.restarts).mean(),
            batch_persist_mean_us: batch_ns.mean() / 1e3,
            batch_blocks_mean: now.batch_blocks.since(&self.batch_blocks).mean(),
            batch_persist_busy_ns: batch_ns.sum,
            flight_events_dropped: esys.obs().flight_events_dropped(),
            lag_spans_dropped: esys.obs().lag_spans_dropped(),
        }
    }
}

/// Runs `spec` once.
pub fn run(spec: &Spec, seed: u64, seconds: f64, tracer: &mut Tracer) -> RunData {
    pretouch(peak_bytes(spec));
    let root = tracer.on().then(|| tracer.open(spec.name, "bench", None));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut instance: Option<Instance> = None;
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..SETUPS {
        // Free the previous set-up first: one heap at a time.
        if let Some(old) = instance.take() {
            let (_, _, _, client) = old.quiesce();
            attempted += client.attempted;
            failed += client.failed;
        }
        let (inst, times) = setup(spec, seed, tracer, root);
        setups.push(times);
        instance = Some(inst);
    }
    let mut inst = instance.expect("SETUPS >= 1");
    let mut errors = Vec::new();

    let obs_before = ObsBaseline::read(&inst.esys);
    let before = Counters::read(&inst.esys, &inst.htm);
    let mut window = timed_window(&mut inst, seconds, tracer, root);

    let t_drain = Instant::now();
    let unresolved = window.lag.finish(&inst.esys);
    inst.esys.flush_all();
    let drained = Instant::now();
    tracer.span("drain", "esys", root, t_drain, drained);
    let after = Counters::read(&inst.esys, &inst.htm);
    tracer.counters(after);
    if unresolved > 0 {
        failed += unresolved as u64;
        errors.push(format!(
            "{unresolved} durability stamps never became durable"
        ));
    }
    let obs = obs_before.facts_since(&inst.esys);

    // Sequential load: fill the rest of the key space, untimed, so that
    // every run crashes and recovers the same number of records however
    // fast its window was.
    if spec.order == KeyOrder::Sequential {
        let t_fill = Instant::now();
        while let Some((key, kind)) = inst.stream.next() {
            inst.client.apply(&inst.store, key, kind);
        }
        inst.esys.flush_all();
        tracer.span("fill", "structure", root, t_fill, Instant::now());
    }

    let flight_trace = tracer
        .on()
        .then(|| bdhtm_core::trace::chrome_trace_from_obs(inst.esys.obs()));
    let (store, esys, heap, client) = inst.quiesce();
    let alloc = esys.alloc_stats();
    let at_crash = AtCrash {
        live_blocks: alloc.live_blocks.iter().sum(),
        bytes_in_use: alloc.bytes_in_use(),
        live_records: client.oracle.live,
        dram_bytes: store.dram_bytes(),
        obs,
    };

    let t_crash = Instant::now();
    let image = heap.crash();
    tracer.span("crash", "nvm-sim", root, t_crash, Instant::now());
    drop((store, esys, heap));

    let recovered = recover_and_verify(spec, image, &client.oracle, tracer, root);
    if let Some(root) = root {
        tracer.close(root);
    }
    attempted += client.attempted + recovered.checks;
    failed += client.failed + recovered.failures;
    if client.failed > 0 {
        errors.push(format!(
            "{} operations disagreed with the oracle",
            client.failed
        ));
    }
    errors.extend(recovered.errors);

    RunData {
        setups,
        window,
        before,
        after,
        drain_s: (drained - t_drain).as_secs_f64(),
        recoveries: recovered.times,
        attempted,
        failed,
        errors,
        at_crash,
        flight_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Prefill, Structure, WORKLOADS};

    fn tiny() -> Spec {
        Spec {
            name: "tiny",
            structure: Structure::Veb { universe_bits: 12 },
            keys: 2000,
            prefill: Prefill::EveryOtherKey,
            order: KeyOrder::Uniform,
            get_pm: 200,
            insert_pm: 400,
            optane: false,
            heap_bytes: 8 << 20,
            recoveries: 2,
            ring_ops: 5000,
            warmup_ops: 3000,
        }
    }

    /// Runs set-up to its end, makes it durable and crashes it.
    fn crashed(spec: &Spec, seed: u64) -> (CrashImage, Oracle) {
        let (inst, _) = setup(spec, seed, &mut Tracer::new(false), None);
        inst.esys.flush_all();
        let (_, _, heap, client) = inst.quiesce();
        assert_eq!(client.failed, 0);
        (heap.crash(), client.oracle)
    }

    #[test]
    fn recovered_map_matches_the_oracle() {
        let spec = tiny();
        let (image, oracle) = crashed(&spec, 3);
        let r = recover_and_verify(&spec, image, &oracle, &mut Tracer::new(false), None);
        assert_eq!(r.failures, 0, "{:?}", r.errors);
        assert_eq!(r.times.len(), spec.recoveries);
        assert_eq!(r.times[0].live_records, oracle.live);
    }

    /// The correctness gate: one wrong oracle entry is exactly one failure.
    #[test]
    fn one_flipped_oracle_entry_is_one_failure() {
        let spec = tiny();
        let (image, mut oracle) = crashed(&spec, 3);
        let key = (1..oracle.values.len())
            .find(|&k| oracle.values[k] != 0)
            .expect("prefill left a live key");
        oracle.values[key] ^= 2; // another non-zero value: the live count stands
        let r = recover_and_verify(&spec, image, &oracle, &mut Tracer::new(false), None);
        assert_eq!(r.failures, 1, "{:?}", r.errors);
    }

    #[test]
    fn client_counts_a_wrong_reply() {
        let mut client = Client::new(10);
        client.check(3, Kind::Insert, 7, Reply::Changed(true));
        client.check(3, Kind::Get, 0, Reply::Value(Some(7)));
        assert_eq!(
            (client.attempted, client.failed, client.oracle.live),
            (2, 0, 1)
        );
        client.check(3, Kind::Get, 0, Reply::Value(Some(8)));
        client.check(3, Kind::Remove, 0, Reply::Changed(false));
        assert_eq!(
            (client.attempted, client.failed, client.oracle.live),
            (4, 2, 0)
        );
    }

    /// The same seed gives the same stream and the same records.
    #[test]
    fn same_seed_same_live_records() {
        for spec in WORKLOADS {
            // BD-Spash's hotspot counter overflows its u8 on a hot key
            // (hashtable/src/hotspot.rs, `v + 1` at saturation): a panic
            // with overflow checks on, a wrap to "cold" without.
            if cfg!(debug_assertions) && spec.structure == Structure::Spash {
                continue;
            }
            let spec = spec.scaled_down(200);
            let oracle_after_setup = || {
                let (inst, _) = setup(&spec, 11, &mut Tracer::new(false), None);
                let (_, _, _, client) = inst.quiesce();
                assert_eq!(client.failed, 0, "{}", spec.name);
                client.oracle
            };
            let (a, b) = (oracle_after_setup(), oracle_after_setup());
            assert_eq!(a.live, b.live, "{}", spec.name);
            assert!(a.values == b.values, "{}", spec.name);
        }
    }

    /// With epochs advanced by hand at fixed operation counts, the
    /// sequential load's media traffic repeats to the byte.
    #[test]
    fn hand_driven_load_repeats_its_media_bytes_exactly() {
        let spec = Spec::by_name("veb-load-recover").unwrap().scaled_down(200);
        let load = || {
            let heap = Arc::new(NvmHeap::new(NvmConfig::optane(32 << 20)));
            let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::manual());
            let htm = Arc::new(Htm::new(HtmConfig::default()));
            let store = Store::new(spec.structure, Arc::clone(&esys), htm);
            let mut client = Client::new(spec.keys);
            let mut stream = OpStream::generate(&spec, 0);
            while let Some((key, kind)) = stream.next() {
                client.apply(&store, key, kind);
                if client.index.is_multiple_of(1000) {
                    esys.advance();
                }
            }
            esys.flush_all();
            assert_eq!(client.failed, 0);
            heap.stats().snapshot().media_bytes() as f64 / client.index as f64
        };
        let (a, b) = (load(), load());
        assert_eq!(a, b);
        assert!(
            a > 64.0,
            "a 64 B record costs at least its own bytes, got {a}"
        );
    }
}
