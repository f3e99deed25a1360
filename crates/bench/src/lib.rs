//! Shared benchmark-harness machinery for the figure/table binaries.
//!
//! Every experiment binary (`src/bin/fig*.rs`, `table3_space.rs`,
//! `recovery_time.rs`) reproduces one table or figure of the paper: it
//! builds the paper's workload, sweeps the paper's parameter, and prints
//! the same rows/series the paper reports. Absolute numbers differ (the
//! substrates are simulators and this machine is not a 40-core
//! Optane box); EXPERIMENTS.md records the shape comparison.
//!
//! Scaling knobs (environment variables, so `cargo run` lines stay
//! copy-pasteable):
//!
//! * `BDHTM_SECS` — seconds per data point (default 0.5).
//! * `BDHTM_THREADS` — comma-separated thread counts (default "1,2,4").
//! * `BDHTM_SCALE` — workload-size divisor exponent: key-space bits are
//!   reduced by this amount from the paper's (default 6, i.e. 2^26 →
//!   2^20) so runs finish on laptop-class containers.
//!
//! The binaries share one driver. A data point is a [`Point`]: the
//! structure under test, as a [`KvBackend`], and the background threads
//! that run beside it. [`Point::run`] prefills the structure, starts
//! those threads, measures throughput and stops them; [`series`]
//! runs a fresh point at each thread count; [`substrate`] builds a
//! buffered-durable point's heap, epoch system and HTM domain.

use bdhtm_core::{EpochConfig, EpochSys, EpochTicker, Persister};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ycsb_gen::{Mix, Op, OpKind, Rng64, Workload, WorkloadSpec};

pub mod cli;
pub use cli::CommonArgs;

/// Seconds per throughput data point.
pub fn secs_per_point() -> f64 {
    std::env::var("BDHTM_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

/// Thread counts to sweep.
pub fn thread_counts() -> Vec<usize> {
    std::env::var("BDHTM_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// Bits subtracted from the paper's key-space sizes.
pub fn scale_down_bits() -> u32 {
    std::env::var("BDHTM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

/// A key-value structure under test.
pub trait KvBackend: Send + Sync {
    fn read(&self, key: u64);
    fn insert(&self, key: u64, value: u64);
    fn remove(&self, key: u64);

    #[inline]
    fn run_op(&self, op: &Op) {
        match op.kind {
            OpKind::Read => self.read(op.key),
            OpKind::Insert => self.insert(op.key, op.value),
            OpKind::Remove => self.remove(op.key),
        }
    }
}

/// Implements [`KvBackend`] for each listed structure through its
/// inherent `get`/`insert`/`remove`. A `[mask]` is and-ed into every
/// inserted value.
macro_rules! kv_backend {
    ($($ty:ty $([$mask:expr])?),* $(,)?) => {$(
        impl KvBackend for $ty {
            #[inline]
            fn read(&self, key: u64) {
                let _ = <$ty>::get(self, key);
            }
            #[inline]
            fn insert(&self, key: u64, value: u64) {
                let _ = <$ty>::insert(self, key, value $(& $mask)?);
            }
            #[inline]
            fn remove(&self, key: u64) {
                let _ = <$ty>::remove(self, key);
            }
        }
    )*};
}

// `DlSkiplist` requires bit 63 of a value clear, and `Plush` reserves
// `u64::MAX` as its tombstone.
kv_backend!(
    veb::HtmVeb,
    veb::PhtmVeb,
    btree::LbTree,
    btree::OccAbTree,
    btree::ElimAbTree,
    skiplist::DlSkiplist[!(1 << 63)],
    skiplist::BdlSkiplist,
    hashtable::Spash,
    hashtable::BdSpash,
    hashtable::Cceh,
    hashtable::Plush[!(1 << 63)],
);

/// Prefills `backend` with half the key space (the paper's setup).
fn prefill(backend: &dyn KvBackend, workload: &Workload) {
    for k in workload.prefill_keys() {
        backend.insert(k, ycsb_gen::value_of(k));
    }
}

/// Runs `threads` workers against `backend` for [`secs_per_point`]
/// seconds and returns throughput in Mops/s.
fn throughput(backend: Arc<dyn KvBackend>, workload: &Workload, threads: usize) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let dur = Duration::from_secs_f64(secs_per_point());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let backend = Arc::clone(&backend);
            let workload = workload.clone();
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            s.spawn(move || {
                let mut rng = Rng64::new(0xB0B0 + tid as u64);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    backend.run_op(&workload.next_op(&mut rng));
                    n += 1;
                }
                ops.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    ops.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Heap capacity of one data point.
pub const HEAP_BYTES: usize = 512 << 20;

/// The paper's default epoch length.
pub const EPOCH_LEN: Duration = Duration::from_millis(50);

/// Flight-ring slots per thread when the sink exports a trace, as in the
/// benchmark harness: the default ring keeps only each thread's last 64
/// events, too few to hold a durability-lag arrow's two ends.
const TRACE_FLIGHT_SLOTS: usize = 1 << 14;

/// The buffered-durable substrate of one data point: a heap built from
/// `nvm`, an epoch system with `epoch_len` epochs on it and a default
/// HTM domain, both attached to `sink` when one is given.
pub fn substrate(
    nvm: NvmConfig,
    epoch_len: Duration,
    sink: Option<&mut MetricsSink>,
) -> (Arc<EpochSys>, Arc<Htm>) {
    let heap = Arc::new(NvmHeap::new(nvm));
    let mut config = EpochConfig::default().with_epoch_len(epoch_len);
    if sink.as_ref().is_some_and(|s| s.trace_out.is_some()) {
        config = config.with_flight_slots(TRACE_FLIGHT_SLOTS);
    }
    let esys = EpochSys::format(heap, config);
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    if let Some(sink) = sink {
        sink.attach_htm(&htm);
        sink.attach_esys(&esys);
    }
    (esys, htm)
}

/// One data point: the structure under test and the background threads
/// that run beside it while it is measured.
pub struct Point {
    backend: Arc<dyn KvBackend>,
    esys: Option<Arc<EpochSys>>,
    persister: bool,
    htm_window: Option<Arc<Htm>>,
}

impl Point {
    /// A structure with no epoch system: nothing runs beside it.
    pub fn plain(backend: impl KvBackend + 'static) -> Point {
        Point {
            backend: Arc::new(backend),
            esys: None,
            persister: false,
            htm_window: None,
        }
    }

    /// A buffered-durable structure on `esys`: an [`EpochTicker`] runs
    /// beside it.
    pub fn ticked(backend: impl KvBackend + 'static, esys: &Arc<EpochSys>) -> Point {
        Point {
            esys: Some(Arc::clone(esys)),
            ..Point::plain(backend)
        }
    }

    /// Also runs a [`Persister`] beside the ticker.
    pub fn with_persister(self) -> Point {
        Point {
            persister: true,
            ..self
        }
    }

    /// Resets `htm`'s stats once the background threads run, so that
    /// they count the measured window only.
    pub fn htm_window(self, htm: &Arc<Htm>) -> Point {
        Point {
            htm_window: Some(Arc::clone(htm)),
            ..self
        }
    }

    /// Prefills, starts the background threads, measures throughput
    /// with `threads` workers and stops the threads; returns Mops/s.
    pub fn run(self, workload: &Workload, threads: usize) -> f64 {
        prefill(self.backend.as_ref(), workload);
        let persister = (self.esys.as_ref())
            .filter(|_| self.persister)
            .map(|esys| Persister::spawn(Arc::clone(esys)));
        let ticker = self.esys.map(EpochTicker::spawn);
        if let Some(htm) = &self.htm_window {
            htm.stats().reset();
        }
        let mops = throughput(self.backend, workload, threads);
        if let Some(ticker) = ticker {
            ticker.stop();
        }
        if let Some(persister) = persister {
            persister.stop();
        }
        mops
    }
}

/// One series of a figure: a fresh [`Point`] from `make`, run at each
/// thread count in turn.
pub fn series(workload: &Workload, threads: &[usize], mut make: impl FnMut() -> Point) -> Vec<f64> {
    threads.iter().map(|&t| make().run(workload, t)).collect()
}

/// A workload over `universe` keys: uniform, or Zipfian with theta `zipf`.
pub fn workload(universe: u64, zipf: Option<f64>, mix: Mix) -> Workload {
    match zipf {
        None => WorkloadSpec::uniform(universe, mix),
        Some(theta) => WorkloadSpec::zipfian(universe, theta, mix),
    }
    .build()
}

/// The four workloads of Figs. 3 and 6, labelled `distribution / mix`:
/// {uniform, Zipfian(0.99)} × {write-heavy, read-heavy}.
pub fn quadrants(universe: u64) -> impl Iterator<Item = (String, Workload)> {
    let mixes = [
        ("write-heavy", Mix::write_heavy()),
        ("read-heavy", Mix::read_heavy()),
    ];
    [("uniform", None), ("zipfian(0.99)", Some(0.99))]
        .into_iter()
        .flat_map(move |(dist, zipf)| {
            mixes
                .into_iter()
                .map(move |(name, mix)| (format!("{dist} / {name}"), workload(universe, zipf, mix)))
        })
}

/// Shared observability-output handling for the figure binaries (see
/// [`cli::CommonArgs`] for the flags).
///
/// Every experiment binary constructs one sink from its argv, attaches
/// the substrate objects of the configuration it wants captured (by
/// convention the *last* configuration it builds, i.e. the final series
/// of the figure), and calls [`MetricsSink::write`] before exiting.
/// When no flag is present the sink is inert and costs nothing.
///
/// With `--metrics-series`, a background [`Sampler`](bdhtm_core::Sampler)
/// streams delta reports as JSON-lines while the run executes. Each
/// `attach_*` call restarts the sampler over the enlarged registry, so
/// the stream always covers every attached source; the line sequence
/// number and timestamp origin are shared across restarts, keeping the
/// stream monotone. With `--trace-out`, [`write`](Self::write) exports
/// the attached epoch system's flight recorder as a Perfetto trace.
#[derive(Default)]
pub struct MetricsSink {
    metrics_json: Option<String>,
    trace_out: Option<String>,
    registry: bdhtm_core::MetricsRegistry,
    esys: Option<Arc<bdhtm_core::EpochSys>>,
    series: Option<SeriesStream>,
    sampler: Option<bdhtm_core::Sampler>,
}

/// The `--metrics-series` output state shared across sampler restarts.
struct SeriesStream {
    path: String,
    file: Arc<Mutex<std::fs::File>>,
    seq: Arc<AtomicU64>,
    origin: Instant,
    interval: Duration,
}

impl MetricsSink {
    /// Builds a sink from the process arguments, which must all be
    /// common flags (exits with status 2 on any other argument).
    pub fn from_args() -> MetricsSink {
        let args = CommonArgs::parse();
        if let Some(arg) = args.rest.first() {
            eprintln!("error: unknown argument {arg:?}");
            std::process::exit(2);
        }
        let series = args.metrics_series.as_ref().map(|path| {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot create metrics series {path}: {e}");
                    std::process::exit(1);
                }
            };
            SeriesStream {
                path: path.clone(),
                file: Arc::new(Mutex::new(file)),
                seq: Arc::new(AtomicU64::new(0)),
                origin: Instant::now(),
                interval: Duration::from_millis(args.series_interval_ms.max(1)),
            }
        });
        MetricsSink {
            metrics_json: args.metrics_json,
            trace_out: args.trace_out,
            registry: bdhtm_core::MetricsRegistry::new(),
            esys: None,
            series,
            sampler: None,
        }
    }

    /// True when any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.metrics_json.is_some() || self.trace_out.is_some() || self.series.is_some()
    }

    /// Attaches the epoch system whose stats the report should capture
    /// (and whose flight recorder `--trace-out` exports).
    pub fn attach_esys(&mut self, esys: &Arc<bdhtm_core::EpochSys>) {
        if self.enabled() {
            self.registry.attach_esys(Arc::clone(esys));
            self.esys = Some(Arc::clone(esys));
            self.restart_sampler();
        }
    }

    /// Attaches the HTM domain whose stats the report should capture.
    pub fn attach_htm(&mut self, htm: &Arc<htm_sim::Htm>) {
        if self.enabled() {
            self.registry.attach_htm(Arc::clone(htm));
            self.restart_sampler();
        }
    }

    /// Attaches a bare NVM heap (for binaries without an epoch system).
    pub fn attach_heap(&mut self, heap: &Arc<nvm_sim::NvmHeap>) {
        if self.enabled() {
            self.registry.attach_heap(Arc::clone(heap));
            self.restart_sampler();
        }
    }

    /// (Re)starts the series sampler over the current registry. The
    /// closure ignores the sampler's own timestamp/sequence and uses the
    /// stream's shared origin and counter, so a stream spanning several
    /// sampler generations stays monotone with dense sequence numbers.
    fn restart_sampler(&mut self) {
        let Some(series) = &self.series else { return };
        if let Some(old) = self.sampler.take() {
            old.stop();
        }
        let file = Arc::clone(&series.file);
        let seq = Arc::clone(&series.seq);
        let origin = series.origin;
        self.sampler = Some(bdhtm_core::Sampler::spawn(
            self.registry.clone(),
            series.interval,
            move |_, _, delta| {
                let t_ns = origin.elapsed().as_nanos() as u64;
                let n = seq.fetch_add(1, Ordering::Relaxed);
                let line = bdhtm_core::series_line(t_ns, n, delta);
                let mut f = file.lock().unwrap();
                if writeln!(f, "{line}").is_err() {
                    // Keep running: a full disk should not kill the bench.
                }
            },
        ));
    }

    /// Snapshots the attached sources and writes every requested
    /// output: stops the series sampler (flushing its final sample),
    /// writes the `--metrics-json` report, and exports the
    /// `--trace-out` Perfetto trace. Call once, at the end of the run.
    pub fn write(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(series) = &self.series {
            eprintln!("metrics series written to {}", series.path);
        }
        if let Some(path) = &self.metrics_json {
            let json = self.registry.report().to_json();
            match std::fs::write(path, &json) {
                Ok(()) => eprintln!("metrics written to {path}"),
                Err(e) => {
                    eprintln!("error: cannot write metrics to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.trace_out {
            let Some(esys) = &self.esys else {
                eprintln!("error: --trace-out needs an epoch system attached; no trace written");
                std::process::exit(1);
            };
            let json = bdhtm_core::trace::chrome_trace_from_obs(esys.obs());
            match std::fs::write(path, &json) {
                Ok(()) => eprintln!("trace written to {path}"),
                Err(e) => {
                    eprintln!("error: cannot write trace to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Prints a series row: `label  v1  v2  v3 ...`.
pub fn row(label: &str, values: &[f64]) {
    let mut out = std::io::stdout().lock();
    let _ = write!(out, "{label:<28}");
    for v in values {
        let _ = write!(out, " {v:>9.3}");
    }
    let _ = writeln!(out);
}

/// Prints the thread-count header matching [`row`].
pub fn header(first: &str, threads: &[usize]) {
    let mut out = std::io::stdout().lock();
    let _ = write!(out, "{first:<28}");
    for t in threads {
        let _ = write!(out, " {:>8}T", t);
    }
    let _ = writeln!(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_drives_a_backend() {
        let (esys, htm) = substrate(NvmConfig::for_tests(32 << 20), EPOCH_LEN, None);
        let w = workload(1 << 12, None, Mix::write_heavy());
        std::env::set_var("BDHTM_SECS", "0.05");
        let mops = Point::ticked(veb::PhtmVeb::new(12, Arc::clone(&esys), htm), &esys)
            .with_persister()
            .run(&w, 2);
        assert!(mops > 0.0);
    }
}
