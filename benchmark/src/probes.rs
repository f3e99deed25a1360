//! Layer probes: each layer's fixed costs, measured on small instances
//! of their own under the workload's `NvmConfig`, outside the timed
//! window (traced run only). Each probe is also a span.

use crate::metrics::{metric, Metric};
use crate::run::{nvm_config, Client};
use crate::stats::median;
use crate::store::Store;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Kind, OpStream, Spec};
use bdhtm_core::{EpochConfig, EpochSys, MetricsRegistry};
use htm_sim::{FallbackLock, Htm, HtmConfig};
use nvm_sim::{NvmConfig, NvmHeap};
use persist_alloc::{class_for_payload, Header, PAlloc};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROBE_HEAP: usize = 32 << 20;

/// Mean ns per call of `f`: a short warm-up, then batches for ~40 ms,
/// with the clock read once per batch.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const BATCH: u64 = 256;
    for _ in 0..BATCH {
        f();
    }
    let (mut calls, mut spent) = (0u64, Duration::ZERO);
    while spent < Duration::from_millis(40) {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        spent += t0.elapsed();
        calls += BATCH;
    }
    spent.as_nanos() as f64 / calls as f64
}

fn small_config(spec: &Spec) -> NvmConfig {
    NvmConfig {
        capacity_bytes: PROBE_HEAP,
        ..nvm_config(spec)
    }
}

fn manual_esys(spec: &Spec) -> Arc<EpochSys> {
    EpochSys::format(
        Arc::new(NvmHeap::new(small_config(spec))),
        EpochConfig::manual(),
    )
}

/// Client-thread fences and flushes per write, exactly: 50 k inserts of
/// new keys, then 50 k of the workload's other write (removes, or
/// updates where the mix has none), on a fresh instance with no ticker —
/// so nothing is written back and the counts repeat run to run.
pub fn op_path(spec: &Spec) -> (f64, f64) {
    const KEYS: u64 = 50_000;
    let esys = manual_esys(spec);
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    let store = Store::new(spec.structure, Arc::clone(&esys), htm);
    let mut client = Client::new(KEYS);
    let second = if spec.get_pm + spec.insert_pm < 1000 {
        Kind::Remove
    } else {
        Kind::Insert
    };
    let before = esys.heap().stats().snapshot();
    for kind in [Kind::Insert, second] {
        for key in 1..=KEYS {
            client.apply(&store, key, kind);
        }
    }
    assert_eq!(client.failed, 0, "op-path probe disagreed with its oracle");
    let d = esys.heap().stats().snapshot().since(&before);
    let writes = (2 * KEYS) as f64;
    (d.fences as f64 / writes, d.flushes as f64 / writes)
}

/// Runs probes one at a time, each under its own span.
struct Probes<'t> {
    tracer: &'t mut Tracer,
    parent: Option<SpanId>,
    out: Vec<Metric>,
}

impl Probes<'_> {
    /// Times `f` as the span `name` of `layer` and reports its result.
    fn run(
        &mut self,
        name: &'static str,
        layer: &'static str,
        unit: &'static str,
        f: impl FnOnce() -> f64,
    ) -> f64 {
        let span = self.tracer.open(name, layer, self.parent);
        let value = f();
        self.tracer.close(span);
        self.add(name, value, unit);
        value
    }

    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(metric(name, value, unit));
    }
}

pub fn all(spec: &Spec, seed: u64, tracer: &mut Tracer, parent: Option<SpanId>) -> Vec<Metric> {
    let mut p = Probes {
        tracer,
        parent,
        out: Vec::new(),
    };

    // htm-sim: begin/access/commit, and the fallback path.
    let htm = Htm::new(HtmConfig::default());
    let lock = FallbackLock::new();
    let cells: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
    p.run("htm-sim.txn_empty_ns", "htm-sim", "ns", || {
        ns_per_call(|| htm.attempt(|_| Ok(())).expect("empty transaction commits"))
    });
    p.run("htm-sim.txn_8r8w_ns", "htm-sim", "ns", || {
        ns_per_call(|| {
            htm.run(&lock, |m| {
                for i in 0..8 {
                    let v = m.load(&cells[i])?;
                    m.store(&cells[i + 8], v + 1)?;
                }
                Ok(())
            })
            .expect("no explicit abort")
        })
    });
    p.run("htm-sim.fallback_txn_ns", "htm-sim", "ns", || {
        let always_abort = Htm::new(HtmConfig::default().with_spurious(1.0));
        ns_per_call(|| {
            always_abort
                .run(&lock, |m| {
                    let v = m.load(&cells[0])?;
                    m.store(&cells[0], v + 1)
                })
                .expect("no explicit abort")
        })
    });

    // nvm-sim: the latency model as the host actually delivers it, and
    // what the operation path itself sends to the device.
    let config = small_config(spec);
    let configured = (config.writeback_ns + config.fence_ns) as f64;
    let heap = NvmHeap::new(config);
    let clwb_fence = p.run("nvm-sim.clwb_fence_ns", "nvm-sim", "ns", || {
        let a = heap.base();
        ns_per_call(|| {
            heap.write(a, black_box(1));
            heap.clwb(a);
            heap.fence();
        })
    });
    p.add("nvm-sim.spin_overshoot_ns", clwb_fence - configured, "ns");
    let mut flushes_per_write = 0.0;
    p.run("nvm-sim.oppath_fences_per_write", "nvm-sim", "1/op", || {
        let (fences, flushes) = op_path(spec);
        flushes_per_write = flushes;
        fences
    });
    p.add(
        "nvm-sim.oppath_flushes_per_write",
        flushes_per_write,
        "1/op",
    );

    // persist-alloc: direct calls, in the class the structures use.
    let alloc = PAlloc::new(Arc::new(NvmHeap::new(small_config(spec))));
    let class = class_for_payload(2).expect("two payload words fit the smallest class");
    let mut blocks = Vec::with_capacity(20_000);
    p.run("persist-alloc.alloc_ns", "persist-alloc", "ns", || {
        let t0 = Instant::now();
        for _ in 0..20_000 {
            blocks.push(alloc.alloc(class));
        }
        t0.elapsed().as_nanos() as f64 / blocks.len() as f64
    });
    p.run("persist-alloc.free_ns", "persist-alloc", "ns", || {
        let n = blocks.len() as f64;
        let t0 = Instant::now();
        for blk in blocks.drain(..) {
            alloc.free(blk);
        }
        t0.elapsed().as_nanos() as f64 / n
    });

    // esys: the operation bracket, allocation through it, and one
    // hand-driven write-back of 1000 tracked blocks.
    let esys = manual_esys(spec);
    p.run("esys.begin_end_ns", "esys", "ns", || {
        ns_per_call(|| {
            esys.begin_op();
            esys.end_op();
        })
    });
    p.run("esys.pnew_pdelete_ns", "esys", "ns", || {
        ns_per_call(|| {
            let blk = esys.p_new(2);
            esys.p_delete(blk);
        })
    });
    p.run("esys.advance_1k_blocks_us", "esys", "us", || {
        let mut rounds = Vec::new();
        for _ in 0..15 {
            let e = esys.begin_op();
            for _ in 0..1000 {
                let blk = esys.p_new(2);
                Header::set_epoch(esys.heap(), blk, e);
                esys.p_track(blk);
            }
            esys.end_op();
            esys.advance(); // closes the epoch before; e is now in flight
            let t0 = Instant::now();
            esys.advance(); // writes back e's 1000 blocks, inline
            rounds.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        median(&mut rounds)
    });

    // obs: what one metrics report costs.
    p.run("obs.report_ns", "obs", "ns", || {
        let mut registry = MetricsRegistry::new();
        registry.attach_esys(Arc::clone(&esys));
        ns_per_call(|| {
            black_box(registry.report());
        })
    });

    // ycsb-gen (generation of 200 k operations, less the distribution's
    // own set-up) and the harness's clock.
    p.run("ycsb-gen.next_op_ns", "ycsb-gen", "ns", || {
        let generate = |ring_ops: u64| {
            let spec = Spec {
                ring_ops,
                ..spec.clone()
            };
            let t0 = Instant::now();
            black_box(OpStream::generate(&spec, seed));
            t0.elapsed().as_nanos() as f64
        };
        (generate(200_000) - generate(0)).max(0.0) / 200_000.0
    });
    p.run("bench.timer_ns", "bench", "ns", || {
        ns_per_call(|| {
            black_box(Instant::now());
        })
    });
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// No ticker, nothing written back: the counts are exact.
    #[test]
    fn op_path_counts_repeat_exactly() {
        for spec in WORKLOADS {
            let (a, b) = (op_path(&spec), op_path(&spec));
            assert_eq!(a, b, "{}", spec.name);
        }
    }
}
