//! Runtime device-fault sweep: the *live-system* counterpart of the
//! crash sweeps.
//!
//! [`mod@crate::sweep`] kills the machine at a numbered persist
//! boundary and validates recovery. This module keeps
//! the machine alive but makes the *device* unreliable: a seeded
//! [`DeviceFaults`] schedule turns write-backs and fences into
//! transient failures and latency spikes, and the assertions follow the
//! epoch system across the whole fault-tolerance ladder —
//!
//! * **transient** — moderate fault rates inside the persister's retry
//!   budget: the workload must complete with health `Ok` or `Degraded`
//!   (never fail-stop), the live state must equal the full mutation-log
//!   fold, and a crash at the end must still recover exactly the
//!   durable prefix.
//! * **degrade** — a guaranteed budget exhaustion (always-failing
//!   device with a fault budget sized to one batch's attempts, after
//!   which the device heals): health must ratchet `Ok → Degraded`
//!   exactly once, the re-queued batch must drain inline — no lost
//!   durable prefix — and the run must finish synchronously.
//! * **fail-stop** — an always-failing device with no healing: health
//!   must reach `Failed`, new operations must be rejected with the
//!   typed [`bdhtm_core::OpRejected`] error, the frontier must freeze at the last
//!   fully persisted epoch, and recovery from a crash of the frozen
//!   system must yield precisely that epoch's prefix.
//!
//! Scheduling is deterministic: one driving thread, hand-driven drains
//! (the pipelined [`mod@crate::sweep`] idiom), and a device-fault stream that
//! is a pure function of `(seed, guarded-op index)` — the same seed
//! replays the same retries, the same degradations, the same verdicts.

use crate::sweep::{check_recovered, Mutation, SweepConfig};
use bdhtm_core::{BdlKv, EpochConfig, EpochSys, HealthState};
use htm_sim::{Htm, SplitMix64};
use nvm_sim::{DeviceFaults, NvmConfig, NvmHeap};
use std::sync::Arc;

/// One structure × scenario verdict.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    pub structure: &'static str,
    /// `"transient"`, `"degrade"`, or `"failstop"`.
    pub scenario: &'static str,
    /// Write-back retries the schedule provoked.
    pub persist_retries: u64,
    /// Health-ladder downgrades observed.
    pub degradations: u64,
    /// Health at the end of the run (`"ok"`/`"degraded"`/`"failed"`).
    pub final_health: &'static str,
    /// Everything that went wrong (empty = scenario held).
    pub failures: Vec<String>,
}

impl RuntimeReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn setup_runtime<T: BdlKv>(
    cfg: &SweepConfig,
    econf: EpochConfig,
) -> (Arc<NvmHeap>, Arc<EpochSys>, T) {
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(cfg.heap_bytes)));
    let esys = EpochSys::format(Arc::clone(&heap), econf);
    esys.attach_persister();
    let t = T::new(Arc::clone(&esys), Arc::new(Htm::new(cfg.htm.clone())));
    (heap, esys, t)
}

/// The seeded mixed workload under device faults. Stops early (returns
/// `false`) if the system fail-stops; health is re-checked between
/// operations, so a single-threaded run never trips the `begin_op`
/// rejection panic.
fn run_ops<T: BdlKv>(
    t: &T,
    esys: &EpochSys,
    cfg: &SweepConfig,
    log: &mut Vec<(u64, Mutation)>,
) -> bool {
    let mut rng = SplitMix64::new(cfg.seed);
    for i in 0..cfg.ops {
        if esys.health() == HealthState::Failed {
            return false;
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
        // Hand-driven persist step half a period after each advance (it
        // seals the oldest closed epoch, then writes back); a no-op once
        // the system degrades (advances then drain inline) or fails
        // (queue frozen).
        if i % cfg.advance_every == cfg.advance_every / 2 {
            esys.persist_next_batch();
        }
    }
    if esys.health() == HealthState::Failed {
        return false;
    }
    // Clean tail: release, seal and drain whatever the cadence left
    // behind.
    esys.advance();
    while esys.persist_next_batch() {}
    esys.health() != HealthState::Failed
}

/// Crash the (possibly degraded/failed) system and validate that
/// recovery yields exactly the durable prefix of the recovered
/// frontier — the BDL guarantee must survive every rung of the ladder.
fn check_crash_recovery<T: BdlKv>(
    heap: &Arc<NvmHeap>,
    log: &[(u64, Mutation)],
    cfg: &SweepConfig,
    ctx: &str,
) -> Result<(), String> {
    let img = heap.crash();
    let (_esys, t2, frontier) = crate::sweep::recover::<T>(img);
    check_recovered(&t2, log, frontier, cfg, ctx)
}

/// Scenario 1: transient faults within the retry budget.
fn run_transient<T: BdlKv>(cfg: &SweepConfig, faults: Arc<DeviceFaults>) -> RuntimeReport {
    let econf = EpochConfig::manual().with_persist_retries(6);
    let (heap, esys, t) = setup_runtime::<T>(cfg, econf);
    heap.arm_device_faults(Arc::clone(&faults));
    let mut log = Vec::new();
    let mut failures = Vec::new();
    let ctx = format!("{} runtime transient seed {:#x}", T::NAME, cfg.seed);
    let completed = run_ops(&t, &esys, cfg, &mut log);
    if !completed {
        failures.push(format!("{ctx}: fail-stopped under transient faults"));
    }
    if let Err(e) = check_recovered(&t, &log, u64::MAX, cfg, &ctx) {
        failures.push(e);
    }
    if esys.stats().snapshot().persist_retries == 0 {
        failures.push(format!("{ctx}: schedule provoked no retries (dead knob?)"));
    }
    heap.disarm_device_faults();
    if completed {
        esys.flush_all();
        if let Err(e) = check_crash_recovery::<T>(&heap, &log, cfg, &ctx) {
            failures.push(e);
        }
    }
    finish_report::<T>(&esys, "transient", failures)
}

/// Scenario 2: one guaranteed budget exhaustion, then a healed device.
fn run_degrade<T: BdlKv>(cfg: &SweepConfig) -> RuntimeReport {
    let retries = 1u32;
    let econf = EpochConfig::manual().with_persist_retries(retries);
    let (heap, esys, t) = setup_runtime::<T>(cfg, econf);
    // Every write-back fails until exactly one batch's attempt budget
    // (1 + retries injections) is burned, then the device heals: the
    // ladder stops at Degraded, deterministically.
    let faults = Arc::new(
        DeviceFaults::new(cfg.seed)
            .with_writeback_failures(1000)
            .with_fault_budget((1 + retries) as u64),
    );
    heap.arm_device_faults(Arc::clone(&faults));
    let mut log = Vec::new();
    let mut failures = Vec::new();
    let ctx = format!("{} runtime degrade seed {:#x}", T::NAME, cfg.seed);
    let f_before = esys.persisted_frontier();
    let completed = run_ops(&t, &esys, cfg, &mut log);
    if !completed {
        failures.push(format!("{ctx}: escalated past Degraded"));
    }
    if esys.health() != HealthState::Degraded {
        failures.push(format!(
            "{ctx}: expected Degraded, got {}",
            esys.health().as_str()
        ));
    }
    if esys.last_persist_error().is_none() {
        failures.push(format!("{ctx}: degradation published no PersistError"));
    }
    if esys.persisted_frontier() < f_before {
        failures.push(format!("{ctx}: frontier regressed"));
    }
    if esys.batches_in_flight() != 0 {
        failures.push(format!(
            "{ctx}: {} batches stranded after inline drain",
            esys.batches_in_flight()
        ));
    }
    if let Err(e) = check_recovered(&t, &log, u64::MAX, cfg, &ctx) {
        failures.push(e);
    }
    heap.disarm_device_faults();
    if completed {
        esys.flush_all();
        if let Err(e) = check_crash_recovery::<T>(&heap, &log, cfg, &ctx) {
            failures.push(e);
        }
    }
    finish_report::<T>(&esys, "degrade", failures)
}

/// Scenario 3: a dead device — the ladder must run to fail-stop.
fn run_failstop<T: BdlKv>(cfg: &SweepConfig) -> RuntimeReport {
    let econf = EpochConfig::manual().with_persist_retries(0);
    let (heap, esys, t) = setup_runtime::<T>(cfg, econf);
    let faults = Arc::new(DeviceFaults::new(cfg.seed).with_writeback_failures(1000));
    heap.arm_device_faults(Arc::clone(&faults));
    let mut log = Vec::new();
    let mut failures = Vec::new();
    let ctx = format!("{} runtime failstop seed {:#x}", T::NAME, cfg.seed);
    let completed = run_ops(&t, &esys, cfg, &mut log);
    if completed {
        failures.push(format!("{ctx}: never fail-stopped on a dead device"));
    }
    if esys.health() != HealthState::Failed {
        failures.push(format!(
            "{ctx}: expected Failed, got {}",
            esys.health().as_str()
        ));
    }
    // Fail-stop must poison new operations with the typed error …
    match esys.try_begin_op() {
        Err(rej) if rej.health == HealthState::Failed => {}
        other => failures.push(format!("{ctx}: try_begin_op returned {other:?} on Failed")),
    }
    // … freeze the frontier …
    let frozen = esys.persisted_frontier();
    esys.advance_until(frozen + 1); // must return, not wedge
    if esys.persisted_frontier() != frozen {
        failures.push(format!("{ctx}: frontier moved on a failed system"));
    }
    // … and preserve the durable prefix through a crash of the frozen
    // system.
    heap.disarm_device_faults();
    if let Err(e) = check_crash_recovery::<T>(&heap, &log, cfg, &ctx) {
        failures.push(e);
    }
    finish_report::<T>(&esys, "failstop", failures)
}

fn finish_report<T: BdlKv>(
    esys: &EpochSys,
    scenario: &'static str,
    failures: Vec<String>,
) -> RuntimeReport {
    let snap = esys.stats().snapshot();
    esys.detach_persister();
    RuntimeReport {
        structure: T::NAME,
        scenario,
        persist_retries: snap.persist_retries,
        degradations: snap.degradations,
        final_health: esys.health().as_str(),
        failures,
    }
}

/// Moderate seeded fault rates for the transient scenario. A batch
/// *attempt* fails if any of its guarded device ops draws a failure,
/// and a batch can easily issue dozens of write-backs — so per-op
/// permilles must stay small for the per-attempt failure probability
/// to sit in the "retries absorb it" regime rather than "every attempt
/// fails, budget exhausts, ladder runs to fail-stop".
fn transient_faults(seed: u64) -> Arc<DeviceFaults> {
    Arc::new(
        DeviceFaults::new(seed)
            .with_writeback_failures(8)
            .with_fence_failures(3)
            .with_latency_spikes(50, 2_000),
    )
}

/// All three scenarios for one structure family.
pub fn sweep_runtime<T: BdlKv>(seed: u64) -> Vec<RuntimeReport> {
    let cfg = SweepConfig::quick(seed);
    vec![
        run_transient::<T>(&cfg, transient_faults(seed)),
        run_degrade::<T>(&cfg),
        run_failstop::<T>(&cfg),
    ]
}

/// The full runtime-fault matrix: the three scenarios for every
/// structure of [`crate::bdl_structures!`], in list order.
pub fn sweep_runtime_all(seed: u64) -> Vec<RuntimeReport> {
    macro_rules! sweeps {
        ($(($module:ident, $ty:ty, $keys:path)),* $(,)?) => {
            [$(sweep_runtime::<$ty>(seed)),*].concat()
        };
    }
    crate::bdl_structures!(sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashtable::BdSpash;
    use skiplist::BdlSkiplist;
    use veb::PhtmVeb;

    #[test]
    fn transient_schedule_is_deterministic() {
        let a =
            run_transient::<PhtmVeb>(&SweepConfig::quick(0xD15EA5E), transient_faults(0xD15EA5E));
        let b =
            run_transient::<PhtmVeb>(&SweepConfig::quick(0xD15EA5E), transient_faults(0xD15EA5E));
        assert_eq!(
            a.persist_retries, b.persist_retries,
            "same seed, same retries"
        );
        assert!(a.passed(), "{:?}", a.failures);
    }

    #[test]
    fn degrade_scenario_holds_for_skiplist() {
        let r = run_degrade::<BdlSkiplist>(&SweepConfig::quick(0xBD15EED));
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.final_health, "degraded");
        assert_eq!(r.degradations, 1);
    }

    #[test]
    fn failstop_scenario_holds_for_hashtable() {
        let r = run_failstop::<BdSpash>(&SweepConfig::quick(0xBD15EED));
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.final_health, "failed");
    }

    #[test]
    fn full_matrix_passes_on_the_pinned_seed() {
        for r in sweep_runtime_all(0xBD15EED) {
            assert!(
                r.passed(),
                "{}/{}: {:?}",
                r.structure,
                r.scenario,
                r.failures
            );
        }
    }
}
