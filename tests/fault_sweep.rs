//! Exhaustive crash-point sweeps: the systematic replacement for the
//! hand-placed crash tests. Every test enumerates the persist
//! boundaries a seeded mixed workload crosses (several thousand per
//! structure) and replays an even stride of them, crashing, recovering,
//! and checking the BDL e−2 prefix property plus each structure's
//! structural invariants. `FAULT_SEED` pins the whole schedule. Every
//! mode runs in one test module per row of `fault::bdl_structures!`.

use bd_htm::prelude::*;
use fault::{enumerate_points, replay, seed_from_env, sweep, SweepConfig, SweepReport};
use std::sync::Arc;

/// CI-sized sweep: enumerates well over 100 crash points per structure
/// while keeping each replay cheap on a single-core runner.
fn ci_cfg(seed: u64) -> SweepConfig {
    let mut c = SweepConfig::quick(seed);
    c.ops = 120;
    c.advance_every = 16;
    c.keys = 64;
    c
}

fn assert_clean(r: &SweepReport) {
    assert!(
        r.points >= 100,
        "{}: expected >= 100 crash points, enumerated {}",
        r.structure,
        r.points
    );
    assert!(
        r.passed(),
        "{}: {}/{} replays failed; first: {}",
        r.structure,
        r.failures.len(),
        r.replays,
        r.failures[0]
    );
    assert_eq!(
        r.fired, r.replays,
        "{}: every strided point must actually fire",
        r.structure
    );
}

fn crash_point_sweep<T: BdlKv>() {
    let cfg = ci_cfg(seed_from_env(0x0EB0_0001)).with_max_replays(80);
    assert_clean(&sweep::<T>(&cfg));
}

fn torn_write_sweep<T: BdlKv>() {
    let cfg = ci_cfg(seed_from_env(0x70A1_0001))
        .with_torn_writes()
        .with_max_replays(35);
    assert_clean(&sweep::<T>(&cfg));
}

fn double_crash_sweep<T: BdlKv>() {
    let cfg = ci_cfg(seed_from_env(0xD0B1_0001))
        .with_torn_writes()
        .with_double_crash()
        .with_max_replays(20);
    let r = sweep::<T>(&cfg);
    assert_clean(&r);
    assert!(
        r.double_crashes > 0,
        "{}: recovery must get crashed at least once",
        r.structure
    );
}

/// Same `FAULT_SEED` ⇒ identical crash-point schedule (the
/// reproducibility half of the sweep contract).
fn same_fault_seed_means_identical_schedule<T: BdlKv>() {
    let cfg = ci_cfg(0xDE7E_0001);
    assert_eq!(enumerate_points::<T>(&cfg), enumerate_points::<T>(&cfg));
}

/// Crashes swept *through the HTM fallback path*: seeded spurious,
/// conflict, and capacity aborts force retries and lock-mode execution,
/// and recovery after every crash point must still land on the durable
/// prefix (Listing 1's epoch tagging must hold in the fallback too).
fn abort_injection_sweep<T: BdlKv>() {
    let seed = seed_from_env(0xAB07_0001);
    let cfg = ci_cfg(seed)
        .with_htm(
            HtmConfig::for_tests()
                .with_abort_injection(seed | 1, 0.15, 0.10, 0.05)
                .with_max_retries(3),
        )
        .with_max_replays(25);
    assert_clean(&sweep::<T>(&cfg));
}

macro_rules! sweep_tests {
    ($(($module:ident, $ty:ty, $keys:path)),* $(,)?) => {$(
        mod $module {
            #[test]
            fn crash_point_sweep() {
                super::crash_point_sweep::<$ty>();
            }

            #[test]
            fn torn_write_sweep() {
                super::torn_write_sweep::<$ty>();
            }

            #[test]
            fn double_crash_sweep() {
                super::double_crash_sweep::<$ty>();
            }

            #[test]
            fn same_fault_seed_means_identical_schedule() {
                super::same_fault_seed_means_identical_schedule::<$ty>();
            }

            #[test]
            fn abort_injection_sweep() {
                super::abort_injection_sweep::<$ty>();
            }
        }
    )*};
}
fault::bdl_structures!(sweep_tests);

/// The acceptance scenario in one piece: *every* transaction attempt is
/// forced to abort, so every operation completes through the global-lock
/// fallback; a crash plus recovery must still satisfy the prefix
/// property, and no invalid-epoch block may surface from recovery.
#[test]
fn forced_fallback_ops_recover_to_the_durable_prefix() {
    use bd_htm::persist_alloc::INVALID_EPOCH;

    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(8 << 20)));
    let esys = EpochSys::format(Arc::clone(&heap), EpochConfig::manual());
    let htm = Arc::new(Htm::new(
        HtmConfig::for_tests()
            .with_abort_injection(0xFA11_BAC5, 1.0, 0.0, 0.0)
            .with_max_retries(2),
    ));
    let list = BdlSkiplist::new(Arc::clone(&esys), Arc::clone(&htm));

    // Seeded mixed workload, logging (epoch, key, value-or-remove).
    let mut log: Vec<(u64, u64, Option<u64>)> = Vec::new();
    let mut rng = htm_sim::SplitMix64::new(0xFA11_0001);
    for i in 0..300usize {
        let k = 1 + rng.next_below(64);
        if rng.next_below(4) < 3 {
            let v = rng.next_u64() | 1;
            log.push((esys.current_epoch(), k, Some(v)));
            list.insert(k, v);
        } else {
            log.push((esys.current_epoch(), k, None));
            list.remove(k);
        }
        if i % 25 == 24 {
            esys.advance();
        }
    }
    let snap = htm.stats().snapshot();
    assert_eq!(snap.commits, 0, "forced aborts must leave no HTM commits");
    assert!(
        snap.fallbacks > 0,
        "operations must go through the fallback"
    );

    let heap2 = Arc::new(NvmHeap::from_image(heap.crash()));
    let (esys2, live) = EpochSys::recover(heap2, EpochConfig::manual(), 1);
    let r = esys2.persisted_frontier();
    for b in &live {
        assert_ne!(
            b.epoch, INVALID_EPOCH,
            "invalid-epoch block survived recovery"
        );
        assert!(
            b.epoch <= r,
            "block from undurable epoch {} survived (frontier {r})",
            b.epoch
        );
    }
    let list2 = BdlSkiplist::recover(esys2, Arc::new(Htm::new(HtmConfig::for_tests())), &live, 1);
    list2.validate().expect("post-recovery invariants");

    let mut want = std::collections::HashMap::new();
    for &(e, k, v) in &log {
        if e > r {
            break;
        }
        match v {
            Some(v) => {
                want.insert(k, v);
            }
            None => {
                want.remove(&k);
            }
        }
    }
    for k in 1..=64u64 {
        assert_eq!(
            list2.get(k),
            want.get(&k).copied(),
            "key {k} diverged after fallback-path crash (frontier {r})"
        );
    }
}

/// A replay beyond the schedule degrades to an end-of-workload crash —
/// the sweep driver's guard against marginal schedule drift.
#[test]
fn replay_past_the_schedule_still_recovers() {
    let cfg = ci_cfg(0xE0D0_0001);
    let v = replay::<BdSpash>(&cfg, u64::MAX).expect("end-of-run crash must recover");
    assert!(!v.fired);
}
