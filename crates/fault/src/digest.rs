//! Single source of truth for the pinned behavior-preservation digests.
//!
//! [`pinned_digest`] folds the verdicts of the pinned-seed plain and
//! torn crash sweeps over every structure family into one FNV-1a value;
//! [`pinned_pipelined_digest`] does the same for the `pipelined` and
//! `pipelined-torn` sweeps, the persist path production runs. CI
//! recomputes both (`fault_sweep --digest --check`) and fails if either
//! drifts from its constant below — the cheapest possible "this refactor
//! changed no crash-point schedule and no recovery outcome" gate.
//!
//! If a change *intentionally* alters sweep behavior (new crash points,
//! different workload, a real recovery fix), update the constants here —
//! and only here; ci.sh and the sweep binary both read them.

use crate::sweep::{sweep_all, SweepConfig, SweepReport};

/// The seed the pinned digests are defined over (ci.sh exports it as
/// `FAULT_SEED=0xBD15EED`; also the sweep binary's default).
pub const PINNED_SWEEP_SEED: u64 = 0xBD1_5EED;

/// Expected value of `pinned_digest(PINNED_SWEEP_SEED)`. Last moved
/// when allocation stopped flushing and reclamation began fencing once
/// per batch (DESIGN.md §5.1).
pub const PINNED_SWEEP_DIGEST: u64 = 0xb1e2_fbfa_8975_c535;

/// Expected value of `pinned_pipelined_digest(PINNED_SWEEP_SEED)`. Last
/// moved when the persister took over every seal from the advance and
/// the hand-driven driver came down to one call, `persist_next_batch`
/// (DESIGN.md §3.4.2).
pub const PINNED_PIPELINED_DIGEST: u64 = 0xcee2_d0ff_8dfd_3545;

/// Folds sweep reports into one order-sensitive FNV-1a digest over
/// everything a sweep observes: structure names, enumerated point
/// counts, replay/fired/double-crash tallies, and every failure line.
/// Two runs whose crash schedules and verdicts agree digest equal.
pub fn digest_reports(reports: &[SweepReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in reports {
        eat(&mut h, r.structure.as_bytes());
        for word in [r.points, r.replays, r.fired, r.double_crashes] {
            eat(&mut h, &word.to_le_bytes());
        }
        for f in &r.failures {
            eat(&mut h, f.as_bytes());
        }
    }
    h
}

/// The behavior-preservation digest: a plain and a torn-write sweep of
/// every structure family at a fixed, CI-sized configuration, folded
/// with [`digest_reports`]. The value is a function of the persist
/// schedule alone, so refactors that claim to preserve the operation
/// lifecycle can assert the digest is bit-identical before and after.
pub fn pinned_digest(seed: u64) -> u64 {
    pinned_plain_and_torn(pinned_config(seed))
}

/// The production-path digest: [`pinned_digest`]'s configuration in the
/// `pipelined` and `pipelined-torn` modes, where write-backs, early
/// seals and frontier publishes run on the sweep's hand-driven
/// stand-in for the background persister.
pub fn pinned_pipelined_digest(seed: u64) -> u64 {
    let mut cfg = pinned_config(seed);
    cfg.pipelined = true;
    pinned_plain_and_torn(cfg)
}

fn pinned_config(seed: u64) -> SweepConfig {
    let mut cfg = SweepConfig::quick(seed);
    cfg.ops = 160;
    cfg.max_replays = 25;
    cfg
}

fn pinned_plain_and_torn(cfg: SweepConfig) -> u64 {
    let mut reports = sweep_all(&cfg);
    reports.extend(sweep_all(&cfg.with_torn_writes()));
    digest_reports(&reports)
}
