//! The strict-DL crash sweep: a strictly durable structure keeps every
//! acknowledged operation across a crash at any persist point.
//!
//! [`DlKv`] is the strict counterpart of [`BdlKv`](bdhtm_core::BdlKv): a
//! structure that owns its heap and persists each operation before it
//! returns, with no epoch system. [`crash_every_point`] runs one
//! [`script`] under a counting [`FaultPlan`] to learn its persist points,
//! then replays it crashing at every `stride`-th one, plainly or with a
//! seeded torn write-back. After each crash:
//!
//! 1. recovery must give the map of the acknowledged prefix of the
//!    script, or of that prefix plus the one operation in flight;
//! 2. [`DlKv::validate`] must pass, which includes that the allocator's
//!    live blocks are exactly the blocks the structure reaches (no leak);
//! 3. as many keys again are inserted, `validate` passes, the heap
//!    crashes after the last insert, and a second recovery must give the
//!    first one's map plus those keys, and pass `validate`.
//!
//! A point whose check does not finish within [`HANG`] counts as hung;
//! the sweep goes on from the next point on a new thread, and stops after
//! [`MAX_HANGS`] of them.

use btree::{LbTree, OccAbTree};
use hashtable::{Cceh, Spash};
use htm_sim::{Htm, HtmConfig};
use nvm_sim::{CrashTriggered, FaultPlan, NvmConfig, NvmHeap};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A strictly durable key/value structure on a heap of its own.
pub trait DlKv: Send + Sync + Sized + 'static {
    /// Display name, the row's name in reports.
    const NAME: &'static str;

    /// Whether the structure runs on an eADR heap (persistent caches).
    const EADR: bool = false;

    /// An empty structure on a fresh heap.
    fn create(heap: Arc<NvmHeap>) -> Self;

    /// The structure a crashed heap holds.
    fn recover(heap: Arc<NvmHeap>) -> Self;

    /// Inserts or updates `key → value`; `true` if newly inserted.
    fn insert(&self, key: u64, value: u64) -> bool;

    /// Removes `key`; `true` if it was present.
    fn remove(&self, key: u64) -> bool;

    /// The value of `key`, if present.
    fn get(&self, key: u64) -> Option<u64>;

    /// Structural invariants, and that the allocator's live blocks are
    /// exactly the blocks the structure reaches. Call while quiescent.
    fn validate(&self) -> Result<(), String>;
}

macro_rules! impl_dl_kv {
    ($ty:ty, $name:literal, $eadr:literal, new: $new:expr, recover: $recover:expr) => {
        impl DlKv for $ty {
            const NAME: &'static str = $name;
            const EADR: bool = $eadr;

            fn create(heap: Arc<NvmHeap>) -> Self {
                ($new)(heap)
            }

            fn recover(heap: Arc<NvmHeap>) -> Self {
                ($recover)(heap)
            }

            fn insert(&self, key: u64, value: u64) -> bool {
                <$ty>::insert(self, key, value).is_none()
            }

            fn remove(&self, key: u64) -> bool {
                <$ty>::remove(self, key).is_some()
            }

            fn get(&self, key: u64) -> Option<u64> {
                <$ty>::get(self, key)
            }

            fn validate(&self) -> Result<(), String> {
                <$ty>::validate(self)
            }
        }
    };
}

fn htm() -> Arc<Htm> {
    Arc::new(Htm::new(HtmConfig::for_tests()))
}

impl_dl_kv!(Cceh, "cceh", false, new: Cceh::new, recover: Cceh::recover);
impl_dl_kv!(Spash, "spash", true,
    new: |heap| Spash::new(heap, htm()),
    recover: |heap| Spash::recover(heap, htm()));
impl_dl_kv!(LbTree, "lbtree", false, new: LbTree::new, recover: LbTree::recover);
impl_dl_kv!(OccAbTree, "occ-abtree", false, new: OccAbTree::new, recover: OccAbTree::recover);

/// One sweep: `(inserts, torn-write seed, stride)` to its report.
pub type Sweep = fn(u64, Option<u64>, u64) -> StrictReport;

/// The rows [`crash_every_point`] sweeps, by name.
pub const ROWS: &[(&str, Sweep)] = &[
    (Cceh::NAME, crash_every_point::<Cceh>),
    (Spash::NAME, crash_every_point::<Spash>),
    (LbTree::NAME, crash_every_point::<LbTree>),
    (OccAbTree::NAME, crash_every_point::<OccAbTree>),
];

/// The torn-write seed of the tier-1 sweep.
pub const TORN_SEED: u64 = 0xBD;

/// How long one point's check may take before it counts as hung.
pub const HANG: Duration = Duration::from_secs(10);

/// Hung points after which a sweep stops: each leaves a thread behind.
pub const MAX_HANGS: u64 = 4;

/// One operation of a script.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Insert(u64, u64),
    Remove(u64),
}

/// Keys `0..n` inserted in ascending order (value `k + 1`), then every
/// third key removed, then the keys `k % 6 < 2` written again (value
/// `k + n + 1`): a removed key comes back into a freed slot, a live one
/// changes in place.
pub fn script(n: u64) -> Vec<Op> {
    let inserts = (0..n).map(|k| Op::Insert(k, k + 1));
    let removes = (0..n).step_by(3).map(Op::Remove);
    let rewrites = (0..n)
        .filter(|k| k % 6 < 2)
        .map(|k| Op::Insert(k, k + n + 1));
    inserts.chain(removes).chain(rewrites).collect()
}

fn apply<T: DlKv>(t: &T, op: Op) {
    match op {
        Op::Insert(k, v) => {
            t.insert(k, v);
        }
        Op::Remove(k) => {
            t.remove(k);
        }
    }
}

/// The map `ops` leave.
fn oracle(ops: &[Op]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for &op in ops {
        match op {
            Op::Insert(k, v) => m.insert(k, v),
            Op::Remove(k) => m.remove(&k),
        };
    }
    m
}

/// What one sweep found.
#[derive(Clone, Debug, Default)]
pub struct StrictReport {
    pub name: &'static str,
    pub torn: bool,
    /// Persist points the script crosses.
    pub points: u64,
    /// Every this many points was crashed.
    pub stride: u64,
    /// Points crashed and checked.
    pub checked: u64,
    /// Points after which a recovered map diverged from the oracle, or a
    /// recovery or check panicked.
    pub lost: u64,
    /// Points after which `validate` failed.
    pub invalid: u64,
    /// Points whose check did not finish within [`HANG`].
    pub hung: u64,
    /// The first failing point, and what failed.
    pub first: Option<(u64, String)>,
}

impl StrictReport {
    /// Whether every checked point passed.
    pub fn ok(&self) -> bool {
        self.lost == 0 && self.invalid == 0 && self.hung == 0
    }
}

impl fmt::Display for StrictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {} points, every {}: {} checked, {} lost, {} invalid, {} hung",
            self.name,
            if self.torn { "torn" } else { "plain" },
            self.points,
            self.stride,
            self.checked,
            self.lost,
            self.invalid,
            self.hung
        )?;
        if let Some((p, why)) = &self.first {
            write!(f, "; first at point {p}: {why}")?;
        }
        Ok(())
    }
}

/// The failures one point's check found.
#[derive(Default)]
struct Verdict {
    lost: Option<String>,
    invalid: Option<String>,
}

/// One sweep of `script(inserts)` for `T` (module docs). `torn` seeds a
/// torn write-back at each crash.
pub fn crash_every_point<T: DlKv>(inserts: u64, torn: Option<u64>, stride: u64) -> StrictReport {
    let stride = stride.max(1);
    let heap_bytes = ((inserts as usize) << 11).max(512 << 10);
    let config = NvmConfig::for_tests(heap_bytes).with_eadr(T::EADR);
    let ops: Arc<[Op]> = script(inserts).into();
    let counter = Arc::new(FaultPlan::count());
    run::<T>(&config, &ops, counter.clone());
    let mut report = StrictReport {
        name: T::NAME,
        torn: torn.is_some(),
        points: counter.points(),
        stride,
        ..StrictReport::default()
    };
    let mut next = 0;
    while next < report.points && report.hung < MAX_HANGS {
        let (tx, rx) = mpsc::channel();
        let (config, ops, points) = (config.clone(), Arc::clone(&ops), report.points);
        let worker = std::thread::spawn(move || {
            for p in (next..points).step_by(stride as usize) {
                let verdict = check_point::<T>(&config, &ops, inserts, p, torn);
                if tx.send((p, verdict)).is_err() {
                    return;
                }
            }
        });
        loop {
            match rx.recv_timeout(HANG) {
                Ok((p, verdict)) => {
                    report.checked += 1;
                    for (failed, count) in [
                        (verdict.lost, &mut report.lost),
                        (verdict.invalid, &mut report.invalid),
                    ] {
                        if let Some(why) = failed {
                            *count += 1;
                            report.first.get_or_insert((p, why));
                        }
                    }
                    next = p + stride;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    report.checked += 1;
                    report.hung += 1;
                    report.first.get_or_insert((next, "hung".into()));
                    next += stride;
                    break;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    if let Err(payload) = worker.join() {
                        resume_unwind(payload);
                    }
                    next = report.points;
                    break;
                }
            }
        }
    }
    report
}

/// Runs `ops` on a fresh structure with `plan` armed; returns how many
/// were acknowledged before the plan's crash, if it fired.
fn run<T: DlKv>(config: &NvmConfig, ops: &[Op], plan: Arc<FaultPlan>) -> usize {
    let heap = Arc::new(NvmHeap::new(config.clone()));
    let t = T::create(Arc::clone(&heap));
    heap.arm_fault_plan(plan);
    let mut acked = 0;
    let r = catch_unwind(AssertUnwindSafe(|| {
        for &op in ops {
            apply(&t, op);
            acked += 1;
        }
    }));
    heap.disarm_fault_plan();
    if let Err(payload) = r {
        if payload.downcast_ref::<CrashTriggered>().is_none() {
            resume_unwind(payload);
        }
    }
    acked
}

/// The map `t` holds over the keys a sweep of `inserts` touches.
fn read_map<T: DlKv>(t: &T, inserts: u64) -> BTreeMap<u64, u64> {
    (0..2 * inserts)
        .filter_map(|k| Some((k, t.get(k)?)))
        .collect()
}

/// The first key on which `got` and `want` differ.
fn diff(got: &BTreeMap<u64, u64>, want: &BTreeMap<u64, u64>) -> String {
    let k = got
        .keys()
        .chain(want.keys())
        .copied()
        .find(|k| got.get(k) != want.get(k))
        .expect("the maps differ");
    format!(
        "key {k} reads {:?}, acknowledged {:?}",
        got.get(&k),
        want.get(&k)
    )
}

/// Crashes the script at point `p` and checks both recoveries.
fn check_point<T: DlKv>(
    config: &NvmConfig,
    ops: &[Op],
    inserts: u64,
    p: u64,
    torn: Option<u64>,
) -> Verdict {
    let mut plan = FaultPlan::crash_at(p);
    if let Some(seed) = torn {
        plan = plan.with_torn_writes(seed);
    }
    let plan = Arc::new(plan);
    let mut verdict = Verdict::default();
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let acked = run::<T>(config, ops, Arc::clone(&plan));
        let Some(image) = plan.take_image() else {
            verdict.lost = Some("the crash point never fired".into());
            return;
        };
        let heap = Arc::new(NvmHeap::from_image(image));
        let t = T::recover(Arc::clone(&heap));
        let mut map = read_map(&t, inserts);
        let before = oracle(&ops[..acked]);
        let after = oracle(&ops[..(acked + 1).min(ops.len())]);
        if map != before && map != after {
            verdict.lost = Some(diff(&map, &before));
            return;
        }
        let mut validate = |t: &T, when: &str| {
            if let Err(e) = t.validate() {
                verdict.invalid.get_or_insert(format!("{when}: {e}"));
            }
        };
        validate(&t, "after recovery");
        for k in inserts..2 * inserts {
            t.insert(k, k + 1);
            map.insert(k, k + 1);
        }
        validate(&t, "after more inserts");
        let t = T::recover(Arc::new(NvmHeap::from_image(heap.crash())));
        validate(&t, "after a second recovery");
        let again = read_map(&t, inserts);
        if again != map {
            verdict.lost = Some(format!("second recovery: {}", diff(&again, &map)));
        }
    }));
    if let Err(payload) = checked {
        let why = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        verdict.lost = Some(format!("panicked: {why}"));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts per script: every row splits at least twice in them.
    const INSERTS: u64 = 150;

    fn every_row(torn: Option<u64>) {
        crate::silence_crash_panics();
        let reports: Vec<StrictReport> = ROWS
            .iter()
            .map(|(_, sweep)| sweep(INSERTS, torn, 1))
            .collect();
        for r in &reports {
            assert!(r.ok(), "{r}");
        }
    }

    #[test]
    fn plain_crashes_keep_every_acknowledged_op() {
        every_row(None);
    }

    #[test]
    fn torn_crashes_keep_every_acknowledged_op() {
        every_row(Some(TORN_SEED));
    }

    #[test]
    fn the_script_removes_and_rewrites() {
        let ops = script(12);
        let map = oracle(&ops);
        assert_eq!(ops.len(), 12 + 4 + 4);
        assert_eq!(map.get(&0), Some(&13), "a removed key comes back");
        assert_eq!(map.get(&1), Some(&14), "a live key changes in place");
        assert_eq!(map.get(&3), None);
        assert_eq!(map.get(&2), Some(&3));
    }
}
