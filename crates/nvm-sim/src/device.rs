//! Transient runtime device faults: write-backs and fences that *fail*
//! (or stall) without killing the machine.
//!
//! [`crate::fault`] models power failure — a crash point fires, the
//! process image dies, and recovery starts from the media image. This
//! module models the other half of a hostile device: an `clwb` or
//! `sfence` that returns an error (media busy, thermal throttle, internal
//! retry exhausted) or takes orders of magnitude longer than the cost
//! model says it should. The machine keeps running; it is the *caller's*
//! job to retry, degrade, or fail stop — which is exactly what
//! `bdhtm-core`'s persister retry ladder and `HealthState` machinery do.
//!
//! A [`DeviceFaults`] schedule is seeded and deterministic: one RNG step
//! is consumed per guarded device operation regardless of outcome, so a
//! single-threaded driver replaying the same workload sees the same
//! faults at the same operations. Faults are injected only through the
//! fallible entry points ([`crate::NvmHeap::try_clwb`],
//! [`crate::NvmHeap::try_persist_range`], [`crate::NvmHeap::try_fence`]);
//! the infallible paths are untouched, so a heap with no schedule armed
//! is bit-for-bit identical to one built before this module existed.

use htm_sim::rng::AtomicSplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which device operation a transient fault interrupted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceOpKind {
    /// A `clwb` line write-back (also reached via `try_persist_range`).
    Writeback,
    /// An `sfence` draining prior write-backs.
    Fence,
}

/// A transient device error. The operation did **not** take effect
/// (nothing reached media); the device remains usable and the same
/// operation may succeed if retried.
#[derive(Clone, Copy, Debug)]
pub struct DeviceError {
    /// The operation kind that faulted.
    pub op: DeviceOpKind,
    /// The guarded-device-operation sequence number that faulted
    /// (position in the schedule, for diagnostics and determinism checks).
    pub seq: u64,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.op {
            DeviceOpKind::Writeback => "write-back",
            DeviceOpKind::Fence => "fence",
        };
        write!(
            f,
            "transient device error: {op} failed at device op {}",
            self.seq
        )
    }
}

impl std::error::Error for DeviceError {}

/// A seeded transient-fault schedule, armed on a heap via
/// [`crate::NvmHeap::arm_device_faults`].
///
/// Rates are per-mille (0..=1000) per guarded operation. An optional
/// `fault_budget` bounds the total injections, after which the device
/// heals and every operation succeeds: schedules can force a degradation
/// and then let the system drain.
pub struct DeviceFaults {
    wb_fail_permille: u32,
    fence_fail_permille: u32,
    spike_permille: u32,
    spike_ns: u64,
    fault_budget: u64,
    rng: AtomicSplitMix64,
    seq: AtomicU64,
    injected: AtomicU64,
}

impl DeviceFaults {
    /// An inert schedule (zero rates) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        DeviceFaults {
            wb_fail_permille: 0,
            fence_fail_permille: 0,
            spike_permille: 0,
            spike_ns: 0,
            fault_budget: 0,
            rng: AtomicSplitMix64::new(seed),
            seq: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Per-mille probability that a guarded write-back fails.
    pub fn with_writeback_failures(mut self, permille: u32) -> Self {
        self.wb_fail_permille = permille.min(1000);
        self
    }

    /// Per-mille probability that a guarded fence fails.
    pub fn with_fence_failures(mut self, permille: u32) -> Self {
        self.fence_fail_permille = permille.min(1000);
        self
    }

    /// Per-mille probability of a pure latency spike: the operation
    /// succeeds but spins for the spike duration first, stretching the
    /// persister's timing without failing it.
    pub fn with_latency_spikes(mut self, permille: u32, spike_ns: u64) -> Self {
        self.spike_permille = permille.min(1000);
        self.spike_ns = spike_ns;
        self
    }

    /// Caps total injected faults; afterwards the device heals
    /// (`0` = unlimited).
    pub fn with_fault_budget(mut self, max: u64) -> Self {
        self.fault_budget = max;
        self
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Guarded device operations observed so far.
    pub fn observed(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Called by the heap from the fallible entry points. Returns the
    /// spike duration to charge and the fault to surface, if any.
    pub(crate) fn draw(&self, op: DeviceOpKind) -> (u64, Option<DeviceError>) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        // One RNG step per guarded op regardless of outcome keeps the
        // schedule a pure function of (seed, op index).
        let r = self.rng.next_u64();

        let budget_open =
            self.fault_budget == 0 || self.injected.load(Ordering::SeqCst) < self.fault_budget;

        let rate = match op {
            DeviceOpKind::Writeback => self.wb_fail_permille,
            DeviceOpKind::Fence => self.fence_fail_permille,
        };
        if budget_open && rate > 0 && (r % 1000) < rate as u64 {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return (self.spike_ns, Some(DeviceError { op, seq }));
        }

        // Pure latency spike: operation succeeds, slowly.
        if self.spike_permille > 0 && ((r >> 32) % 1000) < self.spike_permille as u64 {
            return (self.spike_ns, None);
        }
        (0, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, n: u64) -> Vec<bool> {
        let d = DeviceFaults::new(seed).with_writeback_failures(200);
        (0..n)
            .map(|_| d.draw(DeviceOpKind::Writeback).1.is_some())
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(7, 500), schedule(7, 500));
        assert_ne!(schedule(7, 500), schedule(8, 500));
    }

    #[test]
    fn rates_roughly_respected() {
        let hits = schedule(42, 2000).iter().filter(|&&b| b).count();
        // 20% nominal; a loose band suffices.
        assert!(hits > 200 && hits < 700, "hits={hits}");
    }

    #[test]
    fn budget_caps_injections_then_heals() {
        let d = DeviceFaults::new(3)
            .with_writeback_failures(1000)
            .with_fault_budget(5);
        let mut failures = 0;
        for _ in 0..100 {
            if d.draw(DeviceOpKind::Writeback).1.is_some() {
                failures += 1;
            }
        }
        assert_eq!(failures, 5);
        assert_eq!(d.injected(), 5);
        // Healed: everything succeeds now.
        assert!(d.draw(DeviceOpKind::Writeback).1.is_none());
    }

    #[test]
    fn per_op_rates_are_independent() {
        let d = DeviceFaults::new(9).with_fence_failures(1000);
        assert!(d.draw(DeviceOpKind::Writeback).1.is_none());
        assert!(d.draw(DeviceOpKind::Fence).1.is_some());
    }
}
