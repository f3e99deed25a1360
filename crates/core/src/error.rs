//! The runtime error taxonomy: typed, recoverable failures of the live
//! system, as opposed to the crash-model failures of `nvm_sim::fault`.
//!
//! The health ladder is a one-way ratchet `Ok → Degraded → Failed`:
//!
//! * **Ok** — background pipelining allowed, every batch persisting
//!   within its retry budget.
//! * **Degraded** — some batch exhausted the persister's retry budget.
//!   Background pipelining is switched off ([`EpochSys::pipelined`]
//!   returns false), so every subsequent advance persists inline with
//!   the full retry ladder; the queued batches drain in epoch order
//!   and nothing durable is lost. The typed [`PersistError`] that
//!   caused the downgrade is published via
//!   [`EpochSys::last_persist_error`].
//! * **Failed** — a batch exhausted its budget *again* while already
//!   degraded. The system
//!   stops accepting operations: [`EpochSys::try_begin_op`] returns
//!   [`OpRejected`] and [`EpochSys::begin_op`] unwinds with it as a
//!   typed panic payload instead of wedging. The durable frontier
//!   freezes at the last fully persisted epoch, so recovery semantics
//!   are exactly those of a crash at that point.
//!
//! [`EpochSys::pipelined`]: crate::EpochSys
//! [`EpochSys::try_begin_op`]: crate::EpochSys::try_begin_op
//! [`EpochSys::begin_op`]: crate::EpochSys::begin_op
//! [`EpochSys::last_persist_error`]: crate::EpochSys::last_persist_error

use nvm_sim::{DeviceError, NvmAddr};

/// Runtime health of an [`EpochSys`](crate::EpochSys): a one-way
/// ratchet (see the module docs for the transition rules).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum HealthState {
    /// Fully operational; background pipelining allowed.
    Ok = 0,
    /// A persist retry budget was exhausted; degraded to synchronous
    /// inline persistence.
    Degraded = 1,
    /// Fail-stop: new operations are rejected with [`OpRejected`].
    Failed = 2,
}

impl HealthState {
    /// Decodes the atomic representation (saturating: unknown codes
    /// read as `Failed`, the conservative direction).
    pub fn from_code(code: u8) -> HealthState {
        match code {
            0 => HealthState::Ok,
            1 => HealthState::Degraded,
            _ => HealthState::Failed,
        }
    }

    /// Stable lowercase label (used by the metrics schema).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Failed => "failed",
        }
    }
}

/// A sealed epoch batch could not be made durable within the persister's
/// retry budget ([`EpochConfig::persist_retries`]).
///
/// [`EpochConfig::persist_retries`]: crate::EpochConfig
#[derive(Clone, Copy, Debug)]
pub struct PersistError {
    /// The epoch the failing batch closes. The durable frontier is
    /// `< epoch` until the batch is eventually persisted (inline, after
    /// degradation) or the system fail-stops.
    pub epoch: u64,
    /// Write-back attempts made (1 initial + retries).
    pub attempts: u32,
    /// The transient device error of the final attempt.
    pub cause: DeviceError,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch for epoch {} failed to persist after {} attempts: {}",
            self.epoch, self.attempts, self.cause
        )
    }
}

impl std::error::Error for PersistError {}

/// An operation was rejected because the epoch system is
/// [`HealthState::Failed`]. Returned by
/// [`EpochSys::try_begin_op`](crate::EpochSys::try_begin_op); also the
/// typed panic payload [`EpochSys::begin_op`](crate::EpochSys::begin_op)
/// unwinds with, so callers using the infallible API can
/// `catch_unwind` + downcast instead of inspecting a message string.
#[derive(Clone, Copy, Debug)]
pub struct OpRejected {
    /// The health state that caused the rejection (always `Failed`).
    pub health: HealthState,
    /// The persist failure that drove the system to `Failed`.
    pub cause: Option<PersistError>,
}

impl std::fmt::Display for OpRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "operation rejected: epoch system is {}",
            self.health.as_str()
        )?;
        if let Some(c) = &self.cause {
            write!(f, " ({c})")?;
        }
        Ok(())
    }
}

impl std::error::Error for OpRejected {}

/// [`EpochSys::try_retire`](crate::EpochSys::try_retire) was handed an
/// address that does not carry a live block header — a caller bug or
/// heap corruption, surfaced as a value instead of a bare `expect`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RetireError {
    /// No block header at this address.
    NotABlock(NvmAddr),
}

impl std::fmt::Display for RetireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetireError::NotABlock(a) => write!(f, "p_retire of a non-block at word {}", a.0),
        }
    }
}

impl std::error::Error for RetireError {}
