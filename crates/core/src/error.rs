use std::error::Error;
use std::fmt;

use privlocad_mechanisms::MechanismError;

use crate::recovery::RecoveryError;

/// Error type for Edge-PrivLocAd configuration and operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Invalid privacy-mechanism parameters.
    Mechanism(MechanismError),
    /// An η threshold outside its valid range.
    InvalidEta(f64),
    /// A length parameter (radius, threshold) that must be positive.
    InvalidLength(f64),
    /// A time window of zero days.
    InvalidWindow,
    /// An operation referenced a user unknown to the edge device.
    UnknownUser(u32),
    /// A supervised serving worker failed permanently after `restarts`
    /// restarts; its pending requests were failed explicitly.
    WorkerFailed {
        /// How many times the supervisor restarted the worker before
        /// giving up.
        restarts: u32,
    },
    /// Crash recovery failed (corrupt snapshot log, budget violation, …).
    Recovery(RecoveryError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Mechanism(e) => write!(f, "mechanism parameter error: {e}"),
            SystemError::InvalidEta(v) => {
                write!(f, "eta fraction {v} must be in (0, 1]")
            }
            SystemError::InvalidLength(v) => {
                write!(f, "length {v} must be positive and finite")
            }
            SystemError::InvalidWindow => write!(f, "time window must be at least one day"),
            SystemError::UnknownUser(u) => write!(f, "user {u} has no state on this edge device"),
            SystemError::WorkerFailed { restarts } => {
                write!(f, "edge serving worker failed permanently after {restarts} restarts")
            }
            SystemError::Recovery(e) => write!(f, "crash recovery failed: {e}"),
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::Mechanism(e) => Some(e),
            SystemError::Recovery(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MechanismError> for SystemError {
    fn from(e: MechanismError) -> Self {
        SystemError::Mechanism(e)
    }
}

impl From<RecoveryError> for SystemError {
    fn from(e: RecoveryError) -> Self {
        SystemError::Recovery(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SystemError::from(MechanismError::InvalidEpsilon(-1.0));
        assert!(e.to_string().contains("mechanism parameter error"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&SystemError::InvalidWindow).is_none());
        let e = SystemError::from(RecoveryError::Truncated);
        assert!(e.to_string().contains("crash recovery failed"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&SystemError::WorkerFailed { restarts: 2 }).is_none());
    }

    #[test]
    fn all_variants_display() {
        for e in [
            SystemError::InvalidEta(0.0),
            SystemError::InvalidLength(-2.0),
            SystemError::InvalidWindow,
            SystemError::UnknownUser(3),
            SystemError::WorkerFailed { restarts: 4 },
            SystemError::Recovery(RecoveryError::InvalidPosterior { user: 5 }),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
