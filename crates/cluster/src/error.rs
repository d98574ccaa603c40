//! Error type for cluster construction and control.

use std::error::Error;
use std::fmt;

/// Errors from building or controlling the simulated cluster.
///
/// Non-exhaustive: new failure classes (e.g. from the fault-injection
/// subsystem) can be added without breaking downstream matches; build
/// values with the constructor helpers.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A parameter was out of range.
    InvalidParameter {
        /// Human-readable description.
        what: String,
    },
    /// The application spec is structurally invalid (no features, cyclic
    /// call graph, …).
    InvalidSpec {
        /// Why the spec is rejected.
        reason: String,
    },
}

impl ClusterError {
    /// An out-of-range-parameter error.
    pub(crate) fn invalid_parameter(what: impl Into<String>) -> Self {
        ClusterError::InvalidParameter { what: what.into() }
    }

    /// A structurally-invalid-spec error.
    pub(crate) fn invalid_spec(reason: impl Into<String>) -> Self {
        ClusterError::InvalidSpec {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            ClusterError::InvalidSpec { reason } => write!(f, "invalid app spec: {reason}"),
        }
    }
}

impl Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            ClusterError::invalid_parameter("x"),
            ClusterError::invalid_spec("y"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn constructors_match_variants() {
        assert_eq!(
            ClusterError::invalid_parameter("p"),
            ClusterError::InvalidParameter { what: "p".into() }
        );
    }
}
