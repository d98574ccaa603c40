#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! Service-demand estimation (paper §III-B, Fig. 4).
//!
//! LQN models need per-entry host demands. The paper contrasts two
//! estimation techniques:
//!
//! * [`UtilizationLawEstimator`] — regress utilisation
//!   samples on per-class throughputs via the utilisation law
//!   `U = Σ_k X_k D_k` with non-negativity constraints (Lawson–Hanson
//!   NNLS). On microservices this often fails: throughputs barely vary
//!   between windows, so the regression is ill-conditioned (Fig. 4a);
//! * [`ResponseTimeEstimator`] — use per-request samples of
//!   response time versus the queue length seen at arrival; by the MVA
//!   arrival theorem `R = D · (1 + A)`, so `D` is a one-parameter
//!   regression with much higher input variability (Fig. 4b, after Kraft
//!   et al. \[26\]).
//!
//! Both estimators report the fitted demands and the sample count, and
//! the input correlation and input CV of their regressor: the figures
//! Fig. 4 prints for each.

mod linalg;
mod response_time;
mod utilization_law;

pub use response_time::ResponseTimeEstimator;
pub use utilization_law::UtilizationLawEstimator;

/// Coefficient of variation (std dev / mean) of a sample stream; 0 for
/// fewer than two samples or a zero mean.
pub(crate) fn cv(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.len() < 2 {
        return 0.0;
    }
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    if mean.abs() < 1e-12 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean
}

/// Checks one sample value: `Ok` when it is finite and non-negative.
pub(crate) fn valid_sample(value: f64) -> Result<(), EstimationError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(EstimationError::InvalidSample { value })
    }
}

use std::error::Error;
use std::fmt;

/// Errors from the estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimationError {
    /// Not enough samples to estimate.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Samples needed.
        needed: usize,
    },
    /// Dimension mismatch between a sample and the estimator.
    DimensionMismatch {
        /// Dimensions of the offending sample.
        got: usize,
        /// Expected dimensions.
        expected: usize,
    },
    /// The regression system is singular / unsolvable.
    Singular,
    /// A sample value is negative or not finite.
    InvalidSample {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for EstimationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimationError::TooFewSamples { got, needed } => {
                write!(f, "too few samples: got {got}, need at least {needed}")
            }
            EstimationError::DimensionMismatch { got, expected } => {
                write!(f, "sample has {got} classes, estimator expects {expected}")
            }
            EstimationError::Singular => write!(f, "regression system is singular"),
            EstimationError::InvalidSample { value } => {
                write!(f, "sample value {value} is negative or not finite")
            }
        }
    }
}

impl Error for EstimationError {}

/// A demand estimate and the samples it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandEstimate {
    /// Estimated demands (one per class for the utilisation-law method;
    /// a single element for the response-time method).
    pub demands: Vec<f64>,
    /// Number of samples used.
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(EstimationError::TooFewSamples { got: 1, needed: 2 }
            .to_string()
            .contains("too few"));
        assert!(EstimationError::DimensionMismatch {
            got: 1,
            expected: 2
        }
        .to_string()
        .contains("classes"));
        assert!(!EstimationError::Singular.to_string().is_empty());
        assert!(EstimationError::InvalidSample { value: -1.0 }
            .to_string()
            .contains("-1"));
    }
}
