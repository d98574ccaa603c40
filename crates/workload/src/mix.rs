//! Request mixes: categorical distributions over application features.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error constructing a [`RequestMix`].
#[derive(Debug, Clone, PartialEq)]
pub struct MixError {
    what: String,
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid request mix: {}", self.what)
    }
}

impl Error for MixError {}

/// A normalised categorical distribution over the features of an
/// application (e.g. Home / Catalogue / Carts in the Sock Shop).
///
/// # Examples
///
/// ```
/// use atom_workload::RequestMix;
/// let mix = RequestMix::new(vec![57.0, 29.0, 14.0]).unwrap(); // Table I
/// assert!((mix.fractions()[0] - 0.57).abs() < 1e-12);
/// assert_eq!(mix.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestMix {
    fractions: Vec<f64>,
}

impl RequestMix {
    /// Builds a mix from (not necessarily normalised) non-negative
    /// weights.
    ///
    /// # Errors
    ///
    /// Returns [`MixError`] if the weights are empty, contain negative or
    /// non-finite values, or sum to zero.
    pub fn new(weights: Vec<f64>) -> Result<Self, MixError> {
        if weights.is_empty() {
            return Err(MixError {
                what: "needs at least one feature".into(),
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(MixError {
                what: "weights must be finite and >= 0".into(),
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(MixError {
                what: "weights must not all be zero".into(),
            });
        }
        Ok(RequestMix {
            fractions: weights.into_iter().map(|w| w / total).collect(),
        })
    }

    /// Uniform mix over `n` features.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform mix needs at least one feature");
        RequestMix {
            fractions: vec![1.0 / n as f64; n],
        }
    }

    /// All fractions (they sum to 1).
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.fractions.len()
    }

    /// Whether the mix is degenerate (never: construction forbids it),
    /// kept for API completeness alongside [`RequestMix::len`].
    pub fn is_empty(&self) -> bool {
        self.fractions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_weights() {
        let m = RequestMix::new(vec![2.0, 2.0, 4.0]).unwrap();
        assert_eq!(m.fractions(), &[0.25, 0.25, 0.5]);
        let sum: f64 = m.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(RequestMix::new(vec![]).is_err());
        assert!(RequestMix::new(vec![-1.0, 2.0]).is_err());
        assert!(RequestMix::new(vec![0.0, 0.0]).is_err());
        assert!(RequestMix::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn uniform_splits_evenly() {
        let m = RequestMix::uniform(4);
        assert!(m.fractions().iter().all(|&f| (f - 0.25).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn uniform_zero_panics() {
        RequestMix::uniform(0);
    }
}
