//! Response-time demand estimation via the MVA arrival theorem
//! (paper §III-B, Fig. 4b; Kraft et al. \[26\]).
//!
//! For a FCFS/PS station, a request that finds `A` jobs at arrival has
//! expected response time `R = D · (1 + A)`. Sampling `(A_i, R_i)` per
//! request turns demand estimation into a one-parameter regression that
//! stays well-conditioned even when throughput barely varies — the exact
//! advantage the paper demonstrates on microservices.

use crate::linalg::correlation;
use crate::{cv, valid_sample, DemandEstimate, EstimationError};

/// Accumulates per-request `(queue seen at arrival, response time)`
/// samples and fits the demand.
///
/// # Examples
///
/// ```
/// use atom_estimation::ResponseTimeEstimator;
///
/// let samples: Vec<(f64, f64)> = (0..50)
///     .map(|a| (a % 5) as f64)
///     .map(|queue| (queue, 0.02 * (1.0 + queue))) // D = 0.02
///     .collect();
/// let mut est = ResponseTimeEstimator::new();
/// est.extend_from(&samples).unwrap();
/// let fit = est.estimate().unwrap();
/// assert!((fit.demands[0] - 0.02).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResponseTimeEstimator {
    samples: Vec<(f64, f64)>,
}

impl ResponseTimeEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        ResponseTimeEstimator::default()
    }

    /// Adds per-request `(queue at arrival, response time)` samples,
    /// e.g. from a cluster probe.
    ///
    /// # Errors
    ///
    /// Returns [`EstimationError::InvalidSample`] if any queue length or
    /// response time is negative or not finite, and then adds none.
    pub fn extend_from(&mut self, samples: &[(f64, f64)]) -> Result<(), EstimationError> {
        for &(queue, response) in samples {
            valid_sample(queue)?;
            valid_sample(response)?;
        }
        self.samples.extend_from_slice(samples);
        Ok(())
    }

    /// Fits `D` by least squares through the origin of
    /// `R_i = D · (1 + A_i)`:  `D = Σ R_i (1+A_i) / Σ (1+A_i)²`.
    ///
    /// # Errors
    ///
    /// Returns [`EstimationError::TooFewSamples`] with fewer than two
    /// samples.
    pub fn estimate(&self) -> Result<DemandEstimate, EstimationError> {
        if self.samples.len() < 2 {
            return Err(EstimationError::TooFewSamples {
                got: self.samples.len(),
                needed: 2,
            });
        }
        let num: f64 = self.samples.iter().map(|&(a, r)| r * (1.0 + a)).sum();
        let den: f64 = self.samples.iter().map(|&(a, _)| (1.0 + a).powi(2)).sum();
        Ok(DemandEstimate {
            demands: vec![num / den],
            samples: self.samples.len(),
        })
    }

    /// Pearson correlation between `(1 + A)` and `R` — the Fig. 4b
    /// diagnostic; high correlation means the arrival-theorem regression
    /// is well-posed.
    pub fn input_correlation(&self) -> f64 {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.samples.iter().copied().unzip();
        correlation(&xs, &ys)
    }

    /// Coefficient of variation of the `(1 + A)` regressor — per-request
    /// queue lengths spread widely, which is what makes this regression
    /// well-posed on microservices (paper Fig. 4b).
    pub fn input_cv(&self) -> f64 {
        cv(self.samples.iter().map(|&(a, _)| 1.0 + a))
    }

    /// Robust variant: median of per-sample ratios `R_i / (1 + A_i)` —
    /// insensitive to outliers/anomalies, as argued in §III-B.
    ///
    /// # Errors
    ///
    /// Returns [`EstimationError::TooFewSamples`] when empty.
    pub fn estimate_robust(&self) -> Result<f64, EstimationError> {
        if self.samples.is_empty() {
            return Err(EstimationError::TooFewSamples { got: 0, needed: 1 });
        }
        let mut ratios: Vec<f64> = self.samples.iter().map(|&(a, r)| r / (1.0 + a)).collect();
        ratios.sort_by(f64::total_cmp);
        Ok(ratios[ratios.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator(samples: impl Iterator<Item = (f64, f64)>) -> ResponseTimeEstimator {
        let mut est = ResponseTimeEstimator::new();
        est.extend_from(&samples.collect::<Vec<_>>()).unwrap();
        est
    }

    #[test]
    fn exact_fit_recovers_demand() {
        let est = estimator((0..100).map(|a| {
            let q = (a % 8) as f64;
            (q, 0.05 * (1.0 + q))
        }));
        let fit = est.estimate().unwrap();
        assert!((fit.demands[0] - 0.05).abs() < 1e-12);
        assert_eq!(fit.samples, 100);
        assert!(est.input_correlation() > 0.99);
    }

    #[test]
    fn noisy_fit_is_close() {
        let noise = [0.9, 1.1, 0.95, 1.05, 1.0];
        let est = estimator((0..200).map(|a| {
            let q = (a % 10) as f64;
            (q, 0.02 * (1.0 + q) * noise[a % 5])
        }));
        let fit = est.estimate().unwrap();
        assert!((fit.demands[0] - 0.02).abs() < 0.002);
        assert!(est.input_correlation() > 0.9);
    }

    #[test]
    fn robust_estimate_ignores_outliers() {
        let est = estimator(
            (0..99)
                .map(|a| {
                    let q = (a % 6) as f64;
                    (q, 0.01 * (1.0 + q))
                })
                // One pathological outlier (a GC pause, say).
                .chain([(2.0, 10.0)]),
        );
        let robust = est.estimate_robust().unwrap();
        assert!((robust - 0.01).abs() < 1e-9, "robust {robust}");
        // The LSQ estimate is dragged away by the outlier.
        let lsq = est.estimate().unwrap().demands[0];
        assert!((lsq - 0.01).abs() > 0.005, "lsq {lsq} should be biased");
    }

    #[test]
    fn too_few_samples() {
        let est = ResponseTimeEstimator::new();
        assert!(matches!(
            est.estimate(),
            Err(EstimationError::TooFewSamples { .. })
        ));
        assert!(est.estimate_robust().is_err());
    }

    #[test]
    fn extend_from_bulk_loads() {
        let mut est = ResponseTimeEstimator::new();
        est.extend_from(&[(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)])
            .unwrap();
        assert_eq!(est.samples.len(), 3);
    }

    #[test]
    fn rejects_negative_sample() {
        let mut est = ResponseTimeEstimator::new();
        assert_eq!(
            est.extend_from(&[(-1.0, 0.1)]),
            Err(EstimationError::InvalidSample { value: -1.0 })
        );
        assert!(est.samples.is_empty());
    }

    #[test]
    fn rejects_a_non_finite_sample_and_adds_none() {
        let mut est = ResponseTimeEstimator::new();
        let bad = [(f64::INFINITY, f64::INFINITY), (0.0, 0.1)];
        assert!(matches!(
            est.extend_from(&bad),
            Err(EstimationError::InvalidSample { .. })
        ));
        assert!(est.samples.is_empty());
        assert!(est.estimate_robust().is_err());
    }
}
