//! Response-time demand estimation via the MVA arrival theorem
//! (paper §III-B, Fig. 4b; Kraft et al. \[26\]).
//!
//! For a FCFS/PS station, a request that finds `A` jobs at arrival has
//! expected response time `R = D · (1 + A)`. Sampling `(A_i, R_i)` per
//! request turns demand estimation into a one-parameter regression that
//! stays well-conditioned even when throughput barely varies — the exact
//! advantage the paper demonstrates on microservices.

use crate::linalg::{correlation, r_squared};
use crate::{cv, DemandEstimate, EstimationError};

/// Accumulates per-request `(queue seen at arrival, response time)`
/// samples and fits the demand.
///
/// # Examples
///
/// ```
/// use atom_estimation::ResponseTimeEstimator;
///
/// let mut est = ResponseTimeEstimator::new();
/// for a in 0..50 {
///     let queue = (a % 5) as f64;
///     est.push(queue, 0.02 * (1.0 + queue)); // D = 0.02
/// }
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

    /// Adds a per-request sample.
    ///
    /// # Panics
    ///
    /// Panics on negative queue length or response time.
    pub fn push(&mut self, queue_at_arrival: f64, response_time: f64) {
        assert!(
            queue_at_arrival >= 0.0 && response_time >= 0.0,
            "samples must be non-negative"
        );
        self.samples.push((queue_at_arrival, response_time));
    }

    /// Bulk-loads samples, e.g. from a cluster probe.
    pub fn extend_from(&mut self, samples: &[(f64, f64)]) {
        for &(q, r) in samples {
            self.push(q, r);
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
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
        let d = num / den;
        let (pred, obs): (Vec<f64>, Vec<f64>) = self
            .samples
            .iter()
            .map(|&(a, r)| (d * (1.0 + a), r))
            .unzip();
        Ok(DemandEstimate {
            demands: vec![d],
            r_squared: r_squared(&pred, &obs),
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
        ratios.sort_by(|x, y| x.partial_cmp(y).expect("no NaN ratios"));
        Ok(ratios[ratios.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_recovers_demand() {
        let mut est = ResponseTimeEstimator::new();
        for a in 0..100 {
            let q = (a % 8) as f64;
            est.push(q, 0.05 * (1.0 + q));
        }
        let fit = est.estimate().unwrap();
        assert!((fit.demands[0] - 0.05).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!(est.input_correlation() > 0.99);
    }

    #[test]
    fn noisy_fit_is_close() {
        let mut est = ResponseTimeEstimator::new();
        let noise = [0.9, 1.1, 0.95, 1.05, 1.0];
        for a in 0..200 {
            let q = (a % 10) as f64;
            est.push(q, 0.02 * (1.0 + q) * noise[a % 5]);
        }
        let fit = est.estimate().unwrap();
        assert!((fit.demands[0] - 0.02).abs() < 0.002);
        assert!(fit.r_squared > 0.9);
        assert!(est.input_correlation() > 0.9);
    }

    #[test]
    fn robust_estimate_ignores_outliers() {
        let mut est = ResponseTimeEstimator::new();
        for a in 0..99 {
            let q = (a % 6) as f64;
            est.push(q, 0.01 * (1.0 + q));
        }
        // One pathological outlier (a GC pause, say).
        est.push(2.0, 10.0);
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
        est.extend_from(&[(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)]);
        assert_eq!(est.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_sample() {
        ResponseTimeEstimator::new().push(-1.0, 0.1);
    }
}
