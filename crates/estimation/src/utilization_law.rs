//! Utilisation-law regression (paper §III-B, Fig. 4a).
//!
//! Collect per-window samples of a resource's utilisation and per-class
//! throughputs, then fit `U = Σ_k X_k D_k` by non-negative least squares.
//! On finely-grained microservices the throughput columns often lack
//! variability, making the estimate fragile — which is the paper's
//! argument for the response-time method.

use crate::linalg::{correlation, nnls};
use crate::{cv, valid_sample, DemandEstimate, EstimationError};

/// Accumulates `(utilisation, throughputs)` window samples and fits
/// demands by NNLS.
///
/// # Examples
///
/// ```
/// use atom_estimation::UtilizationLawEstimator;
///
/// let mut est = UtilizationLawEstimator::new(1);
/// for i in 1..20 {
///     let x = i as f64;
///     est.push(0.02 * x, &[x]).unwrap(); // D = 0.02
/// }
/// let fit = est.estimate().unwrap();
/// assert!((fit.demands[0] - 0.02).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UtilizationLawEstimator {
    classes: usize,
    utilization: Vec<f64>,
    throughputs: Vec<Vec<f64>>,
}

impl UtilizationLawEstimator {
    /// Creates an estimator for `classes` request classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        UtilizationLawEstimator {
            classes,
            utilization: Vec::new(),
            throughputs: Vec::new(),
        }
    }

    /// Adds one monitoring-window sample.
    ///
    /// # Errors
    ///
    /// * [`EstimationError::DimensionMismatch`] if `throughputs`
    ///   length differs from the class count;
    /// * [`EstimationError::InvalidSample`] if the utilisation or a
    ///   throughput is negative or not finite.
    pub fn push(&mut self, utilization: f64, throughputs: &[f64]) -> Result<(), EstimationError> {
        if throughputs.len() != self.classes {
            return Err(EstimationError::DimensionMismatch {
                got: throughputs.len(),
                expected: self.classes,
            });
        }
        valid_sample(utilization)?;
        for &x in throughputs {
            valid_sample(x)?;
        }
        self.utilization.push(utilization);
        self.throughputs.push(throughputs.to_vec());
        Ok(())
    }

    /// Number of samples collected.
    pub(crate) fn len(&self) -> usize {
        self.utilization.len()
    }

    /// Fits the demands.
    ///
    /// # Errors
    ///
    /// * [`EstimationError::TooFewSamples`] with fewer samples than
    ///   classes plus one;
    /// * [`EstimationError::Singular`] if the regression collapses.
    pub fn estimate(&self) -> Result<DemandEstimate, EstimationError> {
        let needed = self.classes + 1;
        if self.len() < needed {
            return Err(EstimationError::TooFewSamples {
                got: self.len(),
                needed,
            });
        }
        let demands =
            nnls(&self.throughputs, &self.utilization).ok_or(EstimationError::Singular)?;
        Ok(DemandEstimate {
            samples: self.len(),
            demands,
        })
    }

    /// Pearson correlation between utilisation and the total throughput —
    /// the "is this regression even meaningful?" diagnostic plotted in
    /// Fig. 4a.
    pub fn input_correlation(&self) -> f64 {
        let totals: Vec<f64> = self.throughputs.iter().map(|r| r.iter().sum()).collect();
        correlation(&totals, &self.utilization)
    }

    /// Coefficient of variation of the total-throughput samples — the
    /// regressor spread. The paper's §III-B argument: microservice
    /// throughputs barely vary between windows, so this is tiny and the
    /// utilisation-law regression is ill-posed.
    pub fn input_cv(&self) -> f64 {
        cv(self.throughputs.iter().map(|r| r.iter().sum()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_multiclass_demands() {
        let mut est = UtilizationLawEstimator::new(2);
        // U = 0.01 X1 + 0.03 X2 with varying mixes.
        for i in 0..30 {
            let x1 = 10.0 + (i % 7) as f64 * 5.0;
            let x2 = 3.0 + (i % 5) as f64 * 4.0;
            est.push(0.01 * x1 + 0.03 * x2, &[x1, x2]).unwrap();
        }
        let fit = est.estimate().unwrap();
        assert!((fit.demands[0] - 0.01).abs() < 1e-9, "{:?}", fit.demands);
        assert!((fit.demands[1] - 0.03).abs() < 1e-9, "{:?}", fit.demands);
        assert_eq!(fit.samples, 30);
    }

    #[test]
    fn too_few_samples_rejected() {
        let mut est = UtilizationLawEstimator::new(2);
        est.push(0.5, &[1.0, 2.0]).unwrap();
        assert!(matches!(
            est.estimate(),
            Err(EstimationError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut est = UtilizationLawEstimator::new(2);
        assert!(matches!(
            est.push(0.5, &[1.0]),
            Err(EstimationError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn negative_or_non_finite_sample_rejected() {
        let mut est = UtilizationLawEstimator::new(2);
        for (u, xs) in [
            (-0.1, [1.0, 2.0]),
            (0.5, [f64::NAN, 2.0]),
            (0.5, [1.0, f64::INFINITY]),
        ] {
            assert!(matches!(
                est.push(u, &xs),
                Err(EstimationError::InvalidSample { .. })
            ));
        }
        assert_eq!(est.len(), 0);
    }

    #[test]
    fn demands_are_non_negative_under_noise() {
        let mut est = UtilizationLawEstimator::new(2);
        // Second class contributes nothing; noise could push its
        // unconstrained coefficient negative.
        let noise = [0.01, -0.02, 0.015, -0.005, 0.02, -0.01, 0.0, 0.01];
        for (i, &eps) in noise.iter().enumerate() {
            let x1 = 10.0 + i as f64 * 3.0;
            let x2 = 5.0 + (i % 3) as f64;
            est.push(0.02 * x1 + eps, &[x1, x2]).unwrap();
        }
        let fit = est.estimate().unwrap();
        assert!(fit.demands.iter().all(|&d| d >= 0.0), "{:?}", fit.demands);
    }

    #[test]
    fn low_variability_inputs_show_weak_correlation() {
        // Simulates the paper's microservice pathology: throughput pinned
        // in a tiny band while measured utilisation fluctuates with noise.
        let mut est = UtilizationLawEstimator::new(1);
        // Equal parity means so the noise is orthogonal to the tiny
        // throughput variation.
        let us = [0.21, 0.25, 0.25, 0.21, 0.18, 0.26, 0.26, 0.18];
        for (i, &u) in us.iter().enumerate() {
            let x = 50.0 + (i % 2) as f64 * 0.2; // nearly constant
            est.push(u, &[x]).unwrap();
        }
        let corr = est.input_correlation().abs();
        assert!(corr < 0.5, "correlation {corr} should be weak");
    }
}
