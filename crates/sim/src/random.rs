//! Seedable randomness and the per-hop samplers both simulators draw
//! from: a service demand and a call count.
//!
//! Only `rand`'s uniform generator is used as a primitive; exponential,
//! lognormal, and normal variates are derived via inverse-CDF and
//! Box–Muller so that no additional dependency is needed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seedable simulation RNG.
///
/// Wraps [`rand::rngs::SmallRng`] and adds the variate generators the
/// simulators need. Every simulator component takes an explicit seed so
/// whole experiments are reproducible.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use atom_sim::SimRng;
    /// let mut a = SimRng::seed_from(42);
    /// let mut b = SimRng::seed_from(42);
    /// assert_eq!(a.uniform(), b.uniform());
    /// ```
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Uniform variate in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform variate in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_in requires lo <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or NaN. A mean of zero returns 0.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
        if mean == 0.0 {
            return 0.0;
        }
        // 1 - U in (0, 1] avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Standard normal variate (Box–Muller with caching).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal variate with the given *arithmetic* mean and coefficient
    /// of variation.
    ///
    /// # Panics
    ///
    /// Panics if `mean < 0` or `cv < 0`. A zero mean returns 0; a zero cv
    /// returns `mean` (degenerate).
    pub(crate) fn lognormal(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
        assert!(cv.is_finite() && cv >= 0.0, "cv must be >= 0");
        if mean == 0.0 {
            return 0.0;
        }
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.standard_normal()).exp()
    }

    /// Samples an index from a discrete distribution given by `weights`
    /// (need not be normalised).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to
    /// zero.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w >= 0.0, "weights must be >= 0"))
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut u = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        self.uniform() < p
    }

    /// A service demand with arithmetic mean `mean` and coefficient of
    /// variation `cv`: 0 for a zero mean, the mean itself at cv 0, an
    /// exponential draw at cv 1 and a lognormal one otherwise.
    #[inline]
    pub fn demand(&mut self, mean: f64, cv: f64) -> f64 {
        if mean == 0.0 {
            0.0
        } else if cv == 0.0 {
            mean
        } else if (cv - 1.0).abs() < 1e-12 {
            self.exponential(mean)
        } else {
            self.lognormal(mean, cv)
        }
    }

    /// How many times a call with a mean of `mean` per invocation is made
    /// this time: `floor(mean)`, plus one with probability
    /// `mean - floor(mean)`. A whole mean draws nothing.
    #[inline]
    pub fn call_count(&mut self, mean: f64) -> usize {
        let whole = mean.floor();
        let frac = mean - whole;
        whole as usize + usize::from(frac > 0.0 && self.bernoulli(frac))
    }
}

/// The SplitMix64 finaliser: a seeded hash for decisions that must not
/// consume a [`SimRng`] stream (span sampling, placement tie-breaks),
/// so making them adds and removes no draw from a simulation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_the_reference_finaliser() {
        // The first outputs of the reference SplitMix64 generator seeded
        // with 0, whose state steps by the same golden-ratio increment.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    fn demand_mean(mean: f64, cv: f64, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| rng.demand(mean, cv)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let m = demand_mean(2.5, 1.0, 200_000, 1);
        assert!((m - 2.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn lognormal_mean_and_cv_converge() {
        let mut rng = SimRng::seed_from(2);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.demand(1.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!(
            (var.sqrt() / mean - 0.5).abs() < 0.03,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.uniform_in(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = SimRng::seed_from(4);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[rng.categorical(&[0.5, 0.3, 0.2])] += 1;
        }
        assert!((counts[0] as f64 / 1e5 - 0.5).abs() < 0.01);
        assert!((counts[1] as f64 / 1e5 - 0.3).abs() < 0.01);
    }

    #[test]
    fn categorical_zero_weight_never_drawn() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            assert_ne!(rng.categorical(&[0.5, 0.0, 0.5]), 1);
        }
    }

    #[test]
    fn degenerate_demands_draw_nothing() {
        let mut rng = SimRng::seed_from(0);
        assert_eq!(rng.demand(3.0, 0.0), 3.0);
        assert_eq!(rng.demand(0.0, 0.7), 0.0);
        assert_eq!(rng.call_count(2.0), 2);
        assert_eq!(rng.uniform(), SimRng::seed_from(0).uniform());
    }

    #[test]
    fn call_counts_average_to_the_mean() {
        let mut rng = SimRng::seed_from(6);
        let n = 100_000;
        let total: usize = (0..n).map(|_| rng.call_count(2.3)).sum();
        assert!((total as f64 / n as f64 - 2.3).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn bernoulli_rejects_bad_p() {
        SimRng::seed_from(0).bernoulli(1.5);
    }

    #[test]
    fn zero_mean_exponential_is_zero() {
        assert_eq!(SimRng::seed_from(0).exponential(0.0), 0.0);
    }
}
