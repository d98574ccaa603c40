//! Order statistics over repeated measurements.
//!
//! Every number the benchmark reports is a median over repetitions with
//! its spread, never a single shot: [`Summary`] carries the median, the
//! median absolute deviation, the quartiles, the extremes and the sample
//! count, and [`high_percentile`] names the highest percentile a sample
//! set can support.

use serde_json::Value;

use crate::json::{num, obj, uint};

/// Linear-interpolated quantile `q ∈ [0, 1]` of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q ∈ [0, 1]` of unsorted `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Arithmetic mean (0 for no samples, so a layer that was never called
/// reads as zero cost rather than NaN).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of the percentiles 50/75/90/95/99 that leaves at least ten
/// samples beyond it — the tail a sample set of this size can support.
/// `None` below twenty samples (not even the median has ten beyond it).
pub fn high_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| (n as f64 * (100 - p) as f64 / 100.0).floor() >= 10.0)
}

/// Median and spread of one metric's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median over the samples.
    pub median: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Summary {
            median: quantile_sorted(&s, 0.5),
            mad: mad(values),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The results-file form.
    pub fn to_json(&self) -> Value {
        obj([
            ("median", num(self.median)),
            ("mad", num(self.mad)),
            ("q1", num(self.q1)),
            ("q3", num(self.q3)),
            ("min", num(self.min)),
            ("max", num(self.max)),
            ("n", uint(self.n as u64)),
        ])
    }

    /// Reads the results-file form back (`None` on a malformed object).
    pub fn from_json(v: &Value) -> Option<Self> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Summary {
            median: f("median")?,
            mad: f("mad")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
            n: v.get("n").and_then(Value::as_u64)? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Deviations from the median 3: [2, 1, 0, 1, 97] → median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        assert_eq!(high_percentile(19), None);
        assert_eq!(high_percentile(20), Some(50));
        assert_eq!(high_percentile(40), Some(75));
        assert_eq!(high_percentile(99), Some(75));
        assert_eq!(high_percentile(100), Some(90));
        // The decide sweep's 144 samples leave 14 beyond p90, 7 beyond p95.
        assert_eq!(high_percentile(144), Some(90));
        assert_eq!(high_percentile(200), Some(95));
        assert_eq!(high_percentile(1000), Some(99));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 10.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 10.0, 5));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
