//! HDR-style fixed-bucket histograms.
//!
//! Bucket upper bounds are fixed at construction (explicit list or a
//! geometric ladder), so recording is O(log buckets) and the memory
//! footprint is independent of the sample count.

/// A fixed-bucket histogram over non-negative-ish `f64` samples.
///
/// Values above the last bound land in an overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending inclusive upper bounds (`le` in Prometheus terms).
    bounds: Vec<f64>,
    /// One count per bound, plus a trailing overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// A geometric ladder of `n` buckets: `start, start·factor, …`.
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `factor <= 1`, or `n == 0`.
    pub(crate) fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(
            start > 0.0 && factor > 1.0 && n > 0,
            "bad exponential ladder"
        );
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Self::with_bounds(bounds)
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Bucket upper bounds and per-bucket counts (the final count is the
    /// overflow bucket above the last bound).
    pub(crate) fn buckets(&self) -> (&[f64], &[u64]) {
        (&self.bounds, &self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0] {
            h.record(v);
        }
        let (bounds, counts) = h.buckets();
        assert_eq!(bounds, &[1.0, 2.0, 4.0]);
        // 0.5, 1.0 ≤ 1.0 | 1.5, 2.0 ≤ 2.0 | 3.0, 4.0 ≤ 4.0 | 9.0 overflow
        assert_eq!(counts, &[2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 21.0);
    }

    #[test]
    fn exponential_ladder() {
        let h = Histogram::exponential(1.0, 2.0, 4);
        assert_eq!(h.buckets().0, &[1.0, 2.0, 4.0, 8.0]);
    }
}
