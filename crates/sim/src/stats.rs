//! Online statistics for simulation output analysis.

/// Welford's online algorithm for mean and variance.
///
/// # Examples
///
/// ```
/// use atom_sim::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation; `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// utilisations).
///
/// # Examples
///
/// ```
/// use atom_sim::TimeWeighted;
/// let mut tw = TimeWeighted::new(0.0, 0.0);
/// tw.update(2.0, 4.0);       // value 0 held on [0, 2), then becomes 4
/// tw.update(4.0, 0.0);       // value 4 held on [2, 4)
/// assert_eq!(tw.average(4.0), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: f64,
    last_time: f64,
    last_value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Starts tracking at time `start` with the given initial value.
    pub fn new(start: f64, initial: f64) -> Self {
        TimeWeighted {
            start,
            last_time: start,
            last_value: initial,
            integral: 0.0,
        }
    }

    /// Records that the signal changes to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn update(&mut self, now: f64, value: f64) {
        assert!(
            now >= self.last_time,
            "time must be monotone: {now} < {}",
            self.last_time
        );
        self.integral += self.last_value * (now - self.last_time);
        self.last_time = now;
        self.last_value = value;
    }

    /// Time average over `[start, now]`. Returns the current value if the
    /// window has zero width.
    pub fn average(&self, now: f64) -> f64 {
        let span = now - self.start;
        if span <= 0.0 {
            return self.last_value;
        }
        let tail = self.last_value * (now - self.last_time).max(0.0);
        (self.integral + tail) / span
    }

    /// Current (last recorded) value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Time of the most recent update (callers merging signals from two
    /// clocks use this to keep updates monotone).
    pub fn last_time(&self) -> f64 {
        self.last_time
    }

    /// Resets the window to begin at `now`, keeping the current value.
    pub fn reset(&mut self, now: f64) {
        self.start = now;
        self.last_time = now;
        self.integral = 0.0;
    }
}

/// Sample-quantile helper (nearest-rank on a sorted copy).
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() + 2.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
        let mut t = RunningStats::new();
        t.push(1.0);
        t.merge(&s);
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn time_weighted_piecewise() {
        let mut tw = TimeWeighted::new(10.0, 1.0);
        tw.update(12.0, 3.0);
        tw.update(14.0, 0.0);
        // [10,12): 1, [12,14): 3, [14,16): 0 -> avg = (2+6+0)/6
        assert!((tw.average(16.0) - 8.0 / 6.0).abs() < 1e-12);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_reset() {
        let mut tw = TimeWeighted::new(0.0, 2.0);
        tw.update(5.0, 4.0);
        tw.reset(5.0);
        assert!((tw.average(10.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
