//! Output statistics: time-weighted averages and the nearest-rank
//! quantile.

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

/// Nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample `x` such that at least a fraction `q` of the samples are
/// `≤ x`. Callers sort, so each keeps its own NaN policy.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn nearest_rank_picks_an_order_statistic() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&xs, 0.5), 3.0);
        assert_eq!(nearest_rank(&xs, 1.0), 5.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        // Nearest-rank p95 of 20 samples is the 19th order statistic.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&twenty, 0.95), 19.0);
    }
}
