//! The individual forecasting models.
//!
//! Each model is deliberately small and closed-form: no fitting loops,
//! no matrix solves, no randomness. The [`crate::Ensemble`] composes
//! them and arbitrates with a rolling error score, so a model is free to
//! be excellent on one regime (ramps, seasons, bursts) and useless
//! elsewhere.

use std::collections::VecDeque;

use crate::Forecaster;

/// Last-value ("persistence") forecast — exactly what the reactive
/// controller plans for. Keeping it in the ensemble guarantees the
/// proactive path never scores worse than reactive on the rolling
/// error, which is what makes the automatic fallback sound.
#[derive(Debug, Clone, Default)]
pub(crate) struct Naive {
    last: Option<f64>,
}

impl Naive {
    /// Creates the model.
    pub(crate) fn new() -> Self {
        Naive::default()
    }
}

impl Forecaster for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn observe(&mut self, value: f64) {
        self.last = Some(value);
    }

    fn forecast(&self, _steps: f64) -> Option<f64> {
        self.last
    }
}

/// Least-squares linear trend over a sliding window of observations.
///
/// Fits `value ≈ a + b·i` over the last `window` points and
/// extrapolates. The short window makes it the fastest model to lock
/// onto a fresh ramp; the price is jitter on noisy plateaus, which the
/// ensemble's rolling score discounts.
#[derive(Debug, Clone)]
pub(crate) struct LinearTrend {
    window: usize,
    history: VecDeque<f64>,
}

impl LinearTrend {
    /// Creates the model with a sliding window of `window` observations
    /// (at least 2).
    pub(crate) fn new(window: usize) -> Self {
        LinearTrend {
            window: window.max(2),
            history: VecDeque::new(),
        }
    }
}

impl Forecaster for LinearTrend {
    fn name(&self) -> &'static str {
        "trend"
    }

    fn observe(&mut self, value: f64) {
        self.history.push_back(value);
        while self.history.len() > self.window {
            self.history.pop_front();
        }
    }

    fn forecast(&self, steps: f64) -> Option<f64> {
        let n = self.history.len();
        if n < 2 {
            return None;
        }
        // OLS over indices 0..n: slope = Σ(i-ī)(x-x̄) / Σ(i-ī)².
        let nf = n as f64;
        let i_mean = (nf - 1.0) / 2.0;
        let x_mean = self.history.iter().sum::<f64>() / nf;
        let (mut num, mut den) = (0.0, 0.0);
        for (i, &x) in self.history.iter().enumerate() {
            let di = i as f64 - i_mean;
            num += di * (x - x_mean);
            den += di * di;
        }
        let slope = if den > 0.0 { num / den } else { 0.0 };
        Some(x_mean + slope * (nf - 1.0 - i_mean + steps))
    }
}

/// Holt's double exponential smoothing: a smoothed level plus a smoothed
/// trend. Slower to react than `LinearTrend` but far steadier through
/// noise, which is what wins on long ramps with bursty think times.
#[derive(Debug, Clone)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    state: Option<(f64, f64)>, // (level, trend)
    seen: usize,
    first: f64,
}

impl Holt {
    /// Creates the model with level gain `alpha` and trend gain `beta`
    /// (both clamped to `(0, 1]`).
    pub fn new(alpha: f64, beta: f64) -> Self {
        Holt {
            alpha: alpha.clamp(1e-6, 1.0),
            beta: beta.clamp(1e-6, 1.0),
            state: None,
            seen: 0,
            first: 0.0,
        }
    }
}

impl Forecaster for Holt {
    fn name(&self) -> &'static str {
        "holt"
    }

    fn observe(&mut self, value: f64) {
        self.seen += 1;
        match self.state {
            // Standard initialisation: level = second observation,
            // trend = first difference.
            None => {
                if self.seen == 1 {
                    self.first = value;
                } else {
                    self.state = Some((value, value - self.first));
                }
            }
            Some((level, trend)) => {
                let new_level = self.alpha * value + (1.0 - self.alpha) * (level + trend);
                let new_trend = self.beta * (new_level - level) + (1.0 - self.beta) * trend;
                self.state = Some((new_level, new_trend));
            }
        }
    }

    fn forecast(&self, steps: f64) -> Option<f64> {
        self.state.map(|(level, trend)| level + steps * trend)
    }
}

/// Holt-Winters-style additive seasonal smoothing for diurnal profiles:
/// a smoothed level and trend plus one additive index per phase of a
/// `season` -window cycle.
///
/// The first full season initialises the indices (level = season mean,
/// indices = deviations from it); from the second season on, level,
/// trend, and the current phase's index are updated with the usual
/// exponential recursions. Forecasts re-apply the index of the target
/// phase, so the model predicts the *next peak* while still in the
/// trough — the case every non-seasonal model gets wrong by a full
/// amplitude.
#[derive(Debug, Clone)]
pub struct SeasonalSmoother {
    alpha: f64,
    beta: f64,
    gamma: f64,
    season: usize,
    warmup: Vec<f64>,
    level: f64,
    trend: f64,
    indices: Vec<f64>,
    /// Phase (0..season) of the *next* observation.
    phase: usize,
    ready: bool,
}

impl SeasonalSmoother {
    /// Creates the model for a `season`-window cycle (at least 2) with
    /// level/trend/seasonal gains `alpha`/`beta`/`gamma`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, season: usize) -> Self {
        SeasonalSmoother {
            alpha: alpha.clamp(1e-6, 1.0),
            beta: beta.clamp(1e-6, 1.0),
            gamma: gamma.clamp(1e-6, 1.0),
            season: season.max(2),
            warmup: Vec::new(),
            level: 0.0,
            trend: 0.0,
            indices: Vec::new(),
            phase: 0,
            ready: false,
        }
    }
}

impl Forecaster for SeasonalSmoother {
    fn name(&self) -> &'static str {
        "seasonal"
    }

    fn observe(&mut self, value: f64) {
        if !self.ready {
            self.warmup.push(value);
            if self.warmup.len() == self.season {
                let mean = self.warmup.iter().sum::<f64>() / self.season as f64;
                self.level = mean;
                self.trend = 0.0;
                self.indices = self.warmup.iter().map(|&x| x - mean).collect();
                self.warmup = Vec::new();
                self.phase = 0;
                self.ready = true;
            }
            return;
        }
        let idx = self.indices[self.phase];
        let new_level = self.alpha * (value - idx) + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (new_level - self.level) + (1.0 - self.beta) * self.trend;
        self.indices[self.phase] = self.gamma * (value - new_level) + (1.0 - self.gamma) * idx;
        self.level = new_level;
        self.phase = (self.phase + 1) % self.season;
    }

    fn forecast(&self, steps: f64) -> Option<f64> {
        if !self.ready {
            return None;
        }
        // `phase` already points at the next observation, i.e. one step
        // ahead; further steps advance the cycle from there.
        let ahead = steps.round().max(1.0) as usize;
        let target = (self.phase + ahead - 1) % self.season;
        Some(self.level + steps * self.trend + self.indices[target])
    }
}

/// Burst-onset detector: persistence until the latest increment dwarfs
/// the recent increment scale, then linear extrapolation of that onset
/// slope.
///
/// Smoothing models average a burst's first window into weeks of calm
/// and under-predict exactly when headroom matters most. This model is
/// the opposite trade: it forecasts like [`Naive`] on quiet traffic and
/// only departs when `latest increment > factor × recent mean |increment|`
/// — at which point it assumes the jump continues for the horizon.
#[derive(Debug, Clone)]
pub(crate) struct BurstOnset {
    factor: f64,
    memory: usize,
    increments: VecDeque<f64>,
    last: Option<f64>,
    onset_slope: Option<f64>,
}

impl BurstOnset {
    /// Creates the detector: an increment counts as a burst onset when
    /// it exceeds `factor` times the mean absolute increment over the
    /// previous `memory` windows (and that baseline is non-trivial).
    pub(crate) fn new(factor: f64, memory: usize) -> Self {
        BurstOnset {
            factor: factor.max(1.0),
            memory: memory.max(2),
            increments: VecDeque::new(),
            last: None,
            onset_slope: None,
        }
    }
}

impl Forecaster for BurstOnset {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn observe(&mut self, value: f64) {
        if let Some(last) = self.last {
            let inc = value - last;
            let baseline = if self.increments.is_empty() {
                0.0
            } else {
                self.increments.iter().map(|d| d.abs()).sum::<f64>() / self.increments.len() as f64
            };
            // Relative test against recent volatility, with an absolute
            // floor so the first nonzero wiggle of a flat series does
            // not read as a burst.
            let floor = 0.01 * last.abs().max(1.0);
            self.onset_slope = (!self.increments.is_empty()
                && inc > self.factor * baseline.max(floor))
            .then_some(inc);
            self.increments.push_back(inc);
            while self.increments.len() > self.memory {
                self.increments.pop_front();
            }
        }
        self.last = Some(value);
    }

    fn forecast(&self, steps: f64) -> Option<f64> {
        let last = self.last?;
        Some(match self.onset_slope {
            Some(slope) => last + slope * steps,
            None => last,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed<F: Forecaster>(model: &mut F, values: &[f64]) {
        for &v in values {
            model.observe(v);
        }
    }

    #[test]
    fn naive_repeats_the_last_value() {
        let mut m = Naive::new();
        assert_eq!(m.forecast(1.0), None);
        feed(&mut m, &[3.0, 7.0]);
        assert_eq!(m.forecast(1.0), Some(7.0));
        assert_eq!(m.forecast(10.0), Some(7.0));
    }

    #[test]
    fn trend_is_exact_on_linear_data() {
        let mut m = LinearTrend::new(5);
        feed(&mut m, &[10.0, 20.0, 30.0, 40.0]);
        assert!((m.forecast(1.0).unwrap() - 50.0).abs() < 1e-9);
        assert!((m.forecast(2.5).unwrap() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn trend_window_slides() {
        let mut m = LinearTrend::new(3);
        // Old slope is forgotten once the window slides past it.
        feed(&mut m, &[0.0, 100.0, 200.0, 200.0, 200.0, 200.0]);
        assert!((m.forecast(1.0).unwrap() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn holt_tracks_a_clean_ramp() {
        let mut m = Holt::new(0.5, 0.3);
        feed(
            &mut m,
            &(0..12).map(|i| 100.0 + 25.0 * i as f64).collect::<Vec<_>>(),
        );
        let f = m.forecast(2.0).unwrap();
        assert!((f - 425.0).abs() < 1.0, "forecast {f}");
    }

    #[test]
    fn seasonal_predicts_the_next_phase() {
        let season = vec![10.0, 30.0, 50.0, 30.0];
        let mut m = SeasonalSmoother::new(0.3, 0.05, 0.6, 4);
        for _ in 0..6 {
            feed(&mut m, &season);
        }
        // Next observation would be phase 0 (10), two ahead phase 1 (30).
        assert!((m.forecast(1.0).unwrap() - 10.0).abs() < 1.0);
        assert!((m.forecast(2.0).unwrap() - 30.0).abs() < 1.0);
    }

    #[test]
    fn burst_onset_extrapolates_the_jump() {
        let mut m = BurstOnset::new(2.0, 4);
        feed(&mut m, &[100.0, 101.0, 100.0, 99.0, 100.0]);
        assert!(m.onset_slope.is_none());
        assert_eq!(m.forecast(2.0), Some(100.0));
        m.observe(180.0); // +80 against a ±1 baseline
        assert!(m.onset_slope.is_some());
        assert!((m.forecast(2.0).unwrap() - 340.0).abs() < 1e-9);
        m.observe(181.0); // the burst flattens: back to persistence
        assert!(m.onset_slope.is_none());
        assert_eq!(m.forecast(2.0), Some(181.0));
    }

    #[test]
    fn flat_series_never_reads_as_a_burst() {
        let mut m = BurstOnset::new(2.0, 4);
        feed(&mut m, &[50.0; 10]);
        m.observe(50.4); // sub-floor wiggle
        assert!(m.onset_slope.is_none());
    }
}
