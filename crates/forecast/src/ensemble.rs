//! The forecaster ensemble: every model runs on every window; a rolling
//! sMAPE over one-step-ahead forecasts decides who answers.
//!
//! No single closed-form model covers ramps, plateaus, diurnal cycles,
//! *and* bursts; picking one statically would bake the workload shape
//! into the controller. The ensemble instead keeps the decision online
//! and per-window: before consuming an observation it scores what each
//! model predicted for it, then answers the next query from the model
//! with the lowest rolling error. Because [`crate::Naive`] (identical
//! to reactive planning) is always a member, the ensemble's rolling
//! error also measures how much better than reactive the proactive path
//! currently is — the signal the controller's fallback guardrail reads.

use std::collections::VecDeque;

use crate::models::{BurstOnset, Holt, LinearTrend, Naive, SeasonalSmoother};
use crate::{smape, Forecaster};

/// A concrete model the ensemble can hold (a closed enum rather than
/// `Box<dyn Forecaster>` so the ensemble — and the controller holding it
/// — stays `Clone` and comparable across threads).
#[derive(Debug, Clone)]
pub(crate) enum Model {
    /// Last-value persistence.
    Naive(Naive),
    /// Sliding-window linear trend.
    Trend(LinearTrend),
    /// Double exponential smoothing.
    Holt(Holt),
    /// Additive seasonal smoothing.
    Seasonal(SeasonalSmoother),
    /// Burst-onset extrapolation.
    Burst(BurstOnset),
}

impl Forecaster for Model {
    fn name(&self) -> &'static str {
        match self {
            Model::Naive(m) => m.name(),
            Model::Trend(m) => m.name(),
            Model::Holt(m) => m.name(),
            Model::Seasonal(m) => m.name(),
            Model::Burst(m) => m.name(),
        }
    }

    fn observe(&mut self, value: f64) {
        match self {
            Model::Naive(m) => m.observe(value),
            Model::Trend(m) => m.observe(value),
            Model::Holt(m) => m.observe(value),
            Model::Seasonal(m) => m.observe(value),
            Model::Burst(m) => m.observe(value),
        }
    }

    fn forecast(&self, steps: f64) -> Option<f64> {
        match self {
            Model::Naive(m) => m.forecast(steps),
            Model::Trend(m) => m.forecast(steps),
            Model::Holt(m) => m.forecast(steps),
            Model::Seasonal(m) => m.forecast(steps),
            Model::Burst(m) => m.forecast(steps),
        }
    }
}

/// One answered forecast: the value, who produced it, and how that model
/// has been scoring lately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// Predicted load — always finite and non-negative.
    pub value: f64,
    /// Name of the model that answered.
    pub model: &'static str,
    /// The answering model's rolling one-step-ahead sMAPE (`None` until
    /// it has been scored at least once).
    pub rolling_smape: Option<f64>,
}

/// The per-window model selector.
#[derive(Debug, Clone)]
pub struct Ensemble {
    models: Vec<Model>,
    /// Rolling one-step-ahead sMAPE samples per model.
    scores: Vec<VecDeque<f64>>,
    /// Each model's one-step-ahead forecast made at the previous
    /// observation — scored against the next one.
    pending: Vec<Option<f64>>,
    error_window: usize,
    last: Option<f64>,
}

impl Ensemble {
    /// The standard model set: naive, sliding trend, Holt, burst onset,
    /// plus — when `season_windows ≥ 2` — a seasonal smoother with that
    /// cycle length. Rolling errors average the most recent
    /// `error_window` one-step scores.
    pub fn new(error_window: usize, season_windows: usize) -> Self {
        let mut models = vec![
            Model::Naive(Naive::new()),
            Model::Trend(LinearTrend::new(6)),
            Model::Holt(Holt::new(0.5, 0.3)),
            Model::Burst(BurstOnset::new(2.0, 6)),
        ];
        if season_windows >= 2 {
            models.push(Model::Seasonal(SeasonalSmoother::new(
                0.3,
                0.05,
                0.6,
                season_windows,
            )));
        }
        // The first model answers during warm-up, before any score
        // exists, so the most conservative one comes first.
        let n = models.len();
        Ensemble {
            models,
            scores: vec![VecDeque::new(); n],
            pending: vec![None; n],
            error_window: error_window.max(1),
            last: None,
        }
    }

    /// Feeds the latest window's observation: scores every model's
    /// pending one-step-ahead forecast against it, updates the models,
    /// and records their next one-step-ahead forecasts.
    pub fn observe(&mut self, value: f64) {
        for i in 0..self.models.len() {
            if let Some(f) = self.pending[i] {
                self.scores[i].push_back(smape(f, value));
                while self.scores[i].len() > self.error_window {
                    self.scores[i].pop_front();
                }
            }
            self.models[i].observe(value);
            self.pending[i] = self.models[i].forecast(1.0);
        }
        self.last = Some(value);
    }

    /// Rolling sMAPE of model `i` (`None` until scored).
    fn score(&self, i: usize) -> Option<f64> {
        let s = &self.scores[i];
        if s.is_empty() {
            return None;
        }
        Some(s.iter().sum::<f64>() / s.len() as f64)
    }

    /// Index of the current best-scoring model. Ties and the warm-up
    /// phase (no scores anywhere) resolve to the earliest model in the
    /// list — the conservative one by construction.
    fn best(&self) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for i in 0..self.models.len() {
            let s = self.score(i).unwrap_or(f64::INFINITY);
            if s < best_score {
                best_score = s;
                best = i;
            }
        }
        best
    }

    /// Point forecast `steps` windows ahead from the current best model
    /// (`None` until any model is warm). The value is sanitised: a
    /// non-finite model output falls back to the last observation, and
    /// negative loads clamp to zero — the ensemble never returns
    /// non-finite or negative load.
    pub fn forecast(&self, steps: f64) -> Option<Forecast> {
        let last = self.last?;
        let i = self.best();
        let (value, model) = match self.models[i].forecast(steps) {
            Some(v) if v.is_finite() => (v, self.models[i].name()),
            // The chosen model cannot answer (or answered garbage):
            // degrade to persistence rather than to nothing.
            _ => (last, "naive"),
        };
        Some(Forecast {
            value: value.max(0.0),
            model,
            rolling_smape: self.score(i),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_answers_from_the_conservative_model() {
        let mut e = Ensemble::new(8, 0);
        assert!(e.forecast(1.0).is_none(), "no observation yet");
        e.observe(120.0);
        let f = e.forecast(3.0).unwrap();
        assert_eq!((f.value, f.model), (120.0, "naive"));
        assert_eq!(f.rolling_smape, None);
    }

    #[test]
    fn ramp_promotes_a_trend_model() {
        let mut e = Ensemble::new(8, 0);
        for w in 0..8 {
            e.observe(500.0 + 100.0 * w as f64);
        }
        let f = e.forecast(2.0).unwrap();
        assert_ne!(f.model, "naive", "a trend-aware model must win a ramp");
        assert!((f.value - 1400.0).abs() < 30.0, "value {}", f.value);
        assert!(f.rolling_smape.unwrap() < 0.05);
    }

    #[test]
    fn seasonal_member_wins_a_clean_cycle() {
        let season = [100.0, 300.0, 500.0, 300.0];
        let mut e = Ensemble::new(8, 4);
        for _ in 0..8 {
            for v in season {
                e.observe(v);
            }
        }
        let f = e.forecast(1.0).unwrap();
        assert_eq!(f.model, "seasonal");
        assert!((f.value - 100.0).abs() < 10.0, "value {}", f.value);
    }

    #[test]
    fn forecasts_are_always_finite_and_non_negative() {
        let mut e = Ensemble::new(4, 0);
        for v in [1000.0, 500.0, 10.0, 0.0, 0.0] {
            e.observe(v);
        }
        // A down-trend extrapolates below zero; the ensemble clamps.
        let f = e.forecast(5.0).unwrap();
        assert!(f.value >= 0.0 && f.value.is_finite());
    }

    #[test]
    fn scores_roll_over_the_configured_window() {
        let mut e = Ensemble::new(2, 0);
        for v in [10.0, 10.0, 10.0, 10.0, 10.0] {
            e.observe(v);
        }
        // Flat series: every scored model is perfect over any window.
        assert_eq!(e.forecast(1.0).unwrap().rolling_smape, Some(0.0));
        assert_eq!(e.scores.iter().map(|s| s.len()).max(), Some(2));
    }
}
