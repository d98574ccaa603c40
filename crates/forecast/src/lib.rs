#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! Deterministic time-series forecasters for proactive autoscaling.
//!
//! ATOM's MAPE-K loop is reactive: it plans for the *last* window's
//! population, so every scale-up lands one container-startup-delay too
//! late. This crate supplies the missing piece — per-window workload
//! forecasters that let the controller plan for the population expected
//! at `t + actuation_horizon` instead:
//!
//! * `Naive` — last observation (the reactive baseline, and the
//!   ensemble's safety net);
//! * `LinearTrend` — least-squares trend over a sliding window;
//! * [`Holt`] — double exponential smoothing (level + trend);
//! * [`SeasonalSmoother`] — Holt-Winters-style additive seasonal
//!   smoothing for diurnal profiles;
//! * `BurstOnset` — a burst detector that extrapolates the onset slope
//!   when the latest increment dwarfs recent history.
//!
//! All of them sit behind the [`Forecaster`] trait and are composed by
//! [`Ensemble`], which scores every model's one-step-ahead forecasts
//! with a rolling sMAPE and answers each query from the current best.
//!
//! Observations are one value per monitoring window, in order; horizons
//! are expressed in (possibly fractional) windows. Everything is pure
//! `f64` arithmetic — no clocks, no RNG, no allocations after warm-up —
//! so a fixed history always yields bitwise-identical forecasts.
//!
//! ```
//! use atom_forecast::{Ensemble, Forecaster};
//!
//! // A ramp: +100 users per window.
//! let mut ens = Ensemble::new(8, 0);
//! for w in 0..6 {
//!     ens.observe(500.0 + 100.0 * w as f64);
//! }
//! let f = ens.forecast(2.0).expect("warm after six windows");
//! assert!((f.value - 1200.0).abs() < 20.0, "trend found: {}", f.value);
//! ```

mod ensemble;
mod models;

pub use ensemble::{Ensemble, Forecast};
pub use models::{Holt, SeasonalSmoother};

/// A per-window workload forecaster.
///
/// Implementations consume one observation per monitoring window (in
/// order, uniform spacing) and answer point forecasts a number of
/// windows ahead. They must be pure: the same observation sequence
/// yields bitwise-identical forecasts.
pub trait Forecaster {
    /// Model name for journals and reports.
    fn name(&self) -> &'static str;

    /// Records the value observed in the latest monitoring window.
    fn observe(&mut self, value: f64);

    /// Point forecast `steps` windows past the last observation
    /// (fractional steps interpolate). `None` until the model has seen
    /// enough history to say anything.
    fn forecast(&self, steps: f64) -> Option<f64>;
}

/// Symmetric mean-absolute-percentage error of one forecast/actual pair:
/// `2|f − a| / (|f| + |a|)`, in `[0, 2]`, defined as 0 when both are 0.
///
/// Scale-free, so the ensemble can compare models across load levels,
/// and bounded, so one absurd forecast cannot dominate a rolling score
/// the way a plain percentage error (unbounded near `a = 0`) would.
pub(crate) fn smape(forecast: f64, actual: f64) -> f64 {
    let denom = forecast.abs() + actual.abs();
    if denom <= 0.0 || !denom.is_finite() {
        return if forecast == actual { 0.0 } else { 2.0 };
    }
    2.0 * (forecast - actual).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smape_is_bounded_and_symmetric() {
        assert_eq!(smape(0.0, 0.0), 0.0);
        assert_eq!(smape(100.0, 100.0), 0.0);
        assert_eq!(smape(0.0, 50.0), 2.0);
        assert!((smape(110.0, 90.0) - smape(90.0, 110.0)).abs() < 1e-15);
        assert!((smape(110.0, 90.0) - 0.2).abs() < 1e-12);
        assert_eq!(smape(f64::INFINITY, 1.0), 2.0);
    }
}
