//! The forecaster: proactive planning's demand prediction and its
//! guardrails.

use atom_cluster::WindowReport;
use atom_forecast::Ensemble;
use atom_obs::ForecastRecord;

use super::AtomConfig;
use crate::analyzer::LoadView;

/// Configuration of the proactive (forecast-driven) planning path.
///
/// Off by default: a reactive ATOM plans for the load it just observed,
/// which lands every scale-up one actuation horizon late. When enabled,
/// the controller keeps a bounded history of observed load, forecasts
/// the demand at `t + horizon` (the horizon read from measured scale
/// latency, falling back to the configured actuation delay), and hands
/// the *predicted* load to the unchanged planner — guarded so a bad
/// forecast can never do worse than reactive planning:
///
/// * the prediction is clamped to an envelope above the observation and
///   never below it (no scale-down on a forecast alone);
/// * when the answering model's rolling one-step sMAPE exceeds
///   [`ForecastConfig::max_smape`], the window is planned reactively.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastConfig {
    /// Master switch; `false` leaves every decision byte-identical to
    /// the reactive controller.
    pub enabled: bool,
    /// One-step-ahead sMAPE samples averaged per model when ranking the
    /// ensemble (and when thresholding the fallback guardrail).
    pub error_window: usize,
    /// Dominant workload period in monitoring windows; `>= 2` adds a
    /// seasonal smoother with that cycle to the ensemble (e.g. a
    /// diurnal cycle of 24 five-minute windows would be 288).
    pub season_windows: usize,
    /// Rolling-sMAPE ceiling above which the forecast is discarded and
    /// the window planned reactively.
    pub max_smape: f64,
    /// Relative headroom above the observation the prediction may claim:
    /// the planned load is clamped to `[observed, observed*(1+envelope)]`.
    pub envelope: f64,
    /// Observed (non-degraded) windows required before the first
    /// forecast is trusted.
    pub min_history: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig {
            enabled: false,
            error_window: 8,
            season_windows: 0,
            max_smape: 0.35,
            envelope: 1.0,
            min_history: 3,
        }
    }
}

impl ForecastConfig {
    /// The default knobs with the master switch on.
    pub fn enabled() -> Self {
        ForecastConfig {
            enabled: true,
            ..ForecastConfig::default()
        }
    }
}

/// Owns the forecaster ensemble and its history. Exists only on a
/// proactive controller — the reactive path runs zero forecast code.
#[derive(Debug, Clone)]
pub(super) struct Forecaster {
    ensemble: Ensemble,
    /// Non-degraded windows the ensemble has observed so far (gates the
    /// first trusted forecast behind `min_history`).
    history: usize,
}

impl Forecaster {
    /// The forecaster `cfg` asks for: `None` unless it is enabled.
    pub(super) fn new(cfg: &ForecastConfig) -> Option<Self> {
        cfg.enabled.then(|| Forecaster {
            ensemble: Ensemble::new(cfg.error_window, cfg.season_windows),
            history: 0,
        })
    }

    /// Analyze: feeds the window's observed load to the ensemble and
    /// predicts the demand at the moment actions issued *now* will have
    /// taken effect, behind the guardrails [`ForecastConfig`] describes.
    /// Returns `None` on degraded windows (their counters would poison
    /// the models) or while history is shorter than `min_history`.
    pub(super) fn demand(
        &mut self,
        config: &AtomConfig,
        load: &LoadView,
        report: &WindowReport,
        degraded: bool,
        notes: &mut Vec<String>,
    ) -> Option<ForecastRecord> {
        let cfg = &config.forecast;
        if degraded {
            notes.push("monitor degraded: forecaster paused this window".into());
            return None;
        }
        let observed = load.users as f64;
        self.ensemble.observe(observed);
        self.history += 1;
        if self.history < cfg.min_history.max(1) {
            return None;
        }
        let span = report.duration();
        if span <= 0.0 {
            return None;
        }
        // The horizon is how long a scale-up takes to land *here*, as
        // measured (issue-to-ready p95); before any scale-up completes
        // the configured actuation delay is the best estimate.
        let horizon = report
            .scale_latency
            .map(|s| s.p95)
            .unwrap_or(config.actuation_delay)
            .max(0.0);
        let f = self.ensemble.forecast(horizon / span)?;
        let fallback = f.rolling_smape.is_some_and(|e| e > cfg.max_smape);
        let planned = if fallback {
            notes.push(format!(
                "forecast unreliable (rolling sMAPE {:.2} > {:.2}): planning reactively",
                f.rolling_smape.unwrap_or(f64::NAN),
                cfg.max_smape
            ));
            observed
        } else {
            f.value
                .clamp(observed, observed * (1.0 + cfg.envelope.max(0.0)))
        };
        let clamped = !fallback && (planned - f.value).abs() > 1e-9;
        if !fallback && planned > observed {
            notes.push(format!(
                "planning for predicted load {planned:.0} (observed {observed:.0}, {} model, {horizon:.0} s horizon)",
                f.model
            ));
        }
        Some(ForecastRecord {
            model: f.model.to_string(),
            horizon,
            observed,
            predicted: f.value,
            planned,
            rolling_smape: f.rolling_smape,
            fallback,
            clamped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Atom, AtomConfig};
    use super::*;
    use crate::autoscaler::Autoscaler;

    /// Drives a controller through a deterministic ramp and returns the
    /// forecast record of the last window.
    fn ramp_records(cfg: AtomConfig, loads: &[usize]) -> Vec<Option<atom_obs::ForecastRecord>> {
        let mut atom = Atom::new(binding(0.5), cfg);
        loads
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let _ = atom.decide(&at_window(report(n, 1, 0.5), k));
                atom.take_decision_record().expect("record").forecast
            })
            .collect()
    }

    #[test]
    fn reactive_config_journals_no_forecast() {
        let recs = ramp_records(fast_config(), &[100, 200, 300]);
        assert!(recs.iter().all(|f| f.is_none()));
    }

    #[test]
    fn proactive_ramp_plans_above_the_observation() {
        let loads = [100, 200, 300, 400, 500, 600];
        let recs = ramp_records(proactive_config(), &loads);
        assert!(recs[0].is_none(), "min_history gates the first window");
        let last = recs.last().unwrap().as_ref().expect("forecast");
        assert_eq!(last.observed, 600.0);
        assert!(
            last.planned > last.observed,
            "a clean ramp must plan ahead: {last:?}"
        );
        assert!(!last.fallback);
        // No scale latency was ever measured in these synthetic reports,
        // so the horizon falls back to the configured actuation delay.
        assert_eq!(last.horizon, 150.0);
    }

    #[test]
    fn measured_scale_latency_sets_the_horizon() {
        let mut atom = Atom::new(binding(0.5), proactive_config());
        let stats = atom_cluster::ScaleLatencyStats {
            mean: 100.0,
            p95: 210.0,
            max: 260.0,
            count: 12,
        };
        for (k, n) in [100usize, 200, 300, 400].into_iter().enumerate() {
            let r = at_window(report(n, 1, 0.5).with_scale_latency(Some(stats)), k);
            let _ = atom.decide(&r);
        }
        let f = atom
            .take_decision_record()
            .and_then(|r| r.forecast)
            .expect("forecast");
        assert_eq!(f.horizon, 210.0, "horizon must be the measured p95");
    }

    #[test]
    fn forecast_never_plans_below_the_observation() {
        // A collapsing load: trend models extrapolate downwards, but the
        // guardrail floors the plan at the observation.
        let loads = [2000, 1600, 1200, 800, 400, 200];
        let recs = ramp_records(proactive_config(), &loads);
        for f in recs.into_iter().flatten() {
            assert!(
                f.planned >= f.observed,
                "scale-down on forecast alone: {f:?}"
            );
        }
    }

    #[test]
    fn envelope_clamps_runaway_predictions() {
        // A zero envelope pins the plan to the observation, so any
        // upward extrapolation must come back clamped.
        let mut cfg = proactive_config();
        cfg.forecast.envelope = 0.0;
        let loads = [100, 200, 300, 400, 500, 600];
        let recs = ramp_records(cfg, &loads);
        let last = recs.last().unwrap().as_ref().expect("forecast");
        assert!(last.predicted > 600.0, "clean ramp extrapolates upwards");
        assert!(last.clamped, "{last:?}");
        assert_eq!(last.planned, 600.0);
    }

    #[test]
    fn erratic_load_falls_back_to_reactive() {
        let mut cfg = proactive_config();
        cfg.forecast.max_smape = 0.05;
        // Wild oscillation: every model's rolling sMAPE blows past 5%.
        let loads = [100, 2000, 150, 1800, 120, 2200, 90, 1900];
        let recs = ramp_records(cfg, &loads);
        let last = recs.last().unwrap().as_ref().expect("forecast");
        assert!(last.fallback, "guardrail must fire: {last:?}");
        assert_eq!(last.planned, last.observed);
    }

    #[test]
    fn degraded_windows_pause_the_forecaster() {
        let mut atom = Atom::new(binding(0.5), proactive_config());
        let _ = atom.decide(&report(100, 1, 0.5));
        let dark = at_window(report(100, 1, 0.5).with_monitor_dropout_fraction(0.9), 1);
        let _ = atom.decide(&dark);
        let rec = atom.take_decision_record().expect("record");
        assert!(rec.forecast.is_none(), "no forecast on a dark window");
        let history = atom.forecaster.as_ref().map(|f| f.history);
        assert_eq!(history, Some(1), "dark window not observed");
    }

    #[test]
    fn disabled_forecast_is_inert_on_the_decision_path() {
        // Same seed, same windows: a controller with forecasting off but
        // scrambled forecast knobs must produce byte-identical decisions
        // to the default config.
        let mut scrambled = fast_config();
        scrambled.forecast = ForecastConfig {
            enabled: false,
            error_window: 3,
            season_windows: 7,
            max_smape: 0.01,
            envelope: 9.0,
            min_history: 0,
        };
        let run = |cfg: AtomConfig| {
            let mut atom = Atom::new(binding(0.2), cfg);
            let mut out = Vec::new();
            for (k, n) in [500usize, 1000, 1500, 2000].into_iter().enumerate() {
                out.push(atom.decide(&at_window(report(n, 1, 0.2), k)));
                let rec = atom.take_decision_record().expect("record");
                assert!(rec.forecast.is_none(), "disabled path journals nothing");
            }
            out
        };
        assert_eq!(run(fast_config()), run(scrambled));
    }
}
