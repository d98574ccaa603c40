//! The forecaster: proactive planning's demand prediction and its
//! guardrails.

use atom_cluster::WindowReport;
use atom_forecast::Ensemble;
use atom_obs::ForecastRecord;

use super::ACTUATION_DELAY;
use crate::analyzer::LoadView;

/// One-step-ahead sMAPE samples averaged per model when ranking the
/// ensemble (and when thresholding the fallback guardrail).
const ERROR_WINDOW: usize = 8;
/// Rolling-sMAPE ceiling above which the forecast is discarded and the
/// window planned reactively.
const MAX_SMAPE: f64 = 0.35;
/// Relative headroom above the observation the prediction may claim: the
/// planned load is clamped to `[observed, observed * (1 + ENVELOPE)]`.
const ENVELOPE: f64 = 1.0;
/// Observed (non-degraded) windows required before the first forecast is
/// trusted.
const MIN_HISTORY: usize = 3;

/// Configuration of the proactive (forecast-driven) planning path.
///
/// Off by default: a reactive ATOM plans for the load it just observed,
/// which lands every scale-up one actuation horizon late. When enabled,
/// the controller keeps a bounded history of observed load, forecasts
/// the demand at `t + horizon` (the horizon read from measured scale
/// latency, falling back to the 150 s actuation delay), and hands the
/// *predicted* load to the unchanged planner — guarded so a bad forecast
/// can never do worse than reactive planning:
///
/// * no forecast before the third observed window;
/// * the prediction is clamped to at most twice the observation and
///   never below it (no scale-down on a forecast alone);
/// * when the answering model's rolling one-step sMAPE over the last 8
///   windows exceeds 0.35, the window is planned reactively.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForecastConfig {
    /// Master switch; `false` leaves every decision byte-identical to
    /// the reactive controller.
    pub enabled: bool,
    /// Dominant workload period in monitoring windows; `>= 2` adds a
    /// seasonal smoother with that cycle to the ensemble (e.g. a
    /// diurnal cycle of 24 five-minute windows would be 288).
    pub season_windows: usize,
}

impl ForecastConfig {
    /// Forecasting on, with no seasonal model.
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
    /// first trusted forecast behind `MIN_HISTORY`).
    history: usize,
}

impl Forecaster {
    /// The forecaster `cfg` asks for: `None` unless it is enabled.
    pub(super) fn new(cfg: &ForecastConfig) -> Option<Self> {
        cfg.enabled.then(|| Forecaster {
            ensemble: Ensemble::new(ERROR_WINDOW, cfg.season_windows),
            history: 0,
        })
    }

    /// Analyze: feeds the window's observed load to the ensemble and
    /// predicts the demand at the moment actions issued *now* will have
    /// taken effect, behind the guardrails [`ForecastConfig`] describes.
    /// Returns `None` on degraded windows (their counters would poison
    /// the models) or while history is shorter than `MIN_HISTORY`.
    pub(super) fn demand(
        &mut self,
        load: &LoadView,
        report: &WindowReport,
        degraded: bool,
        notes: &mut Vec<String>,
    ) -> Option<ForecastRecord> {
        if degraded {
            notes.push("monitor degraded: forecaster paused this window".into());
            return None;
        }
        let observed = load.users as f64;
        self.ensemble.observe(observed);
        self.history += 1;
        if self.history < MIN_HISTORY {
            return None;
        }
        let span = report.duration();
        if span <= 0.0 {
            return None;
        }
        // The horizon is how long a scale-up takes to land *here*, as
        // measured (issue-to-ready p95); before any scale-up completes
        // the actuation delay is the best estimate.
        let horizon = report
            .scale_latency
            .map(|s| s.p95)
            .unwrap_or(ACTUATION_DELAY)
            .max(0.0);
        let f = self.ensemble.forecast(horizon / span)?;
        let fallback = f.rolling_smape.is_some_and(|e| e > MAX_SMAPE);
        let planned = if fallback {
            notes.push(format!(
                "forecast unreliable (rolling sMAPE {:.2} > {MAX_SMAPE:.2}): planning reactively",
                f.rolling_smape.unwrap_or(f64::NAN),
            ));
            observed
        } else {
            f.value.clamp(observed, observed * (1.0 + ENVELOPE))
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
        // Warm-up: the first forecast comes with the third window.
        assert!(recs[..MIN_HISTORY - 1].iter().all(Option::is_none));
        assert!(recs[MIN_HISTORY - 1].is_some(), "{recs:?}");
        let last = recs.last().unwrap().as_ref().expect("forecast");
        assert_eq!(last.observed, 600.0);
        assert!(
            last.planned > last.observed,
            "a clean ramp must plan ahead: {last:?}"
        );
        assert!(!last.fallback);
        // No scale latency was ever measured in these synthetic reports,
        // so the horizon falls back to the actuation delay.
        assert_eq!(last.horizon, ACTUATION_DELAY);
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
        // Scale-ups that take 50 minutes to land put the horizon ten
        // windows out, where the ramp's trend runs past twice the
        // observation: the plan must come back clamped to the envelope.
        let stats = atom_cluster::ScaleLatencyStats {
            mean: 3000.0,
            p95: 3000.0,
            max: 3000.0,
            count: 1,
        };
        let mut atom = Atom::new(binding(0.5), proactive_config());
        for (k, n) in [100usize, 200, 300, 400, 500, 600].into_iter().enumerate() {
            let r = at_window(report(n, 1, 0.5).with_scale_latency(Some(stats)), k);
            let _ = atom.decide(&r);
        }
        let last = atom
            .take_decision_record()
            .and_then(|r| r.forecast)
            .expect("forecast");
        assert!(last.predicted > 1200.0, "{last:?}");
        assert!(last.clamped && !last.fallback, "{last:?}");
        assert_eq!(last.planned, 600.0 * (1.0 + ENVELOPE));
    }

    #[test]
    fn erratic_load_falls_back_to_reactive() {
        // Wild oscillation: every model's rolling sMAPE blows past 0.35.
        let loads = [100, 2000, 150, 1800, 120, 2200, 90, 1900];
        let recs = ramp_records(proactive_config(), &loads);
        let last = recs.last().unwrap().as_ref().expect("forecast");
        assert!(last.rolling_smape.is_some_and(|e| e > MAX_SMAPE));
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
        // a seasonal period set must produce byte-identical decisions to
        // the default config.
        let mut scrambled = fast_config();
        scrambled.forecast = ForecastConfig {
            enabled: false,
            season_windows: 7,
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
