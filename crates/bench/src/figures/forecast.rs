//! Forecast experiment (beyond the paper): reactive vs proactive ATOM.
//!
//! A reactive ATOM plans for the load it just observed, so every
//! scale-up lands one actuation horizon late — the cluster spends the
//! start-up delay of each correction under-provisioned. The proactive
//! controller (`ATOM-P`) forecasts the demand at `t + horizon` with the
//! `atom-forecast` ensemble and hands the *predicted* snapshot to the
//! same planner. This experiment measures what that buys on three
//! workload shapes:
//!
//! * **ramp** — the paper's §V ramp to N = 2000 (trend models shine);
//! * **bursty** — MMPP2 burstiness at I = 4000 (Fig. 13's hard mode);
//! * **diurnal** — a sinusoidal population cycle (seasonal model).
//!
//! Reported per run: SLO-violation-seconds (`T_u` over the stateless
//! services), under-provisioned area `A_u`, time-to-stable (end of the
//! last under-provisioned window), mean TPS, and the forecaster's own
//! accounting (windows forecast, fallbacks, clamps). `repro --smoke
//! forecast` gates CI on the ramp — the easiest predictable shape, where
//! the forecasting path must pay for itself: proactive must meet or
//! beat reactive on SLO-violation-seconds, and both must finish without
//! wedging.

use atom_core::workload::{LoadProfile, WorkloadSpec};
use atom_core::ExperimentResult;
use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one, ScalerKind, STATELESS};
use crate::figures::chaos;
use crate::output::{f, Table};
use crate::HarnessOptions;

/// One forecast-experiment scenario: a named workload plus the seasonal
/// cycle hint (in monitoring windows) handed to the proactive ensemble.
pub(super) struct ForecastScenario {
    /// Scenario name ("ramp" / "bursty" / "diurnal").
    pub name: &'static str,
    /// The workload both scalers run.
    pub workload: WorkloadSpec,
    /// Dominant period in monitoring windows (0 = no seasonal model).
    pub season_windows: usize,
}

/// The three scenarios, sized to the experiment horizon.
pub(super) fn scenarios_for(windows: usize, window_secs: f64) -> Vec<ForecastScenario> {
    let horizon = windows as f64 * window_secs;
    // Two full cycles over the run, so the seasonal smoother sees one
    // complete warm-up season and still has one to predict.
    let period = horizon / 2.0;
    let season_windows = (windows / 2).max(2);
    let diurnal = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000).with_source(
        LoadProfile::Sinusoidal {
            mean: 1200,
            amplitude: 800,
            period,
        },
    );
    vec![
        ForecastScenario {
            name: "ramp",
            workload: scenarios::evaluation_workload(scenarios::ordering_mix(), 2000),
            season_windows: 0,
        },
        ForecastScenario {
            name: "bursty",
            workload: scenarios::bursty_workload(4000.0),
            season_windows: 0,
        },
        ForecastScenario {
            name: "diurnal",
            workload: diurnal,
            season_windows,
        },
    ]
}

/// End of the last window in which some stateless service was
/// under-provisioned (seconds; 0 when the run never fell behind) — how
/// long the controller took to stop violating.
pub(super) fn time_to_stable(result: &ExperimentResult) -> f64 {
    let mut stable_at = 0.0;
    for (i, w) in result.reports.iter().enumerate() {
        if chaos::underprovisioned(result, i) {
            stable_at = w.end;
        }
    }
    stable_at
}

/// SLO-violation-seconds: `T_u` summed over the stateless services (the
/// same trio the paper's `T_u`/`A_u` figures consider).
pub(super) fn slo_violation_seconds(result: &ExperimentResult) -> f64 {
    result.underprovision_time(Some(&STATELESS))
}

/// The forecaster's own accounting over a run's decision journal.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct ForecastTally {
    /// Windows planned against a forecast record.
    pub windows: u64,
    /// Windows the accuracy guardrail planned reactively.
    pub fallbacks: u64,
    /// Windows the envelope clamp changed the prediction.
    pub clamped: u64,
    /// Mean rolling sMAPE over scored forecasts (`NaN` with none).
    pub mean_smape: f64,
}

/// Tallies the forecast records journaled during `result`.
pub(super) fn forecast_tally(result: &ExperimentResult) -> ForecastTally {
    let mut t = ForecastTally::default();
    let (mut err_sum, mut err_n) = (0.0f64, 0u64);
    for d in result.telemetry.decisions.iter().flatten() {
        if let Some(fc) = &d.forecast {
            t.windows += 1;
            t.fallbacks += fc.fallback as u64;
            t.clamped += fc.clamped as u64;
            if let Some(e) = fc.rolling_smape {
                err_sum += e;
                err_n += 1;
            }
        }
    }
    t.mean_smape = if err_n > 0 {
        err_sum / err_n as f64
    } else {
        f64::NAN
    };
    t
}

/// Runs one scenario under reactive and proactive ATOM, in that order.
pub(super) fn run_pair(
    opts: &HarnessOptions,
    scenario: &ForecastScenario,
    windows: usize,
    window_secs: f64,
) -> [ExperimentResult; 2] {
    let shop = SockShop::default();
    [
        ScalerKind::Atom,
        ScalerKind::AtomP {
            season_windows: scenario.season_windows,
        },
    ]
    .map(|kind| {
        atom_obs::progress!("  running forecast {} {}", scenario.name, kind.name());
        run_one(
            &shop,
            scenario.workload.clone(),
            kind,
            windows,
            window_secs,
            opts,
        )
    })
}

/// The per-run summary `forecast.csv` and `trace.csv` share, keyed by
/// a first column named `what`.
pub(super) fn summary_table(what: &str) -> Table {
    Table::new(&[
        what,
        "scaler",
        "SLO viol [s]",
        "A_u [core-s]",
        "stable at [s]",
        "mean TPS",
        "forecasts",
        "fallbacks",
        "clamped",
        "#actions",
    ])
}

/// One [`summary_table`] row.
pub(super) fn summary_row(label: &str, r: &ExperimentResult, windows: usize) -> Vec<String> {
    let tally = forecast_tally(r);
    vec![
        label.to_string(),
        r.scaler.clone(),
        f(slo_violation_seconds(r), 0),
        f(r.underprovision_area(Some(&STATELESS)), 0),
        f(time_to_stable(r), 0),
        f(r.mean_tps(0, windows), 1),
        tally.windows.to_string(),
        tally.fallbacks.to_string(),
        tally.clamped.to_string(),
        r.actions.len().to_string(),
    ]
}

/// The full artefact: reactive vs proactive across all three scenarios,
/// as a table and `forecast.csv`. Returns the results so callers can
/// export the decision journal (`--trace-out`).
pub(super) fn run(opts: &HarnessOptions) -> Vec<ExperimentResult> {
    atom_obs::info!("\n== Forecast: reactive vs proactive ATOM (ramp / bursty / diurnal) ==");
    let (windows, window_secs) = opts.protocol(6);
    let mut table = summary_table("scenario");
    let mut all = Vec::new();
    for scenario in scenarios_for(windows, window_secs) {
        for r in run_pair(opts, &scenario, windows, window_secs) {
            table.row(summary_row(scenario.name, &r, windows));
            all.push(r);
        }
    }
    table.print();
    table.write_csv(&opts.out_dir.join("forecast.csv"));

    // The proactive controller's window-by-window account: which model
    // answered, what it planned for, when the guardrails fired.
    for r in all.iter().filter(|r| r.scaler == "ATOM-P") {
        for d in r.telemetry.decisions.iter().flatten() {
            if let Some(fc) = &d.forecast {
                atom_obs::info!(
                    "  [{:>6.0}s] {}: observed {:>5.0} -> planned {:>5.0} ({}, sMAPE {}{}{})",
                    d.time,
                    r.scaler,
                    fc.observed,
                    fc.planned,
                    fc.model,
                    fc.rolling_smape
                        .map_or("n/a".to_string(), |e| format!("{e:.3}")),
                    if fc.fallback { ", fallback" } else { "" },
                    if fc.clamped { ", clamped" } else { "" },
                );
            }
        }
    }
    all
}

/// The gate checks every reactive-vs-proactive run shares (`forecast`
/// on the ramp, `trace` on the Alibaba fixture): proactive ATOM meets or
/// beats reactive ATOM on SLO-violation-seconds over `what`, journals
/// forecast records, and neither controller stops early or wedges.
pub(super) fn proactive_gate(
    results: &[ExperimentResult],
    windows: usize,
    what: &str,
) -> Vec<String> {
    let find = |name: &str| {
        results
            .iter()
            .find(|r| r.scaler == name)
            .unwrap_or_else(|| panic!("{name} ran"))
    };
    let (reactive, proactive) = (find("ATOM"), find("ATOM-P"));
    let mut failures = Vec::new();
    let (t_reactive, t_proactive) = (
        slo_violation_seconds(reactive),
        slo_violation_seconds(proactive),
    );
    if t_proactive > t_reactive {
        failures.push(format!(
            "proactive ATOM violated the SLO longer than reactive on the {what} \
             ({t_proactive:.0} s > {t_reactive:.0} s)"
        ));
    }
    for r in results {
        if r.reports.len() != windows {
            failures.push(format!(
                "{}: run ended after {}/{} windows",
                r.scaler,
                r.reports.len(),
                windows
            ));
        }
        let idle = chaos::longest_idle_underprovisioned(r);
        if idle > chaos::MAX_IDLE_UNDERPROVISIONED {
            failures.push(format!(
                "{} wedged: {idle} consecutive under-provisioned windows without an action \
                 (allowed {})",
                r.scaler,
                chaos::MAX_IDLE_UNDERPROVISIONED
            ));
        }
        atom_obs::progress!(
            "smoke: {} SLO-violation={:.0}s stable-at={:.0}s actions={}",
            r.scaler,
            slo_violation_seconds(r),
            time_to_stable(r),
            r.actions.len()
        );
    }
    let tally = forecast_tally(proactive);
    if tally.windows == 0 {
        failures.push("proactive ATOM journaled no forecast records".to_string());
    }
    atom_obs::info!(
        "{what}: proactive {t_proactive:.0} s vs reactive {t_reactive:.0} s SLO-violation \
         ({} forecast windows, {} fallbacks)",
        tally.windows,
        tally.fallbacks
    );
    failures
}

/// The `--smoke` gate: the quick ramp scenario under both controllers,
/// checked by [`proactive_gate`].
pub(super) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let (windows, window_secs) = opts.protocol(6);
    let ramp = scenarios_for(windows, window_secs)
        .into_iter()
        .find(|s| s.name == "ramp")
        .expect("ramp scenario exists");
    let results = run_pair(opts, &ramp, windows, window_secs);
    crate::trace::emit(opts, &results);
    proactive_gate(&results, windows, "ramp")
}
