//! `repro audit` — tentpole, beyond the paper: per-request span
//! sampling feeding an LQN model-drift audit.
//!
//! ATOM runs three scenarios — a calm evaluation ramp, the bursty
//! spike workload, and the chaos fault schedule — with deterministic
//! span sampling enabled at [`SPAN_RATE`]. Each MAPE-K window the
//! controller compares the LQN-predicted per-station residence and
//! utilisation of the configuration it actuated against the observed
//! span aggregates of the next window, journaling a
//! [`atom_obs::DriftRecord`] per audited window.
//!
//! Artefacts (under `results/`):
//!
//! * `drift.csv` — one row per audited window per service: predicted vs
//!   observed residence and utilisation, signed relative residence
//!   error, and the rolling drift sMAPE.
//! * `audit_attribution.csv` — the SLO-violation attribution table:
//!   every under-provisioned (service, window) cell's
//!   violation-seconds, attributed to the dominant-residence service of
//!   that window's span aggregates. Rows sum to the run's `T_u` over
//!   the stateless services *by construction*: both count exactly the
//!   [`atom_metrics::CapacityWindow::underprovisioned`] cells.
//!
//! `--smoke` gates: every scenario audits windows with finite drift,
//! the calm ramp's rolling sMAPE stays bounded, the attribution sums
//! reconcile with `T_u`, and the Chrome trace-event export re-parses.

use atom_cluster::spec::AppSpec;
use atom_cluster::ClusterOptions;
use atom_core::ExperimentResult;
use atom_obs::DriftRecord;
use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one_with_cluster, ScalerKind, STATELESS};
use crate::figures::chaos::chaos_schedule;
use crate::output::{f, Table};
use crate::trace::{chrome_trace_json, ChromeEvent};
use crate::HarnessOptions;

/// Span sampling rate of the audit runs: 1% of root requests, the
/// rate the overhead budget is stated against.
pub(super) const SPAN_RATE: f64 = 0.01;

/// Smoke gate: ceiling on the calm ramp's final rolling drift sMAPE.
/// sMAPE is bounded by 2 (completely wrong); a model that tracks the
/// cluster at all stays well under 1.
const SMOKE_RAMP_SMAPE_CEILING: f64 = 1.5;

/// One audited scenario: name plus the finished ATOM run.
pub(super) struct AuditOutcome {
    /// Scenario name (`ramp` / `spike` / `chaos`).
    pub scenario: &'static str,
    /// The ATOM run with span sampling enabled.
    pub result: ExperimentResult,
}

/// One row of the SLO-violation attribution table.
#[derive(Debug, Clone)]
pub(super) struct AttributionRow {
    /// Scenario the row belongs to.
    pub scenario: &'static str,
    /// Monitoring-window index (0-based).
    pub window: usize,
    /// Tenant name, `-` for single-tenant runs.
    pub tenant: String,
    /// The under-provisioned service the violation was measured on.
    pub violating_service: String,
    /// The service the window's seconds are attributed to: the
    /// dominant-residence service of the window's span aggregates
    /// (falls back to the violating service when no span was sampled).
    pub attributed_service: String,
    /// Violation-seconds of the cell (the full window duration, per the
    /// `T_u` definition).
    pub violation_s: f64,
}

/// Runs the three audit scenarios (ATOM, span sampling at
/// [`SPAN_RATE`], seeded by `opts.seed`) and returns them in
/// `[ramp, spike, chaos]` order.
pub(super) fn run_scenarios(opts: &HarnessOptions) -> Vec<AuditOutcome> {
    let shop = SockShop::default();
    let (n_windows, window_secs) = opts.protocol(6);
    let horizon = n_windows as f64 * window_secs;
    let base = || {
        ClusterOptions::new()
            .with_seed(opts.seed)
            .with_span_sampling(SPAN_RATE, opts.seed)
    };
    let cells: Vec<(&'static str, _, ClusterOptions)> = vec![
        (
            "ramp",
            scenarios::evaluation_workload(scenarios::ordering_mix(), 2000),
            base(),
        ),
        ("spike", scenarios::bursty_workload(4000.0), base()),
        (
            "chaos",
            scenarios::evaluation_workload(scenarios::ordering_mix(), 2000),
            base().with_faults(chaos_schedule(horizon, window_secs)),
        ),
    ];
    cells
        .into_iter()
        .map(|(name, workload, cluster_opts)| {
            atom_obs::progress!("  audit: running {name} (span rate {SPAN_RATE})");
            AuditOutcome {
                scenario: name,
                result: run_one_with_cluster(
                    &shop,
                    workload,
                    ScalerKind::Atom,
                    n_windows,
                    window_secs,
                    opts,
                    cluster_opts,
                ),
            }
        })
        .collect()
}

/// The drift records an outcome journaled, in window order.
pub(super) fn drift_records(result: &ExperimentResult) -> Vec<&DriftRecord> {
    result
        .telemetry
        .decisions
        .iter()
        .flatten()
        .filter_map(|d| d.drift.as_ref())
        .collect()
}

/// Builds the attribution rows of one outcome. Every under-provisioned
/// (stateless service, window) cell contributes its full window
/// duration — exactly the cells [`ExperimentResult::underprovision_time`]
/// counts — attributed to the window's dominant-residence service per
/// the span aggregates.
pub(super) fn attribute(outcome: &AuditOutcome, spec: &AppSpec) -> Vec<AttributionRow> {
    let result = &outcome.result;
    let name = |si: usize| {
        spec.services
            .get(si)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("svc-{si}"))
    };
    let mut rows = Vec::new();
    for &si in &STATELESS {
        let trace = &result.capacity[si];
        for (wi, w) in trace.windows().iter().enumerate() {
            if !w.underprovisioned() {
                continue;
            }
            let report = &result.reports[wi];
            let dominant = report
                .span_stats
                .as_ref()
                .and_then(|stats| {
                    stats
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.samples > 0)
                        .max_by(|(_, a), (_, b)| a.residence_mean.total_cmp(&b.residence_mean))
                        .map(|(j, _)| j)
                })
                .unwrap_or(si);
            rows.push(AttributionRow {
                scenario: outcome.scenario,
                window: wi,
                tenant: report
                    .tenant
                    .map_or_else(|| "-".to_string(), |t| format!("tenant-{t}")),
                violating_service: name(si),
                attributed_service: name(dominant),
                violation_s: w.duration(),
            });
        }
    }
    rows
}

fn drift_table(outcomes: &[AuditOutcome]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "window",
        "service",
        "samples",
        "pred_residence_s",
        "obs_residence_s",
        "residence_err",
        "pred_util",
        "obs_util",
        "util_err",
        "rolling_smape",
    ]);
    for o in outcomes {
        for d in drift_records(&o.result) {
            for s in &d.services {
                table.row(vec![
                    o.scenario.to_string(),
                    d.predicted_window.to_string(),
                    s.service.clone(),
                    s.samples.to_string(),
                    f(s.predicted_residence, 6),
                    f(s.observed_residence, 6),
                    f(s.residence_error, 4),
                    f(s.predicted_utilization, 4),
                    f(s.observed_utilization, 4),
                    f(s.utilization_error, 4),
                    d.rolling_smape.map_or_else(|| "-".to_string(), |e| f(e, 4)),
                ]);
            }
        }
    }
    table
}

fn attribution_table(rows: &[AttributionRow]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "window",
        "tenant",
        "violating_service",
        "attributed_service",
        "violation_s",
    ]);
    for r in rows {
        table.row(vec![
            r.scenario.to_string(),
            r.window.to_string(),
            r.tenant.clone(),
            r.violating_service.clone(),
            r.attributed_service.clone(),
            f(r.violation_s, 0),
        ]);
    }
    table
}

/// Per-scenario audit summary printed to the console.
fn summary_table(outcomes: &[AuditOutcome], attribution: &[AttributionRow]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "audited windows",
        "sampled spans",
        "mean |res err|",
        "rolling sMAPE",
        "T_u [s]",
        "attributed [s]",
    ]);
    for o in outcomes {
        let records = drift_records(&o.result);
        let (mut err_sum, mut err_n) = (0.0f64, 0usize);
        for d in &records {
            for s in &d.services {
                err_sum += s.residence_error.abs();
                err_n += 1;
            }
        }
        let last_smape = records.iter().rev().find_map(|d| d.rolling_smape);
        let attributed: f64 = attribution
            .iter()
            .filter(|r| r.scenario == o.scenario)
            .map(|r| r.violation_s)
            .sum();
        table.row(vec![
            o.scenario.to_string(),
            records.len().to_string(),
            o.result.telemetry.spans.len().to_string(),
            if err_n > 0 {
                f(err_sum / err_n as f64, 4)
            } else {
                "-".to_string()
            },
            last_smape.map_or_else(|| "-".to_string(), |e| f(e, 4)),
            f(o.result.underprovision_time(Some(&STATELESS)), 0),
            f(attributed, 0),
        ]);
    }
    table
}

/// `repro audit`: run the scenarios, print the summary, and write
/// `drift.csv` + `audit_attribution.csv` (plus the Chrome trace export
/// when `--spans-out` was given). Returns the experiment results so the
/// caller can export the decision journal.
pub(super) fn run(opts: &HarnessOptions) -> Vec<ExperimentResult> {
    atom_obs::info!(
        "\n== audit: span sampling + LQN model-drift attribution (ATOM, rate {SPAN_RATE}) =="
    );
    let shop = SockShop::default();
    let spec = shop.app_spec();
    let outcomes = run_scenarios(opts);

    let attribution: Vec<AttributionRow> =
        outcomes.iter().flat_map(|o| attribute(o, &spec)).collect();

    summary_table(&outcomes, &attribution).print();
    drift_table(&outcomes).write_csv(&opts.out_dir.join("drift.csv"));
    attribution_table(&attribution).write_csv(&opts.out_dir.join("audit_attribution.csv"));

    let results: Vec<ExperimentResult> = outcomes.into_iter().map(|o| o.result).collect();
    crate::trace::emit_spans(opts, &results, &spec);
    results
}

/// The `--smoke` gate. Quick scenarios, then require that (1) every
/// scenario audited at least one window and every drift number is finite, (2) the calm ramp's rolling sMAPE stays under
/// `SMOKE_RAMP_SMAPE_CEILING`, (3) the attribution rows of each
/// scenario sum to its `T_u` over the stateless services, and (4) the
/// Chrome trace-event export re-parses with one event per sampled span.
pub(super) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let shop = SockShop::default();
    let spec = shop.app_spec();
    let outcomes = run_scenarios(opts);
    let mut failures: Vec<String> = Vec::new();

    for o in &outcomes {
        let records = drift_records(&o.result);
        if records.is_empty() {
            failures.push(format!("{}: no drift record in any window", o.scenario));
            continue;
        }
        if records.iter().all(|d| d.services.is_empty()) {
            failures.push(format!(
                "{}: drift records carry no service rows",
                o.scenario
            ));
        }
        for d in &records {
            for s in &d.services {
                let finite = s.predicted_residence.is_finite()
                    && s.observed_residence.is_finite()
                    && s.residence_error.is_finite()
                    && s.predicted_utilization.is_finite()
                    && s.observed_utilization.is_finite()
                    && s.utilization_error.is_finite();
                if !finite {
                    failures.push(format!(
                        "{}: non-finite drift for {} in window {}",
                        o.scenario, s.service, d.predicted_window
                    ));
                }
            }
            if let Some(e) = d.rolling_smape {
                if !e.is_finite() || !(0.0..=2.0 + 1e-9).contains(&e) {
                    failures.push(format!(
                        "{}: rolling sMAPE {e} outside [0, 2] in window {}",
                        o.scenario, d.predicted_window
                    ));
                }
            }
        }
        if o.scenario == "ramp" {
            if let Some(e) = records.iter().rev().find_map(|d| d.rolling_smape) {
                if e > SMOKE_RAMP_SMAPE_CEILING {
                    failures.push(format!(
                        "ramp: final rolling sMAPE {e:.3} above the \
                         {SMOKE_RAMP_SMAPE_CEILING} ceiling"
                    ));
                }
            } else {
                failures.push("ramp: no rolling sMAPE journaled".into());
            }
        }

        // Attribution must reconcile with T_u exactly (same cells, same
        // tolerance); allow only float-summation slack.
        let total = o.result.underprovision_time(Some(&STATELESS));
        let attributed: f64 = attribute(o, &spec).iter().map(|r| r.violation_s).sum();
        if (attributed - total).abs() > 1e-6 * total.max(1.0) {
            failures.push(format!(
                "{}: attribution sums to {attributed:.3}s but T_u is {total:.3}s",
                o.scenario
            ));
        }

        if o.result.telemetry.spans.is_empty() {
            failures.push(format!(
                "{}: no span sampled at rate {SPAN_RATE}",
                o.scenario
            ));
        }
    }

    // The Chrome export of every scenario together must re-parse, one
    // event per span.
    let owned: Vec<ExperimentResult> = outcomes.iter().map(|o| o.result.clone()).collect();
    crate::trace::emit_spans(opts, &owned, &spec);
    let json = chrome_trace_json(&owned, &spec);
    let expected: usize = owned.iter().map(|r| r.telemetry.spans.len()).sum();
    match serde_json::from_str::<Vec<ChromeEvent>>(&json) {
        Ok(events) if events.len() == expected => {}
        Ok(events) => failures.push(format!(
            "chrome export re-parsed {} events, expected {expected}",
            events.len()
        )),
        Err(e) => failures.push(format!("chrome export does not re-parse: {e:?}")),
    }

    let audited: usize = outcomes
        .iter()
        .map(|o| drift_records(&o.result).len())
        .sum();
    atom_obs::info!("audit: {audited} audited windows, {expected} sampled spans");
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> HarnessOptions {
        HarnessOptions {
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn attribution_reconciles_with_underprovision_time() {
        let shop = SockShop::default();
        let spec = shop.app_spec();
        let opts = quick_opts();
        // A deliberately under-provisioned ramp: plenty of violating
        // cells to attribute.
        let outcome = AuditOutcome {
            scenario: "ramp",
            result: run_one_with_cluster(
                &shop,
                scenarios::evaluation_workload(scenarios::ordering_mix(), 2500),
                ScalerKind::Atom,
                3,
                120.0,
                &opts,
                ClusterOptions::new()
                    .with_seed(11)
                    .with_span_sampling(1.0, 11),
            ),
        };
        let rows = attribute(&outcome, &spec);
        let total = outcome.result.underprovision_time(Some(&STATELESS));
        let attributed: f64 = rows.iter().map(|r| r.violation_s).sum();
        assert!(
            (attributed - total).abs() <= 1e-6 * total.max(1.0),
            "attribution {attributed} != T_u {total}"
        );
        // Every row names real services.
        for r in &rows {
            assert!(spec.services.iter().any(|s| s.name == r.violating_service));
            assert!(spec.services.iter().any(|s| s.name == r.attributed_service));
        }
    }

    #[test]
    fn audited_windows_journal_finite_drift() {
        let shop = SockShop::default();
        let opts = quick_opts();
        let result = run_one_with_cluster(
            &shop,
            scenarios::evaluation_workload(scenarios::ordering_mix(), 1500),
            ScalerKind::Atom,
            3,
            120.0,
            &opts,
            ClusterOptions::new()
                .with_seed(7)
                .with_span_sampling(1.0, 7),
        );
        let records = drift_records(&result);
        assert!(
            !records.is_empty(),
            "full sampling over 3 windows audits at least one"
        );
        for d in records {
            assert!(!d.services.is_empty());
            for s in &d.services {
                assert!(s.samples > 0);
                assert!(s.predicted_residence.is_finite() && s.predicted_residence >= 0.0);
                assert!(s.observed_residence.is_finite() && s.observed_residence >= 0.0);
                assert!(s.residence_error.is_finite());
            }
        }
    }
}
