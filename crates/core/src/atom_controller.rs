//! The assembled ATOM controller (MAPE-K loop of Fig. 6).

use atom_cluster::{ScaleAction, WindowReport};
use atom_forecast::Ensemble;
use atom_ga::{Budget, GaOptions};
use atom_lqn::{share_index, DecisionVector, LqnModel};
use atom_obs::{
    ActuationOutcome, ChosenAction, DecisionRecord, DriftRecord, ForecastRecord, ServiceDemand,
    ServiceDrift,
};

use crate::analyzer::WorkloadAnalyzer;
use crate::autoscaler::{snapshot_of, Autoscaler};
use crate::binding::ModelBinding;
use crate::calibration::DemandCalibrator;
use crate::evaluator::CandidateEvaluator;
use crate::objective::ObjectiveSpec;
use crate::optimizer;
use crate::planner::{Planner, PlannerMode};

/// Configuration of the proactive (forecast-driven) planning path.
///
/// Off by default: a reactive ATOM plans for the load it just observed,
/// which lands every scale-up one actuation horizon late. When enabled,
/// the controller keeps a bounded history of observed load, forecasts
/// the demand at `t + horizon` (the horizon read from measured scale
/// latency, falling back to the configured actuation delay), and hands
/// the *predicted* snapshot to the unchanged planner — guarded so a bad
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

/// Configuration of the ATOM controller.
#[derive(Debug, Clone)]
pub struct AtomConfig {
    /// Objective weights, SLA, and limits (§IV-B).
    pub objective: ObjectiveSpec,
    /// GA hyper-parameters; the budget plays the paper's 2-minute bound
    /// (use evaluations for determinism).
    pub ga: GaOptions,
    /// Planner conservatism (`Standard`, ATOM-T, ATOM-S).
    pub planner_mode: PlannerMode,
    /// Seconds between window end and actions taking effect — ATOM's
    /// optimisation + planning latency (paper: ~2.5 min on average).
    pub actuation_delay: f64,
    /// Base RNG seed; each window derives its own.
    pub seed: u64,
    /// Run the §IV-C planner quick fixes (ablation knob; default on).
    pub quick_fixes: bool,
    /// Use the monitor's peak sub-interval rate for effective-population
    /// sizing (ablation knob; default on — §IV-A, Fig. 13).
    pub peak_monitoring: bool,
    /// Calibrate the model's service demands online from measurements
    /// (the paper's §VII future work; default off = statically profiled
    /// demands, as in the paper).
    pub online_demands: bool,
    /// Maximum tolerated monitor-dropout fraction before a window is
    /// treated as degraded: its scrape-based counters are discarded and
    /// the controller falls back to the last trusted telemetry instead
    /// of re-fitting the model on under-counted garbage.
    pub max_dropout: f64,
    /// How many times a scaling action that the actuator did not apply
    /// (an actuation-failure fault dropped the batch) is re-issued
    /// before being abandoned.
    pub max_actuation_retries: usize,
    /// Proactive planning: forecast demand at `t + actuation horizon`
    /// and plan for that (default off — reactive, as in the paper).
    pub forecast: ForecastConfig,
}

impl AtomConfig {
    /// Defaults matching the paper's setup: 600-solve budget (what the
    /// 2-minute bound affords LQNS-style solvers), 150 s actuation delay,
    /// standard planner.
    pub fn new(objective: ObjectiveSpec) -> Self {
        AtomConfig {
            objective,
            ga: GaOptions {
                budget: Budget::Evaluations(600),
                ..Default::default()
            },
            planner_mode: PlannerMode::Standard,
            actuation_delay: 150.0,
            seed: 1,
            quick_fixes: true,
            peak_monitoring: true,
            online_demands: false,
            max_dropout: 0.25,
            max_actuation_retries: 3,
            forecast: ForecastConfig::default(),
        }
    }
}

/// The per-station prediction made when a configuration was planned,
/// held until span aggregates observe the window it governed (the
/// knowledge-phase model audit).
#[derive(Debug, Clone)]
struct StationPrediction {
    /// Window the prediction was made in (0-based, journal numbering).
    window: u64,
    /// Per scalable service: name, cluster service index, LQN-predicted
    /// mean residence per visit (s), predicted task utilisation, and
    /// predicted mean network transit into the service per visit (s;
    /// 0.0 without a priced topology).
    services: Vec<(String, usize, f64, f64, f64)>,
}

/// A scaling action issued but not yet confirmed by the actuator state.
#[derive(Debug, Clone, Copy)]
struct PendingAction {
    action: ScaleAction,
    retries_left: usize,
    /// Earliest time the actuator could have applied the action (issue
    /// time plus the actuation delay); before this the action is merely
    /// in flight, not dropped.
    due: f64,
}

/// Outcome of reconciling pending actions against the actuator state.
#[derive(Debug, Default)]
struct Reconciled {
    /// Actions to issue again this window.
    reissue: Vec<ScaleAction>,
    /// Names of the services those actions touch (journal view).
    reissued: Vec<String>,
    /// Names of services whose actions ran out of retries.
    abandoned: Vec<String>,
}

/// The ATOM autoscaler.
///
/// # Examples
///
/// See `examples/quickstart.rs` for an end-to-end run against the Sock
/// Shop scenario.
#[derive(Debug, Clone)]
pub struct Atom {
    binding: ModelBinding,
    config: AtomConfig,
    analyzer: WorkloadAnalyzer,
    calibrator: DemandCalibrator,
    window: u64,
    name: String,
    last_explanation: Option<String>,
    /// Most recent non-degraded window: the fallback telemetry when the
    /// monitoring plane goes dark.
    last_trusted: Option<WindowReport>,
    /// Issued actions awaiting confirmation in the actuator state.
    pending: Vec<PendingAction>,
    /// Journal record of the most recent decision, drained via
    /// [`Autoscaler::take_decision_record`]. Assembled purely from data
    /// the decision already computed — inert by construction.
    last_record: Option<DecisionRecord>,
    /// The forecaster ensemble (`None` when proactive planning is off —
    /// the reactive path then runs zero forecast code).
    ensemble: Option<Ensemble>,
    /// Non-degraded windows the ensemble has observed so far (gates the
    /// first trusted forecast behind `forecast.min_history`).
    forecast_history: usize,
    /// The station-level prediction for the most recently planned
    /// configuration, awaiting its span-observed outcome (`None` unless
    /// span sampling feeds the monitor — the audit runs zero code
    /// otherwise).
    last_prediction: Option<StationPrediction>,
    /// Per-window residence sMAPE of the last few audits (rolling drift).
    drift_smape: std::collections::VecDeque<f64>,
    /// Per-window *network*-residence sMAPE of the last few audits.
    /// Never pushed to without a priced topology, so the reactive and
    /// topology-free paths carry no network state at all.
    net_smape: std::collections::VecDeque<f64>,
}

impl Atom {
    /// Creates the controller from its knowledge base and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the binding is internally inconsistent (programming
    /// error in the scenario definition).
    pub fn new(binding: ModelBinding, config: AtomConfig) -> Self {
        binding.assert_consistent();
        let base = match config.planner_mode {
            PlannerMode::Standard => "ATOM",
            PlannerMode::ConservativeTps { .. } => "ATOM-T",
            PlannerMode::ConservativeShare { .. } => "ATOM-S",
        };
        let name = if config.forecast.enabled {
            format!("{base}-P")
        } else {
            base.to_string()
        };
        let ensemble = config
            .forecast
            .enabled
            .then(|| Ensemble::new(config.forecast.error_window, config.forecast.season_windows));
        Atom {
            binding,
            config,
            analyzer: WorkloadAnalyzer::new(),
            calibrator: DemandCalibrator::new(),
            window: 0,
            name,
            last_explanation: None,
            last_trusted: None,
            pending: Vec::new(),
            last_record: None,
            ensemble,
            forecast_history: 0,
            last_prediction: None,
            drift_smape: std::collections::VecDeque::new(),
            net_smape: std::collections::VecDeque::new(),
        }
    }

    /// Audited windows averaged into the rolling drift sMAPE.
    const DRIFT_SMAPE_WINDOW: usize = 8;

    /// Knowledge: scores the prediction made for the previously planned
    /// configuration against the span aggregates that observed it.
    /// Returns `None` — and runs no arithmetic — unless the report
    /// carries span statistics and a prediction is waiting.
    fn audit_model(&mut self, report: &WindowReport) -> Option<DriftRecord> {
        let stats = report.span_stats.as_ref()?;
        let pred = self.last_prediction.take()?;
        let mut services = Vec::new();
        let mut smape_sum = 0.0;
        let mut smape_n = 0usize;
        let mut net_smape_sum = 0.0;
        let mut net_smape_n = 0usize;
        for (name, si, p_res, p_util, p_net) in &pred.services {
            let Some(s) = stats.get(*si) else { continue };
            if s.samples == 0 {
                // No sampled request touched the service this window;
                // there is no observation to score against.
                continue;
            }
            let o_res = s.residence_mean;
            let o_util = report.service_utilization.get(*si).copied().unwrap_or(0.0);
            let denom = p_res.abs() + o_res.abs();
            if denom > 0.0 {
                smape_sum += 2.0 * (p_res - o_res).abs() / denom;
                smape_n += 1;
            }
            // The network term is audited only where it exists: with no
            // priced topology both sides are exactly 0.0 and the row
            // (and the rolling deque) stays empty, as before.
            let o_net = s.net_mean;
            let net_audited = *p_net > 0.0 || o_net > 0.0;
            if net_audited {
                let net_denom = p_net.abs() + o_net.abs();
                if net_denom > 0.0 {
                    net_smape_sum += 2.0 * (p_net - o_net).abs() / net_denom;
                    net_smape_n += 1;
                }
            }
            services.push(ServiceDrift {
                service: name.clone(),
                predicted_residence: *p_res,
                observed_residence: o_res,
                residence_error: if o_res > 0.0 {
                    (p_res - o_res) / o_res
                } else {
                    0.0
                },
                predicted_utilization: *p_util,
                observed_utilization: o_util,
                utilization_error: p_util - o_util,
                samples: s.samples,
                predicted_network: net_audited.then_some(*p_net),
                observed_network: net_audited.then_some(o_net),
            });
        }
        if services.is_empty() {
            return None;
        }
        if smape_n > 0 {
            if self.drift_smape.len() == Self::DRIFT_SMAPE_WINDOW {
                self.drift_smape.pop_front();
            }
            self.drift_smape.push_back(smape_sum / smape_n as f64);
        }
        if net_smape_n > 0 {
            if self.net_smape.len() == Self::DRIFT_SMAPE_WINDOW {
                self.net_smape.pop_front();
            }
            self.net_smape.push_back(net_smape_sum / net_smape_n as f64);
        }
        let rolling_smape = (!self.drift_smape.is_empty())
            .then(|| self.drift_smape.iter().sum::<f64>() / self.drift_smape.len() as f64);
        let network_rolling_smape = (!self.net_smape.is_empty())
            .then(|| self.net_smape.iter().sum::<f64>() / self.net_smape.len() as f64);
        Some(DriftRecord {
            predicted_window: pred.window,
            services,
            rolling_smape,
            network_rolling_smape,
        })
    }

    /// Knowledge: solves the planned configuration once more and records
    /// its per-station residence (per-entry residences weighted by entry
    /// throughput) and utilisation, for the next window's audit.
    fn predict_stations(
        &self,
        evaluator: &mut CandidateEvaluator<'_>,
        planned: &DecisionVector,
    ) -> Option<StationPrediction> {
        let services = evaluator
            .with_solution(planned, |model, sol| {
                self.binding
                    .scalable()
                    .map(|s| {
                        let (mut weighted, mut thru, mut plain, mut n) = (0.0, 0.0, 0.0, 0usize);
                        for (ei, e) in model.entries().iter().enumerate() {
                            if e.task == s.task {
                                weighted += sol.entry_residence[ei] * sol.entry_throughput[ei];
                                thru += sol.entry_throughput[ei];
                                plain += sol.entry_residence[ei];
                                n += 1;
                            }
                        }
                        let residence = if thru > 0.0 {
                            weighted / thru
                        } else if n > 0 {
                            plain / n as f64
                        } else {
                            0.0
                        };
                        // Predicted network transit into the service per
                        // visit: the throughput-weighted `net_delay` its
                        // callers pay, normalised by the service's own
                        // throughput. Exactly 0.0 without a priced
                        // topology (every `net_delay` is 0.0).
                        let mut net_in = 0.0;
                        for (ci, ce) in model.entries().iter().enumerate() {
                            for call in &ce.calls {
                                if model.entries()[call.target.0].task == s.task {
                                    net_in += sol.entry_throughput[ci] * call.mean * call.net_delay;
                                }
                            }
                        }
                        (
                            s.name.clone(),
                            s.service.0,
                            residence,
                            sol.task_utilization(s.task),
                            if thru > 0.0 { net_in / thru } else { 0.0 },
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .ok()?;
        Some(StationPrediction {
            window: self.window - 1,
            services,
        })
    }

    /// The knowledge base.
    pub fn binding(&self) -> &ModelBinding {
        &self.binding
    }

    /// Builds the per-window operator explanation.
    fn explain(
        &self,
        evaluator: &mut CandidateEvaluator<'_>,
        current: &DecisionVector,
        planned: &DecisionVector,
    ) -> Option<String> {
        use atom_lqn::bottleneck::analyze;
        let mut text = evaluator
            .with_solution(current, |observed, sol| {
                let report = analyze(observed, sol);
                let mut text = String::new();
                for &root in &report.root_bottlenecks {
                    text.push_str(&format!(
                        "root bottleneck: {} (util {:.0}%)",
                        observed.task(root).name,
                        sol.task_utilization(root) * 100.0
                    ));
                    let starved: Vec<&str> = report
                        .pressures
                        .iter()
                        .filter(|p| p.starved_by == Some(root))
                        .map(|p| observed.task(p.task).name.as_str())
                        .collect();
                    if !starved.is_empty() {
                        text.push_str(&format!(", starving {}", starved.join(", ")));
                    }
                    text.push_str("; ");
                }
                if report.root_bottlenecks.is_empty() {
                    text.push_str("no saturated service; ");
                }
                text
            })
            .ok()?;
        let mut changes = Vec::new();
        for s in self.binding.scalable() {
            if let (Some(new), Some(old)) = (planned.get(s.task), current.get(s.task)) {
                if new != old {
                    changes.push(format!(
                        "{}: {}x{:.2} -> {}x{:.2}",
                        s.name,
                        old.replicas,
                        old.share(),
                        new.replicas,
                        new.share()
                    ));
                }
            }
        }
        if changes.is_empty() {
            text.push_str("keeping the current configuration");
        } else {
            text.push_str(&format!("plan: {}", changes.join(", ")));
        }
        text.push_str(&format!(" [{}]", evaluator.stats()));
        Some(text)
    }

    /// Reads the currently-executed decision out of a window report,
    /// snapped onto the actuation lattice (observed shares come from the
    /// actuator, so they already lie on the grid; snapping makes the
    /// read robust to measurement jitter).
    fn current_decision(&self, report: &WindowReport) -> DecisionVector {
        let mut current = DecisionVector::new();
        for s in self.binding.scalable() {
            let si = s.service.0;
            let replicas = report.service_replicas.get(si).copied().unwrap_or(1).max(1);
            let share = report.service_shares.get(si).copied().unwrap_or(1.0);
            current.set(s.task, replicas, share_index(share));
        }
        current
    }

    /// Whether the actuator state in `report` reflects `action` (the
    /// configured replica count matches and the share is on the same
    /// lattice point).
    fn action_applied(report: &WindowReport, action: &ScaleAction) -> bool {
        let si = action.service.0;
        report.service_replicas.get(si).copied() == Some(action.replicas)
            && report
                .service_shares
                .get(si)
                .is_some_and(|&s| (s - action.share).abs() < 1e-9)
    }

    /// Combines the last trusted scrape counters with the fresh report's
    /// orchestrator state: during a monitor dropout the counters are
    /// garbage but replica counts, shares, and population gauges come
    /// from the control plane and stay exact.
    fn merge_trusted(trusted: &WindowReport, fresh: &WindowReport) -> WindowReport {
        let mut merged = trusted.clone();
        merged.start = fresh.start;
        merged.end = fresh.end;
        merged.service_replicas = fresh.service_replicas.clone();
        merged.service_ready_replicas = fresh.service_ready_replicas.clone();
        merged.service_shares = fresh.service_shares.clone();
        merged.service_availability = fresh.service_availability.clone();
        merged.service_alloc_cores = fresh.service_alloc_cores.clone();
        merged.avg_users = fresh.avg_users;
        merged.users_at_end = fresh.users_at_end;
        merged.peak_in_system = fresh.peak_in_system;
        merged.avg_in_system = fresh.avg_in_system;
        merged.monitor_dropout_fraction = fresh.monitor_dropout_fraction;
        merged.failed_actuations = fresh.failed_actuations;
        merged
    }

    /// Reconciles previously-issued actions against the actuator state:
    /// confirmed actions are dropped, unconfirmed ones are re-issued
    /// with a bounded retry budget or abandoned. Returns the actions to
    /// re-issue plus the affected service names (for the decision
    /// journal); appends operator notes for both outcomes.
    fn reconcile_pending(&mut self, report: &WindowReport, notes: &mut Vec<String>) -> Reconciled {
        let mut rec = Reconciled::default();
        for p in std::mem::take(&mut self.pending) {
            if Self::action_applied(report, &p.action) {
                continue;
            }
            if report.end < p.due - 1e-9 {
                // Still in flight: the actuation delay has not elapsed,
                // so absence from the actuator state proves nothing.
                self.pending.push(p);
                continue;
            }
            let service = self.service_name(p.action.service);
            if p.retries_left > 0 {
                notes.push(format!(
                    "re-issuing dropped [{}] ({} retries left)",
                    p.action,
                    p.retries_left - 1
                ));
                self.pending.push(PendingAction {
                    action: p.action,
                    retries_left: p.retries_left - 1,
                    due: report.end + self.config.actuation_delay,
                });
                rec.reissued.push(service);
                rec.reissue.push(p.action);
            } else {
                notes.push(format!(
                    "abandoning [{}] after repeated actuation failures",
                    p.action
                ));
                rec.abandoned.push(service);
            }
        }
        rec
    }

    /// The display name of a service in the knowledge base (falls back
    /// to the raw id for services outside the binding).
    fn service_name(&self, service: atom_cluster::ServiceId) -> String {
        self.binding
            .services
            .iter()
            .find(|s| s.service == service)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("service-{}", service.0))
    }

    /// Per-service demand estimates as written into `model` (mean over
    /// the service's entries), for the journal's analyze phase.
    fn demands_of(&self, model: &LqnModel) -> Vec<ServiceDemand> {
        self.binding
            .scalable()
            .map(|s| {
                let (sum, n) = model
                    .entries()
                    .iter()
                    .filter(|e| e.task == s.task)
                    .fold((0.0, 0usize), |(a, n), e| (a + e.demand, n + 1));
                ServiceDemand {
                    service: s.name.clone(),
                    demand: if n > 0 { sum / n as f64 } else { 0.0 },
                }
            })
            .collect()
    }

    /// Scale actions as journal entries (plain names, no ids).
    fn as_chosen(&self, actions: &[ScaleAction]) -> Vec<ChosenAction> {
        actions
            .iter()
            .map(|a| ChosenAction {
                service: self.service_name(a.service),
                replicas: a.replicas as u64,
                share: a.share,
            })
            .collect()
    }

    /// Analyze (proactive mode): feeds the window's observed load to the
    /// forecaster ensemble and predicts the demand at the moment actions
    /// issued *now* will have taken effect. Returns `None` on the
    /// reactive path, on degraded windows (their counters would poison
    /// the models), or while history is shorter than `min_history`.
    ///
    /// The guardrails live here: a forecast whose answering model scores
    /// a rolling sMAPE above `max_smape` is discarded (`fallback`), and
    /// an accepted one is clamped to `[observed, observed*(1+envelope)]`
    /// — in particular it is never *below* the observation, so a
    /// forecast alone can never trigger a scale-down.
    fn forecast_demand(
        &mut self,
        analysis: &WindowReport,
        degraded: bool,
        notes: &mut Vec<String>,
    ) -> Option<ForecastRecord> {
        let cfg = self.config.forecast.clone();
        let ensemble = self.ensemble.as_mut()?;
        if degraded {
            notes.push("monitor degraded: forecaster paused this window".into());
            return None;
        }
        let observed = analysis.users_at_end as f64;
        ensemble.observe(observed);
        self.forecast_history += 1;
        if self.forecast_history < cfg.min_history.max(1) {
            return None;
        }
        let span = analysis.duration();
        if span <= 0.0 {
            return None;
        }
        // The horizon is how long a scale-up takes to land *here*, as
        // measured (issue-to-ready p95); before any scale-up completes
        // the configured actuation delay is the best estimate.
        let horizon = analysis
            .scale_latency
            .map(|s| s.p95)
            .unwrap_or(self.config.actuation_delay)
            .max(0.0);
        let f = ensemble.forecast(horizon / span)?;
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

    /// The observed window re-expressed at the predicted load: the same
    /// traffic shape, `planned / observed` times larger. Scales exactly
    /// the load fields the analyzer reads (population gauges, peaks,
    /// throughput); actuator state (replicas, shares, availability) is
    /// left untouched, and the request *mix* is a ratio so scaling the
    /// counts uniformly would not change it.
    fn scale_report(analysis: &WindowReport, planned: f64) -> WindowReport {
        let observed = analysis.users_at_end as f64;
        if observed <= 0.0 || planned <= observed {
            return analysis.clone();
        }
        let factor = planned / observed;
        let mut r = analysis.clone();
        r.users_at_end = planned.round() as usize;
        r.avg_users *= factor;
        r.peak_arrival_rate *= factor;
        r.peak_in_system *= factor;
        r.avg_in_system *= factor;
        r.total_tps *= factor;
        for tps in &mut r.feature_tps {
            *tps *= factor;
        }
        r
    }

    /// Appends the degraded-window notes to whatever explanation the
    /// planning pipeline produced.
    fn set_explanation(&mut self, base: Option<String>, notes: Vec<String>) {
        self.last_explanation = match (base, notes.is_empty()) {
            (Some(b), true) => Some(b),
            (Some(b), false) => Some(format!("{b} | {}", notes.join("; "))),
            (None, true) => None,
            (None, false) => Some(notes.join("; ")),
        };
    }
}

impl Autoscaler for Atom {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, report: &WindowReport) -> Vec<ScaleAction> {
        self.window += 1;
        let degraded = report.degraded(self.config.max_dropout);
        // The journal record grows with each MAPE-K phase; every return
        // path below finishes it. Assembled only from values the
        // decision computes anyway, so journaling stays inert.
        let mut record = DecisionRecord {
            window: self.window - 1,
            time: report.end,
            scaler: self.name.clone(),
            snapshot: snapshot_of(report, degraded),
            demands: Vec::new(),
            evaluator: None,
            ga: None,
            chosen: Vec::new(),
            actuation: ActuationOutcome::hold("unreached"),
            forecast: None,
            drift: None,
        };
        // Knowledge: score last window's station predictions against the
        // span aggregates that observed them (a no-op, and `None` in the
        // journal, whenever span sampling is off).
        record.drift = self.audit_model(report);
        let mut notes = Vec::new();
        if report.failed_actuations > 0 {
            notes.push(format!(
                "{} scaling batch(es) rejected by the orchestration API",
                report.failed_actuations
            ));
        }
        let reconciled = self.reconcile_pending(report, &mut notes);
        let Reconciled {
            reissue,
            reissued,
            abandoned,
        } = reconciled;

        // A degraded window's scrape counters under-report; analyzing
        // them would fit the model to phantom idleness. Fall back to the
        // last trusted telemetry (merged with fresh actuator state), and
        // while in-flight corrections are still unconfirmed, only
        // re-issue them — re-planning can wait for the monitor.
        let finish = |this: &mut Self,
                      record: DecisionRecord,
                      notes: Vec<String>,
                      actions: Vec<ScaleAction>|
         -> Vec<ScaleAction> {
            let mut record = record;
            record.actuation = ActuationOutcome {
                issued: this.as_chosen(&actions),
                reissued: reissued.clone(),
                abandoned: abandoned.clone(),
                held: actions.is_empty(),
                reason: (!notes.is_empty()).then(|| notes.join("; ")),
            };
            this.last_record = Some(record);
            actions
        };
        let analysis = if degraded {
            if !reissue.is_empty() {
                self.set_explanation(None, notes.clone());
                return finish(self, record, notes, reissue);
            }
            match self.last_trusted.as_ref() {
                Some(trusted) => {
                    notes.push(format!(
                        "monitor dark {:.0}% of the window: re-planning from last trusted telemetry",
                        report.monitor_dropout_fraction * 100.0
                    ));
                    Self::merge_trusted(trusted, report)
                }
                None => {
                    notes.push(
                        "monitor dark with no trusted telemetry: holding configuration".into(),
                    );
                    self.set_explanation(None, notes.clone());
                    return finish(self, record, notes, reissue);
                }
            }
        } else {
            self.last_trusted = Some(report.clone());
            report.clone()
        };

        // Surface ready-replica deficits the plan should know about:
        // replicas still starting up (or restarting after a fault) serve
        // nothing yet, but they are configured state — re-ordering them
        // would only reset their start-up clock.
        for s in self.binding.scalable() {
            let si = s.service.0;
            let live = analysis.service_replicas.get(si).copied().unwrap_or(0);
            let ready = analysis
                .service_ready_replicas
                .get(si)
                .copied()
                .unwrap_or(live);
            if ready < live {
                notes.push(format!(
                    "{}: {}/{} replicas ready (rest starting)",
                    s.name, ready, live
                ));
            }
        }

        // Analyze (proactive mode): forecast the demand at the moment
        // this window's actions will have landed, and build the plan
        // against the *predicted* snapshot. The current-configuration
        // read and the zero-users hold below still use the observed
        // `analysis` — only what we plan *for* changes.
        record.forecast = self.forecast_demand(&analysis, degraded, &mut notes);
        let planning = match &record.forecast {
            Some(f) if !f.fallback && f.planned > f.observed => {
                Self::scale_report(&analysis, f.planned)
            }
            _ => analysis.clone(),
        };

        // Analyze: write N and the mix into the model.
        let effective_report = if self.config.peak_monitoring {
            planning
        } else {
            // Ablation: hide the sub-interval peak from the analyzer.
            let mut r = planning;
            r.peak_arrival_rate = 0.0;
            r
        };
        let mut model = match self.analyzer.instantiate(&self.binding, &effective_report) {
            Ok(m) => m,
            Err(_) => {
                // Inconsistent binding: do nothing beyond the re-issues.
                self.set_explanation(None, notes.clone());
                notes.push("model instantiation failed: holding configuration".into());
                return finish(self, record, notes, reissue);
            }
        };
        if self.config.online_demands && !degraded {
            self.calibrator.observe(&self.binding, report);
            self.calibrator.apply(&self.binding, &mut model);
        }
        record.demands = self.demands_of(&model);
        if analysis.users_at_end == 0 {
            self.set_explanation(None, notes.clone());
            notes.push("zero users at window end: nothing to serve".into());
            return finish(self, record, notes, reissue);
        }
        let current = self.current_decision(&analysis);

        // One evaluation layer per window: the GA, the planner's quick
        // fixes, and the diagnostics below share its solve cache.
        let mut evaluator = CandidateEvaluator::new(&self.binding, &model, &self.config.objective);

        // Optimize: GA over (r, s), seeded per window for determinism.
        let ga = GaOptions {
            seed: self
                .config
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(self.window),
            ..self.config.ga
        };
        let found = optimizer::search_with(&mut evaluator, ga);

        // Plan: quick fixes + conservatism.
        let planner = Planner {
            mode: self.config.planner_mode,
            quick_fixes: self.config.quick_fixes,
            ..Planner::default()
        };
        let planned = planner.plan_with(&self.binding, &mut evaluator, found.decision, &current);

        // Diagnose the observed state for operators: solve the model at
        // the *current* configuration and run the layered-bottleneck
        // analysis (paper §V-B / Fig. 11).
        let base = self.explain(&mut evaluator, &current, &planned);

        // Journal the plan phase: the whole window's evaluation counters
        // (GA + quick fixes + diagnostics share the evaluator), the GA's
        // convergence trace, and the planned configuration.
        record.evaluator = Some(evaluator.stats().to_counters());
        record.ga = Some(found.ga.to_generations(found.evaluations));
        record.chosen = self
            .binding
            .scalable()
            .filter_map(|s| {
                planned.get(s.task).map(|d| ChosenAction {
                    service: s.name.clone(),
                    replicas: d.replicas as u64,
                    share: d.share(),
                })
            })
            .collect();

        // Knowledge: when spans feed the monitor, predict the planned
        // configuration's station behaviour so the next audited window
        // can score the model. With sampling off nothing solves and the
        // decision path stays byte-identical.
        if report.span_stats.is_some() {
            self.last_prediction = self.predict_stations(&mut evaluator, &planned);
        }

        // Execute: emit actions only where the decision changed — an
        // exact lattice comparison, no epsilon.
        let mut actions = Vec::new();
        for s in self.binding.scalable() {
            let (Some(new), Some(old)) = (planned.get(s.task), current.get(s.task)) else {
                continue;
            };
            if new != old {
                actions.push(ScaleAction {
                    service: s.service,
                    replicas: new.replicas,
                    share: new.share(),
                });
            }
        }
        // Track what we issue so the next window can confirm it; a fresh
        // plan for a service supersedes any retry still pending for it.
        for a in &actions {
            self.pending.retain(|p| p.action.service != a.service);
            self.pending.push(PendingAction {
                action: *a,
                retries_left: self.config.max_actuation_retries,
                due: report.end + self.config.actuation_delay,
            });
        }
        for a in reissue {
            if !actions.iter().any(|x| x.service == a.service) {
                actions.push(a);
            }
        }
        self.set_explanation(base, notes.clone());
        finish(self, record, notes, actions)
    }

    fn actuation_delay(&self) -> f64 {
        self.config.actuation_delay
    }

    fn explain_last(&self) -> Option<String> {
        self.last_explanation.clone()
    }

    fn take_decision_record(&mut self) -> Option<DecisionRecord> {
        self.last_record.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::ServiceBinding;
    use atom_cluster::ServiceId;
    use atom_lqn::LqnModel;

    fn binding(share: f64) -> ModelBinding {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", 8, 1.0);
        let web = m.add_task("web", p, 64, 1).unwrap();
        m.set_cpu_share(web, Some(share)).unwrap();
        let page = m.add_entry("page", web, 0.01).unwrap();
        let c = m.add_reference_task("users", 100, 2.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
            .unwrap();
        ModelBinding {
            model: m,
            client: c,
            services: vec![ServiceBinding {
                name: "web".into(),
                service: ServiceId(0),
                task: web,
                scalable: true,
                max_replicas: 8,
                share_bounds: (0.1, 1.0),
            }],
            feature_entries: vec![page],
        }
    }

    fn report(users: usize, replicas: usize, share: f64) -> WindowReport {
        WindowReport::for_span(0.0, 300.0)
            .with_feature_counts(vec![1000])
            .with_feature_tps(vec![1000.0 / 300.0])
            .with_feature_response(vec![0.05])
            .with_service_utilization(vec![0.9])
            .with_service_busy_cores(vec![share * 0.9])
            .with_service_alloc_cores(vec![replicas as f64 * share])
            .with_service_replicas(vec![replicas])
            .with_service_shares(vec![share])
            .with_server_utilization(vec![0.5])
            .with_total_tps(1000.0 / 300.0)
            .with_avg_users(users as f64)
            .with_users_at_end(users)
    }

    /// Shifts a report to the `k`-th 300-second window, as successive
    /// calls of a real control loop would see (the pending-action
    /// reconciler compares window ends against actuation due times).
    fn at_window(mut r: WindowReport, k: usize) -> WindowReport {
        r.start = 300.0 * k as f64;
        r.end = 300.0 * (k + 1) as f64;
        r
    }

    fn fast_config() -> AtomConfig {
        let mut obj = ObjectiveSpec::balanced(1);
        obj.server_capacity = vec![(0, 8.0)];
        let mut cfg = AtomConfig::new(obj);
        cfg.ga.budget = atom_ga::Budget::Evaluations(400);
        cfg
    }

    #[test]
    fn scales_up_under_heavy_load() {
        // Current: 1 replica × 0.2 share = 0.2 cores; offered load
        // 2000/2 s × 0.01 = 10 cores worth of demand.
        let mut atom = Atom::new(binding(0.2), fast_config());
        let actions = atom.decide(&report(2000, 1, 0.2));
        assert_eq!(actions.len(), 1, "must rescale the web service");
        let a = actions[0];
        let capacity = a.replicas as f64 * a.share;
        assert!(capacity > 2.0, "capacity {capacity} too small");
    }

    #[test]
    fn leaves_adequate_config_mostly_alone() {
        // 100 users / 2 s = 50/s → 0.5 cores needed; current 1×1.0 is
        // fine. ATOM may trim the share, but must not blow the
        // allocation up.
        let mut atom = Atom::new(binding(1.0), fast_config());
        let actions = atom.decide(&report(100, 1, 1.0));
        let total: f64 = actions
            .iter()
            .map(|a| a.replicas as f64 * a.share)
            .sum::<f64>();
        assert!(
            actions.is_empty() || total <= 2.0,
            "should not over-allocate: {actions:?}"
        );
    }

    #[test]
    fn zero_users_is_a_noop() {
        let mut atom = Atom::new(binding(0.5), fast_config());
        assert!(atom.decide(&report(0, 1, 0.5)).is_empty());
    }

    #[test]
    fn names_follow_planner_mode() {
        let mk = |mode| {
            let mut c = fast_config();
            c.planner_mode = mode;
            Atom::new(binding(0.5), c).name().to_string()
        };
        assert_eq!(mk(PlannerMode::Standard), "ATOM");
        assert_eq!(
            mk(PlannerMode::ConservativeTps {
                min_improvement: 0.05
            }),
            "ATOM-T"
        );
        assert_eq!(
            mk(PlannerMode::ConservativeShare {
                max_relative_change: 0.25
            }),
            "ATOM-S"
        );
    }

    #[test]
    fn explanation_is_produced_after_decide() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        assert_eq!(atom.explain_last(), None, "no decision yet");
        let _ = atom.decide(&report(2000, 1, 0.2));
        let text = atom.explain_last().expect("explanation after decide");
        assert!(
            text.contains("bottleneck") || text.contains("plan") || text.contains("keeping"),
            "unexpected explanation: {text}"
        );
    }

    #[test]
    fn actuation_delay_is_config() {
        let atom = Atom::new(binding(0.5), fast_config());
        assert_eq!(atom.actuation_delay(), 150.0);
    }

    #[test]
    fn decision_record_covers_the_full_mape_loop() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        assert!(atom.take_decision_record().is_none(), "no decision yet");
        let actions = atom.decide(&report(2000, 1, 0.2));
        let rec = atom.take_decision_record().expect("record after decide");
        assert!(atom.take_decision_record().is_none(), "take() drains");
        assert_eq!((rec.window, rec.scaler.as_str()), (0, "ATOM"));
        assert_eq!(rec.snapshot.users, 2000);
        assert!(!rec.snapshot.degraded);
        assert_eq!(rec.demands.len(), 1, "one scalable service");
        assert!((rec.demands[0].demand - 0.01).abs() < 1e-12);
        let ev = rec.evaluator.expect("evaluator counters");
        assert!(ev.solves > 0 && ev.solver_iterations > 0);
        assert_eq!(ev.candidates, ev.solves + ev.cache_hits);
        let ga = rec.ga.expect("ga stats");
        assert!(ga.generations > 0 && ga.evaluations > 0);
        assert_eq!(ga.best.len(), ga.generations as usize);
        assert_eq!(rec.chosen.len(), 1, "plan covers the scalable service");
        assert_eq!(rec.actuation.issued.len(), actions.len());
        assert_eq!(rec.actuation.issued[0].service, "web");
        assert!(!rec.actuation.held);
    }

    #[test]
    fn dark_window_record_reports_the_hold() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        let dark = report(2000, 1, 0.2).with_monitor_dropout_fraction(0.9);
        assert!(atom.decide(&dark).is_empty());
        let rec = atom.take_decision_record().expect("record");
        assert!(rec.snapshot.degraded);
        assert!(rec.actuation.held);
        let reason = rec.actuation.reason.expect("hold reason");
        assert!(reason.contains("no trusted"), "unexpected: {reason}");
        assert!(rec.evaluator.is_none(), "no search ran");
        assert!(rec.ga.is_none());
    }

    /// A binding whose decision space is replicas-only (fixed share), so
    /// the optimum under heavy load is deterministically "max replicas".
    fn fixed_share_binding(share: f64, max_replicas: usize) -> ModelBinding {
        let mut b = binding(share);
        b.services[0].max_replicas = max_replicas;
        b.services[0].share_bounds = (share, share);
        b
    }

    #[test]
    fn no_duplicate_scale_up_while_replicas_start() {
        // Heavy load; the controller already ordered 4 replicas and the
        // orchestrator confirmed them, but only 1 is ready so far. The
        // decision baseline must be the *configured* state — diffing
        // against the ready count would re-issue the same scale-up and
        // reset the start-up clocks.
        let mut atom = Atom::new(fixed_share_binding(0.5, 4), fast_config());
        let starting = report(2000, 4, 0.5).with_service_ready_replicas(vec![1]);
        let actions = atom.decide(&starting);
        assert!(
            actions.is_empty(),
            "must not re-order the in-flight scale-up: {actions:?}"
        );
        let text = atom.explain_last().expect("explanation");
        assert!(text.contains("1/4"), "should surface the deficit: {text}");
    }

    #[test]
    fn dark_window_without_history_holds_position() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        let dark = report(2000, 1, 0.2).with_monitor_dropout_fraction(0.9);
        assert!(atom.decide(&dark).is_empty());
        let text = atom.explain_last().expect("explanation");
        assert!(text.contains("no trusted"), "unexpected: {text}");
    }

    #[test]
    fn dark_window_replans_from_trusted_telemetry() {
        let mut atom = Atom::new(fixed_share_binding(0.2, 8), fast_config());
        // Healthy overloaded window: trusted, and the plan scales up.
        let first = atom.decide(&report(2000, 1, 0.2));
        assert_eq!(first.len(), 1);
        // The action applied; then the monitor went dark. The scrape
        // counters read zero, but the fallback telemetry still describes
        // the overload, so the controller keeps reasoning instead of
        // flying blind.
        let dark = at_window(
            report(2000, first[0].replicas, 0.2)
                .with_feature_counts(vec![0])
                .with_feature_tps(vec![0.0])
                .with_total_tps(0.0)
                .with_monitor_dropout_fraction(1.0),
            1,
        );
        let _ = atom.decide(&dark);
        let text = atom.explain_last().expect("explanation");
        assert!(text.contains("trusted"), "unexpected: {text}");
    }

    #[test]
    fn dropped_actions_are_reissued_then_abandoned() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        let heavy = report(2000, 1, 0.2);
        let first = atom.decide(&heavy);
        assert_eq!(first.len(), 1);
        // Every subsequent window is dark AND the actuator never applied
        // the order: once the actuation delay has elapsed the controller
        // re-issues it verbatim, with a bounded retry budget (planning
        // waits while corrections are in flight).
        let dark = |k: usize| {
            at_window(
                heavy
                    .clone()
                    .with_monitor_dropout_fraction(1.0)
                    .with_failed_actuations(1),
                k,
            )
        };
        for round in 1..=3 {
            let again = atom.decide(&dark(round));
            assert_eq!(again, first, "round {round} must re-issue the order");
            let text = atom.explain_last().expect("explanation");
            assert!(text.contains("re-issuing"), "round {round}: {text}");
            let rec = atom.take_decision_record().expect("record");
            assert_eq!(rec.actuation.reissued, vec!["web".to_string()]);
            assert!(rec.actuation.abandoned.is_empty());
        }
        // Retry budget exhausted: the order is abandoned and the
        // controller goes back to planning (from trusted telemetry). The
        // planner may well *want* the same scale-up — that is a fresh
        // plan with a fresh retry budget, not a blind fourth retry — so
        // we only assert the abandonment is surfaced.
        let _ = atom.decide(&dark(4));
        let text = atom.explain_last().expect("explanation");
        assert!(text.contains("abandoning"), "unexpected: {text}");
        let rec = atom.take_decision_record().expect("record");
        assert_eq!(rec.actuation.abandoned, vec!["web".to_string()]);
    }

    fn proactive_config() -> AtomConfig {
        let mut cfg = fast_config();
        cfg.forecast = ForecastConfig::enabled();
        cfg.forecast.min_history = 2;
        cfg
    }

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
    fn proactive_name_gets_the_suffix() {
        assert_eq!(Atom::new(binding(0.5), proactive_config()).name(), "ATOM-P");
        assert_eq!(Atom::new(binding(0.5), fast_config()).name(), "ATOM");
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
        assert_eq!(atom.forecast_history, 1, "dark window not observed");
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

    /// A report whose monitor was fed by 1%-sampled spans: every service
    /// observed with plausible residence aggregates.
    fn spanful_report(users: usize, replicas: usize, share: f64, mean: f64) -> WindowReport {
        report(users, replicas, share).with_span_stats(Some(vec![atom_cluster::ServiceSpanStats {
            samples: 40,
            queue_wait_p50: mean * 0.2,
            queue_wait_p95: mean * 0.6,
            residence_p50: mean * 0.9,
            residence_p95: mean * 1.8,
            residence_mean: mean,
            net_mean: 0.0,
        }]))
    }

    #[test]
    fn span_stats_drive_a_model_audit() {
        let mut atom = Atom::new(binding(0.5), fast_config());
        let _ = atom.decide(&at_window(spanful_report(400, 1, 0.5, 0.03), 0));
        let rec = atom.take_decision_record().expect("record");
        assert!(rec.drift.is_none(), "no prediction existed to score yet");
        let _ = atom.decide(&at_window(spanful_report(400, 1, 0.5, 0.03), 1));
        let rec = atom.take_decision_record().expect("record");
        let drift = rec.drift.expect("second window audits the first");
        assert_eq!(drift.predicted_window, 0);
        assert_eq!(drift.services.len(), 1);
        let s = &drift.services[0];
        assert_eq!(s.service, "web");
        assert_eq!(s.samples, 40);
        assert_eq!(s.observed_residence, 0.03);
        assert!(s.predicted_residence.is_finite() && s.predicted_residence > 0.0);
        assert!(s.residence_error.is_finite());
        assert!(
            (s.residence_error - (s.predicted_residence - 0.03) / 0.03).abs() < 1e-12,
            "signed relative error definition"
        );
        assert!(s.utilization_error.is_finite());
        let smape = drift.rolling_smape.expect("rolling drift after one audit");
        assert!((0.0..=2.0).contains(&smape), "sMAPE out of range: {smape}");
        assert!(
            s.predicted_network.is_none() && s.observed_network.is_none(),
            "no priced topology: the network columns stay empty"
        );
        assert!(drift.network_rolling_smape.is_none());
    }

    /// A two-service chain (clients → web → db) whose web→db call pays a
    /// 4 ms network round trip, as `apply_network` would price it for a
    /// cross-rack placement.
    fn netful_binding() -> ModelBinding {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", 8, 1.0);
        let web = m.add_task("web", p, 64, 1).unwrap();
        m.set_cpu_share(web, Some(0.5)).unwrap();
        let page = m.add_entry("page", web, 0.01).unwrap();
        let db = m.add_task("db", p, 64, 1).unwrap();
        m.set_cpu_share(db, Some(0.5)).unwrap();
        let query = m.add_entry("query", db, 0.005).unwrap();
        m.add_call(page, query, 1.0).unwrap();
        m.set_call_net_delay(page, query, 0.004).unwrap();
        let c = m.add_reference_task("users", 100, 2.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
            .unwrap();
        let service = |name: &str, service, task| ServiceBinding {
            name: name.into(),
            service,
            task,
            scalable: true,
            max_replicas: 8,
            share_bounds: (0.1, 1.0),
        };
        ModelBinding {
            model: m,
            client: c,
            services: vec![
                service("web", ServiceId(0), web),
                service("db", ServiceId(1), db),
            ],
            feature_entries: vec![page],
        }
    }

    #[test]
    fn network_term_is_audited_when_priced() {
        let mut atom = Atom::new(netful_binding(), fast_config());
        let stats = |mean: f64, net: f64| atom_cluster::ServiceSpanStats {
            samples: 40,
            queue_wait_p50: mean * 0.2,
            queue_wait_p95: mean * 0.6,
            residence_p50: mean * 0.9,
            residence_p95: mean * 1.8,
            residence_mean: mean,
            net_mean: net,
        };
        let spanful = |k| {
            at_window(
                WindowReport::for_span(0.0, 300.0)
                    .with_feature_counts(vec![1000])
                    .with_feature_tps(vec![1000.0 / 300.0])
                    .with_feature_response(vec![0.05])
                    .with_service_utilization(vec![0.9, 0.5])
                    .with_service_busy_cores(vec![0.45, 0.25])
                    .with_service_alloc_cores(vec![0.5, 0.5])
                    .with_service_replicas(vec![1, 1])
                    .with_service_shares(vec![0.5, 0.5])
                    .with_server_utilization(vec![0.5])
                    .with_total_tps(1000.0 / 300.0)
                    .with_avg_users(400.0)
                    .with_users_at_end(400)
                    .with_span_stats(Some(vec![stats(0.03, 0.0), stats(0.02, 0.005)])),
                k,
            )
        };
        let _ = atom.decide(&spanful(0));
        let _ = atom.take_decision_record();
        let _ = atom.decide(&spanful(1));
        let rec = atom.take_decision_record().expect("record");
        let drift = rec.drift.expect("second window audits the first");
        let web = drift.services.iter().find(|s| s.service == "web").unwrap();
        assert!(
            web.predicted_network.is_none() && web.observed_network.is_none(),
            "roots pay no inbound network, so web has nothing to audit"
        );
        let db = drift.services.iter().find(|s| s.service == "db").unwrap();
        let p = db.predicted_network.expect("db's inbound hop is priced");
        // Every db visit arrives over the 4 ms round trip (1 visit per
        // page), so the throughput-weighted prediction is exactly it.
        assert!((p - 0.004).abs() < 1e-9, "one visit × 4 ms: {p}");
        assert_eq!(db.observed_network, Some(0.005));
        let smape = drift
            .network_rolling_smape
            .expect("rolling network sMAPE after one audit");
        assert!((0.0..=2.0).contains(&smape), "sMAPE out of range: {smape}");
    }

    #[test]
    fn rolling_drift_smape_averages_recent_audits() {
        let mut atom = Atom::new(binding(0.5), fast_config());
        let mut last = None;
        for k in 0..4 {
            let _ = atom.decide(&at_window(spanful_report(400, 1, 0.5, 0.03), k));
            last = atom.take_decision_record().expect("record").drift;
        }
        let drift = last.expect("audited");
        assert_eq!(drift.predicted_window, 2);
        assert!(drift.rolling_smape.is_some());
        assert!(atom.drift_smape.len() <= Atom::DRIFT_SMAPE_WINDOW);
    }

    #[test]
    fn spanless_windows_never_audit_and_stay_inert() {
        // Without span stats the audit journals nothing, predicts
        // nothing, and the decisions are byte-identical to a controller
        // that never had the feature exercised.
        let run = || {
            let mut atom = Atom::new(binding(0.2), fast_config());
            let mut out = Vec::new();
            for (k, n) in [500usize, 1000, 2000].into_iter().enumerate() {
                out.push(atom.decide(&at_window(report(n, 1, 0.2), k)));
                let rec = atom.take_decision_record().expect("record");
                assert!(rec.drift.is_none());
            }
            assert!(atom.last_prediction.is_none());
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_sample_services_are_skipped_by_the_audit() {
        let mut atom = Atom::new(binding(0.5), fast_config());
        let quiet = |k| {
            at_window(
                report(400, 1, 0.5)
                    .with_span_stats(Some(vec![atom_cluster::ServiceSpanStats::empty()])),
                k,
            )
        };
        let _ = atom.decide(&quiet(0));
        let _ = atom.take_decision_record();
        let _ = atom.decide(&quiet(1));
        let rec = atom.take_decision_record().expect("record");
        assert!(
            rec.drift.is_none(),
            "an audit with no observed service journals nothing"
        );
    }

    #[test]
    fn applied_actions_clear_the_pending_queue() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        let first = atom.decide(&report(2000, 1, 0.2));
        assert_eq!(first.len(), 1);
        // The actuator applied the order; nothing is re-issued even when
        // the next window is dark.
        let applied = at_window(
            report(2000, first[0].replicas, first[0].share).with_monitor_dropout_fraction(1.0),
            1,
        );
        let next = atom.decide(&applied);
        assert!(
            next.iter().all(|a| *a != first[0]),
            "confirmed order must not be repeated: {next:?}"
        );
    }
}
