//! The assembled ATOM controller (MAPE-K loop of Fig. 6).
//!
//! [`Atom::decide`] is the loop itself, one call per phase. What a phase
//! remembers between windows lives in the private unit that owns it:
//! [`reconciler`] (issued actions awaiting confirmation), [`forecaster`]
//! (ensemble and guardrails), [`auditor`] (station predictions, rolling
//! drift). Load reaches them as a `LoadView`; actuator state is always
//! read off the fresh report.

mod auditor;
mod forecaster;
mod reconciler;

use atom_cluster::{ScaleAction, ServiceId, WindowReport};
use atom_ga::{Budget, GaOptions};
use atom_lqn::{bottleneck, share_index, DecisionVector, LqnModel, LqnSolution};
use atom_obs::{BottleneckRecord, ChosenAction, DecisionRecord, ServiceDemand};

use crate::analyzer::{LoadView, WorkloadAnalyzer};
use crate::autoscaler::{snapshot_of, Autoscaler};
use crate::binding::ModelBinding;
use crate::calibration::DemandCalibrator;
use crate::evaluator::CandidateEvaluator;
use crate::objective::ObjectiveSpec;
use crate::optimizer;
use crate::planner::{Planner, PlannerMode};

use auditor::Auditor;
pub use forecaster::ForecastConfig;
use forecaster::Forecaster;
use reconciler::Reconciler;

/// Maximum tolerated monitor-dropout fraction before a window is treated
/// as degraded: its scrape-based counters are discarded and the
/// controller falls back to the last trusted telemetry instead of
/// re-fitting the model on under-counted garbage.
const MAX_DROPOUT: f64 = 0.25;

/// Seconds between window end and actions taking effect — ATOM's
/// optimisation + planning latency (paper: ~2.5 min on average). The
/// reconciler waits this long before it calls an action dropped, and
/// the forecaster plans this far ahead until a scale-up is measured.
const ACTUATION_DELAY: f64 = 150.0;

/// Configuration of the ATOM controller.
#[derive(Debug, Clone)]
pub struct AtomConfig {
    /// Objective weights, SLA, and limits (§IV-B).
    pub(crate) objective: ObjectiveSpec,
    /// GA budget and seed; the budget plays the paper's 2-minute bound
    /// (use evaluations for determinism), and each window derives its
    /// own seed from this one.
    pub ga: GaOptions,
    /// Planner conservatism (`Standard`, ATOM-T, ATOM-S).
    pub planner_mode: PlannerMode,
    /// Run the §IV-C planner quick fixes (ablation knob; default on).
    pub quick_fixes: bool,
    /// Use the monitor's peak sub-interval rate for effective-population
    /// sizing (ablation knob; default on — §IV-A, Fig. 13).
    pub peak_monitoring: bool,
    /// Calibrate the model's service demands online from measurements
    /// (the paper's §VII future work; default off = statically profiled
    /// demands, as in the paper).
    pub online_demands: bool,
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
            quick_fixes: true,
            peak_monitoring: true,
            online_demands: false,
            forecast: ForecastConfig::default(),
        }
    }
}

/// The display name of a service in the knowledge base (falls back to
/// the raw id for services outside the binding).
fn service_name(binding: &ModelBinding, service: ServiceId) -> String {
    binding
        .by_service(service)
        .map(|s| s.name.clone())
        .unwrap_or_else(|| format!("service-{}", service.0))
}

/// The journal's diagnosis of a solved configuration: each root
/// bottleneck with its utilisation and the services it starves.
fn bottlenecks(model: &LqnModel, solution: &LqnSolution) -> Vec<BottleneckRecord> {
    let report = bottleneck::analyze(model, solution);
    let name = |task| model.task(task).name.clone();
    report
        .root_bottlenecks
        .iter()
        .map(|&root| BottleneckRecord {
            service: name(root),
            utilization: solution.task_utilization(root),
            starving: report
                .pressures
                .iter()
                .filter(|p| p.starved_by == Some(root))
                .map(|p| name(p.task))
                .collect(),
        })
        .collect()
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
    name: String,
    window: u64,
    analyzer: WorkloadAnalyzer,
    calibrator: DemandCalibrator,
    /// Quick fixes and conservatism, as configured.
    planner: Planner,
    /// Load of the most recent non-degraded window: what a dark window
    /// is analyzed as, under its own gauges.
    trusted: Option<LoadView>,
    reconciler: Reconciler,
    /// `None` when proactive planning is off.
    forecaster: Option<Forecaster>,
    auditor: Auditor,
    /// Journal record of the most recent decision, drained via
    /// [`Autoscaler::take_decision_record`]. Assembled purely from data
    /// the decision already computed — inert by construction.
    last_record: Option<DecisionRecord>,
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
            PlannerMode::ConservativeTps => "ATOM-T",
            PlannerMode::ConservativeShare => "ATOM-S",
        };
        let forecaster = Forecaster::new(&config.forecast);
        let proactive = if forecaster.is_some() { "-P" } else { "" };
        Atom {
            name: format!("{base}{proactive}"),
            analyzer: WorkloadAnalyzer::default(),
            calibrator: DemandCalibrator::new(),
            planner: Planner {
                mode: config.planner_mode,
                quick_fixes: config.quick_fixes,
            },
            window: 0,
            trusted: None,
            reconciler: Reconciler::default(),
            forecaster,
            auditor: Auditor::default(),
            last_record: None,
            binding,
            config,
        }
    }

    /// Monitor: the load this window is planned for, or `None` to hold.
    ///
    /// A degraded window's scrape counters under-report; analyzing them
    /// would fit the model to phantom idleness. It is analyzed as the
    /// last trusted load under its own gauges instead — and while
    /// in-flight corrections are unconfirmed (`reissuing`) they are only
    /// re-issued: re-planning can wait for the monitor.
    fn observe(
        &mut self,
        report: &WindowReport,
        degraded: bool,
        reissuing: bool,
        notes: &mut Vec<String>,
    ) -> Option<LoadView> {
        let load = if !degraded {
            self.trusted.insert(LoadView::of(report)).clone()
        } else if reissuing {
            return None;
        } else if let Some(trusted) = &self.trusted {
            notes.push(format!(
                "monitor dark {:.0}% of the window: re-planning from last trusted telemetry",
                report.monitor_dropout_fraction * 100.0
            ));
            trusted.with_gauges_of(report)
        } else {
            notes.push("monitor dark with no trusted telemetry: holding configuration".into());
            return None;
        };
        // Replicas still starting up (or restarting after a fault) serve
        // nothing yet, but they are configured state: the plan diffs
        // against them, and the operator is told about the deficit.
        for s in self.binding.scalable() {
            let si = s.service.0;
            let live = report.service_replicas.get(si).copied().unwrap_or(0);
            let ready = report.service_ready_replicas.get(si).copied();
            if let Some(ready) = ready.filter(|&r| r < live) {
                notes.push(format!(
                    "{}: {ready}/{live} replicas ready (rest starting)",
                    s.name
                ));
            }
        }
        Some(load)
    }

    /// Analyze: writes `load` — at the forecast's planned level, when
    /// there is one — into the model as `N` and the mix, and journals
    /// the demands. `None` (with the reason noted) when there is nothing
    /// to plan: the binding is inconsistent, or nobody is there to serve.
    fn analyze(
        &mut self,
        mut load: LoadView,
        report: &WindowReport,
        degraded: bool,
        record: &mut DecisionRecord,
        notes: &mut Vec<String>,
    ) -> Option<LqnModel> {
        if let Some(f) = &record.forecast {
            load.scale_to(f.planned); // the observation itself on a fallback
        }
        if !self.config.peak_monitoring {
            // Ablation: hide the sub-interval peak from the analyzer.
            load.peak_arrival_rate = 0.0;
        }
        let Ok(mut model) = self.analyzer.instantiate(&self.binding, &load) else {
            notes.push("model instantiation failed: holding configuration".into());
            return None;
        };
        if self.config.online_demands && !degraded {
            self.calibrator.observe(&self.binding, report);
            self.calibrator.apply(&self.binding, &mut model);
        }
        record.demands = self.demands_of(&model);
        if load.users == 0 {
            notes.push("zero users at window end: nothing to serve".into());
            return None;
        }
        Some(model)
    }

    /// This window's GA options: the configured ones, seeded per window
    /// from the configured seed for determinism. Call after the window
    /// counter has advanced.
    fn ga_options(&self) -> GaOptions {
        let seed = self.config.ga.seed.wrapping_mul(0x9E37_79B9);
        GaOptions {
            seed: seed.wrapping_add(self.window),
            ..self.config.ga
        }
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

    /// A configuration as journal entries, one per scalable service.
    fn entries(&self, decision: &DecisionVector) -> Vec<ChosenAction> {
        self.binding
            .scalable()
            .filter_map(|s| {
                decision.get(s.task).map(|d| ChosenAction {
                    service: s.name.clone(),
                    replicas: d.replicas as u64,
                    share: d.share(),
                })
            })
            .collect()
    }

    /// Execute: actions only where the decision changed — an exact
    /// lattice comparison, no epsilon.
    fn changes(&self, planned: &DecisionVector, current: &DecisionVector) -> Vec<ScaleAction> {
        self.binding
            .scalable()
            .filter_map(|s| {
                let (new, old) = (planned.get(s.task)?, current.get(s.task)?);
                (new != old).then(|| ScaleAction {
                    service: s.service,
                    replicas: new.replicas,
                    share: new.share(),
                })
            })
            .collect()
    }

    /// The one exit of every window, plan or hold: the journal's
    /// actuation outcome is written here, its reason from the `notes`.
    fn finish(
        &mut self,
        mut record: DecisionRecord,
        notes: Vec<String>,
        actions: Vec<ScaleAction>,
    ) -> Vec<ScaleAction> {
        record.actuation.issued = actions
            .iter()
            .map(|a| ChosenAction {
                service: service_name(&self.binding, a.service),
                replicas: a.replicas as u64,
                share: a.share,
            })
            .collect();
        record.actuation.held = actions.is_empty();
        record.actuation.reason = (!notes.is_empty()).then(|| notes.join("; "));
        self.last_record = Some(record);
        actions
    }
}

impl Autoscaler for Atom {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, report: &WindowReport) -> Vec<ScaleAction> {
        let window = self.window;
        self.window += 1;
        let degraded = report.degraded(MAX_DROPOUT);
        // The journal record grows with each phase and `finish` closes it;
        // it holds only values the decision computes anyway (inert).
        let snapshot = snapshot_of(report, degraded);
        let mut record = DecisionRecord::new(window, report.end, self.name.as_str(), snapshot);
        let mut notes = Vec::new();
        let current = self.current_decision(report);
        record.incumbent = self.entries(&current);
        // Knowledge, closing last window's loop: score its predictions.
        record.drift = self.auditor.audit(report);
        // Monitor: what became of earlier orders, and this window's load.
        let reissue =
            self.reconciler
                .reconcile(report, &self.binding, &mut record.actuation, &mut notes);
        let plan = 'hold: {
            let Some(load) = self.observe(report, degraded, !reissue.is_empty(), &mut notes) else {
                break 'hold None;
            };
            // Analyze: forecast the demand at the moment this window's
            // actions will have landed, and write it into the model.
            record.forecast = self
                .forecaster
                .as_mut()
                .and_then(|f| f.demand(&load, report, degraded, &mut notes));
            let Some(model) = self.analyze(load, report, degraded, &mut record, &mut notes) else {
                break 'hold None;
            };
            // Plan: GA over (r, s), then quick fixes and conservatism —
            // on one evaluator, so search, planner and diagnostics share
            // its solve cache.
            let mut evaluator =
                CandidateEvaluator::new(&self.binding, &model, &self.config.objective);
            let found = optimizer::search_with(&mut evaluator, self.ga_options());
            let planned =
                self.planner
                    .plan_with(&self.binding, &mut evaluator, found.decision, &current);
            // The layered-bottleneck diagnosis of the incumbent (§V-B,
            // Fig. 11); when its solve fails, the reason says so.
            record.bottlenecks = evaluator
                .with_solution(&current, bottlenecks)
                .map_err(|e| notes.push(format!("no diagnosis, the incumbent did not solve: {e}")))
                .ok();
            record.evaluator = Some(evaluator.stats().to_counters());
            record.ga = Some(found.ga.to_generations(found.evaluations));
            record.chosen = self.entries(&planned);
            // Knowledge: when spans feed the monitor, predict the plan's
            // station behaviour for the next window's audit.
            if report.span_stats.is_some() {
                self.auditor
                    .predict(&self.binding, &mut evaluator, &planned, window);
            }
            Some(self.changes(&planned, &current))
        };
        // Execute: a hold plans nothing and still re-issues.
        let actions = self
            .reconciler
            .issue(plan.unwrap_or_default(), reissue, report.end);
        self.finish(record, notes, actions)
    }

    fn actuation_delay(&self) -> f64 {
        ACTUATION_DELAY
    }

    fn take_decision_record(&mut self) -> Option<DecisionRecord> {
        self.last_record.take()
    }
}

#[cfg(test)]
mod testkit {
    //! Fixtures shared by the controller's tests and its units' tests
    //! (which drive their unit through `Atom::decide`).

    use super::*;

    pub(super) fn binding(share: f64) -> ModelBinding {
        crate::fixtures::web(share, 100)
    }

    pub(super) fn report(users: usize, replicas: usize, share: f64) -> WindowReport {
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
    pub(super) fn at_window(mut r: WindowReport, k: usize) -> WindowReport {
        r.start = 300.0 * k as f64;
        r.end = 300.0 * (k + 1) as f64;
        r
    }

    pub(super) fn fast_config() -> AtomConfig {
        let mut obj = ObjectiveSpec::balanced(1);
        obj.server_capacity = vec![(0, 8.0)];
        let mut cfg = AtomConfig::new(obj);
        cfg.ga.budget = atom_ga::Budget::Evaluations(400);
        cfg
    }

    /// A binding whose decision space is replicas-only (fixed share), so
    /// the optimum under heavy load is deterministically "max replicas".
    pub(super) fn fixed_share_binding(share: f64, max_replicas: usize) -> ModelBinding {
        let mut b = binding(share);
        b.services[0].max_replicas = max_replicas;
        b.services[0].share_bounds = (share, share);
        b
    }

    pub(super) fn proactive_config() -> AtomConfig {
        let mut cfg = fast_config();
        cfg.forecast = ForecastConfig::enabled();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

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
        // A hold diagnoses nothing: the operator line is its reason.
        let rec = atom.take_decision_record().expect("record");
        let text = rec.explanation().expect("a hold explains itself");
        assert!(text.contains("zero users"), "unexpected: {text}");
        assert_eq!(rec.actuation.reason, Some(text));
    }

    #[test]
    fn names_follow_planner_mode() {
        let mk = |mode| {
            let mut c = fast_config();
            c.planner_mode = mode;
            Atom::new(binding(0.5), c).name().to_string()
        };
        assert_eq!(mk(PlannerMode::Standard), "ATOM");
        assert_eq!(mk(PlannerMode::ConservativeTps), "ATOM-T");
        assert_eq!(mk(PlannerMode::ConservativeShare), "ATOM-S");
    }

    #[test]
    fn proactive_name_gets_the_suffix() {
        assert_eq!(Atom::new(binding(0.5), proactive_config()).name(), "ATOM-P");
        assert_eq!(Atom::new(binding(0.5), fast_config()).name(), "ATOM");
    }

    #[test]
    fn explanation_is_produced_after_decide() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        assert!(atom.take_decision_record().is_none(), "no decision yet");
        let _ = atom.decide(&report(2000, 1, 0.2));
        let rec = atom.take_decision_record().expect("record after decide");
        let text = rec.explanation().expect("explanation after decide");
        assert!(
            text.contains("bottleneck") || text.contains("plan") || text.contains("keeping"),
            "unexpected explanation: {text}"
        );
    }

    #[test]
    fn actuation_delay_is_150_seconds() {
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
        let rec = atom.take_decision_record().expect("record");
        let text = rec.explanation().expect("explanation");
        assert!(text.contains("1/4"), "should surface the deficit: {text}");
    }

    #[test]
    fn dark_window_without_history_holds_position() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        let dark = report(2000, 1, 0.2).with_monitor_dropout_fraction(0.9);
        assert!(atom.decide(&dark).is_empty());
        let rec = atom.take_decision_record().expect("record");
        let text = rec.explanation().expect("explanation");
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
        let second = atom.decide(&dark);
        let rec = atom.take_decision_record().expect("record");
        let text = rec.explanation().expect("explanation");
        assert!(text.contains("trusted"), "unexpected: {text}");
        // Counters come from the trusted window (the search ran), the
        // actuator state from the fresh report: the applied scale-up is
        // the plan's baseline, so it is not ordered a second time.
        assert!(
            rec.evaluator.is_some() && !second.contains(&first[0]),
            "must plan from trusted load over fresh replicas: {second:?}"
        );
    }

    /// The explanation as the controller assembled it before the journal
    /// carried the diagnosis, kept as the oracle the rendered record must
    /// match byte for byte: the decide sequence replayed on a copy of
    /// the controller taken before the window, the text built from the
    /// evaluator, the incumbent and the changes themselves.
    fn oracle(mut atom: Atom, report: &WindowReport) -> Option<String> {
        atom.window += 1;
        let degraded = report.degraded(MAX_DROPOUT);
        let snapshot = snapshot_of(report, degraded);
        let mut record = DecisionRecord::new(0, report.end, "oracle", snapshot);
        let mut notes = Vec::new();
        let reissue =
            atom.reconciler
                .reconcile(report, &atom.binding, &mut record.actuation, &mut notes);
        let diagnosis = 'hold: {
            let Some(load) = atom.observe(report, degraded, !reissue.is_empty(), &mut notes) else {
                break 'hold None;
            };
            record.forecast = atom
                .forecaster
                .as_mut()
                .and_then(|f| f.demand(&load, report, degraded, &mut notes));
            let Some(model) = atom.analyze(load, report, degraded, &mut record, &mut notes) else {
                break 'hold None;
            };
            let current = atom.current_decision(report);
            let mut evaluator =
                CandidateEvaluator::new(&atom.binding, &model, &atom.config.objective);
            let found = optimizer::search_with(&mut evaluator, atom.ga_options());
            let planned =
                atom.planner
                    .plan_with(&atom.binding, &mut evaluator, found.decision, &current);
            let changes = atom.changes(&planned, &current);
            let mut text = evaluator
                .with_solution(&current, |observed, sol| {
                    let report = bottleneck::analyze(observed, sol);
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
                .ok();
            let plan: Vec<String> = changes
                .iter()
                .filter_map(|a| {
                    let s = atom.binding.by_service(a.service)?;
                    let old = current.get(s.task)?;
                    let (r, share) = (old.replicas, old.share());
                    Some(format!(
                        "{}: {r}x{share:.2} -> {}x{:.2}",
                        s.name, a.replicas, a.share
                    ))
                })
                .collect();
            if let Some(text) = &mut text {
                if plan.is_empty() {
                    text.push_str("keeping the current configuration");
                } else {
                    text.push_str(&format!("plan: {}", plan.join(", ")));
                }
                let stats = evaluator.stats();
                text.push_str(&format!(
                    " [{} candidates, {} solves, {} cache hits ({:.1}% hit-rate), {} failures]",
                    stats.candidates,
                    stats.solves,
                    stats.cache_hits,
                    100.0 * stats.hit_rate(),
                    stats.failures
                ));
            }
            text
        };
        match (diagnosis, (!notes.is_empty()).then(|| notes.join("; "))) {
            (Some(d), Some(reason)) => Some(format!("{d} | {reason}")),
            (d, reason) => d.or(reason),
        }
    }

    /// One window: decides, and holds the rendered record to the oracle.
    fn decide_against_the_oracle(
        atom: &mut Atom,
        report: &WindowReport,
    ) -> (Vec<ScaleAction>, DecisionRecord, String) {
        let expected = oracle(atom.clone(), report);
        let actions = atom.decide(report);
        let rec = atom.take_decision_record().expect("record");
        assert_eq!(rec.explanation(), expected, "window {}", rec.window);
        (actions, rec, expected.unwrap_or_default())
    }

    #[test]
    fn the_rendered_record_is_the_old_explanation() {
        let has = |text: &str, parts: &[&str]| {
            for part in parts {
                assert!(text.contains(part), "{part:?} not in {text:?}");
            }
        };
        // A heavy-load plan.
        let mut atom = Atom::new(fixed_share_binding(0.2, 8), fast_config());
        let (first, rec, text) = decide_against_the_oracle(&mut atom, &report(2000, 1, 0.2));
        has(
            &text,
            &["root bottleneck: web", "plan: web: 1x0.20 -> ", "hit-rate"],
        );
        assert_eq!(
            (rec.bottlenecks.map(|b| b.len()), first.len()),
            (Some(1), 1)
        );
        // A dark window re-planned from trusted telemetry, over the
        // replicas the plan ordered.
        let dark = at_window(
            report(2000, first[0].replicas, 0.2).with_monitor_dropout_fraction(1.0),
            1,
        );
        let (_, _, text) = decide_against_the_oracle(&mut atom, &dark);
        has(&text, &[" | monitor dark 100% of the window: re-planning"]);
        // A light-load plan that trims the share alone.
        let mut atom = Atom::new(binding(1.0), fast_config());
        let (_, _, text) = decide_against_the_oracle(&mut atom, &report(100, 1, 1.0));
        has(
            &text,
            &["no saturated service; plan: web: 1x1.00 -> 1x0.90 ["],
        );
        // A saturated database starving the web tier in front of it.
        let chain = crate::fixtures::web_db(2000);
        let mut atom = Atom::new(chain, fast_config());
        let two = report(2000, 1, 0.5)
            .with_service_utilization(vec![0.9, 0.99])
            .with_service_busy_cores(vec![0.45, 0.1])
            .with_service_alloc_cores(vec![0.5, 0.1])
            .with_service_replicas(vec![1, 1])
            .with_service_shares(vec![0.5, 0.1]);
        let (_, _, text) = decide_against_the_oracle(&mut atom, &two);
        has(
            &text,
            &["root bottleneck: db (util 98%), starving web; plan: web: "],
        );
        // A keep, with the start-up deficit as its reason.
        let mut atom = Atom::new(fixed_share_binding(0.5, 4), fast_config());
        let starting = report(2000, 4, 0.5).with_service_ready_replicas(vec![1]);
        let (_, _, text) = decide_against_the_oracle(&mut atom, &starting);
        has(
            &text,
            &["keeping the current configuration [", "] | web: 1/4"],
        );
        // Zero users, and a dark window with no history: holds.
        let mut atom = Atom::new(binding(0.5), fast_config());
        let (_, _, text) = decide_against_the_oracle(&mut atom, &report(0, 1, 0.5));
        assert_eq!(text, "zero users at window end: nothing to serve");
        let mut atom = Atom::new(binding(0.2), fast_config());
        let dark = report(2000, 1, 0.2).with_monitor_dropout_fraction(0.9);
        let (_, rec, text) = decide_against_the_oracle(&mut atom, &dark);
        has(&text, &["no trusted telemetry"]);
        assert!(rec.bottlenecks.is_none() && rec.evaluator.is_none());
        // Re-issues of a dropped order while the monitor is dark, then
        // its abandonment.
        let mut atom = Atom::new(binding(0.2), fast_config());
        let heavy = report(2000, 1, 0.2);
        let _ = decide_against_the_oracle(&mut atom, &heavy);
        for k in 1..=4 {
            let dark = heavy
                .clone()
                .with_monitor_dropout_fraction(1.0)
                .with_failed_actuations(1);
            let (_, _, text) = decide_against_the_oracle(&mut atom, &at_window(dark, k));
            has(&text, &[if k < 4 { "re-issuing" } else { "abandoning" }]);
        }
        // Every solve fails (no think time, no demand): the search runs
        // and the incumbent has no diagnosis. The string builder rendered
        // nothing here; the record renders the plan, the counters and why
        // the diagnosis is missing.
        let broken = crate::fixtures::chain((8, 1.0), &[("web", 64, 0.2, &[0.0])], 100, 0.0);
        let mut atom = Atom::new(broken, fast_config());
        assert_eq!(oracle(atom.clone(), &heavy), None);
        atom.decide(&heavy);
        let rec = atom.take_decision_record().expect("record");
        assert_eq!(
            rec.explanation().as_deref(),
            Some(
                "keeping the current configuration [410 candidates, 104 solves, 306 cache hits \
                 (74.6% hit-rate), 104 failures] | no diagnosis, the incumbent did not solve: \
                 invalid model: client cycle time is zero (no think time and no demand)"
            )
        );
        assert!(rec.bottlenecks.is_none() && rec.evaluator.is_some_and(|e| e.failures > 0));
    }
}
