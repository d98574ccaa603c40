//! The experiment runner: drives an autoscaler against a cluster and
//! collects the §V-B metrics.

use atom_cluster::{
    AppSpec, Cluster, ClusterError, ClusterOptions, ClusterTelemetry, SampledSpan, ScaleAction,
    WindowReport,
};
use atom_metrics::{CapacityTrace, CapacityWindow};
use atom_obs::{DecisionRecord, Journal, RunRecord};
use atom_workload::WorkloadSpec;

use crate::autoscaler::Autoscaler;

/// Shape of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of monitoring windows.
    pub windows: usize,
    /// Window length (seconds; the paper uses 300 s by default).
    pub window_secs: f64,
    /// Cluster options (seed, actuation latencies).
    pub cluster: ClusterOptions,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            windows: 8,
            window_secs: 300.0,
            cluster: ClusterOptions::default(),
        }
    }
}

/// Everything measured during one experiment run. The throughput and
/// availability metrics are folds over `reports`.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The autoscaler's name.
    pub scaler: String,
    /// Raw window reports.
    pub reports: Vec<WindowReport>,
    /// Per-service capacity traces (required vs allocated) for the
    /// `T_u` / `A_u` metrics.
    pub capacity: Vec<CapacityTrace>,
    /// Scaling actions issued, each stamped with the `end` of the window
    /// whose report the scaler decided on.
    pub actions: Vec<(f64, ScaleAction)>,
    /// Structured telemetry collected alongside the run. Purely
    /// observational: dropping it changes nothing the metrics above see.
    pub telemetry: TelemetrySummary,
}

/// The observability sidecar of one experiment run: the per-window
/// decision journal plus the cluster's discrete-event counters.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySummary {
    /// One entry per monitoring window: the scaler's decision record, if
    /// it keeps one (`None` for non-journaling scalers).
    pub decisions: Vec<Option<DecisionRecord>>,
    /// The cluster's event counters and scale-action latency samples.
    /// In a tenant's record from `atom_placement::run_multi_tenant`,
    /// these are the shared cluster's counters, the same for every
    /// tenant.
    pub cluster: ClusterTelemetry,
    /// Every sampled request span the cluster completed over the run.
    /// Empty unless [`ClusterOptions::with_span_sampling`] enabled the
    /// span layer, and always empty in a tenant's record from
    /// `atom_placement::run_multi_tenant`, which does not split spans by
    /// tenant.
    pub spans: Vec<SampledSpan>,
}

impl TelemetrySummary {
    /// Decision records in excess of what a default-capacity [`Journal`]
    /// retains: non-zero means a JSONL export of this run's journal is a
    /// truncated view.
    pub fn journal_dropped(&self) -> u64 {
        // One Run record rides along with the decisions when the journal
        // is exported, hence the `+ 1`.
        (self.decisions.iter().flatten().count() as u64 + 1)
            .saturating_sub(Journal::DEFAULT_CAPACITY as u64)
    }
}

impl ExperimentResult {
    /// An empty record of `scaler`'s run over an app of `services`
    /// services, ready for [`ExperimentResult::window_step`].
    pub fn new(scaler: &str, services: usize) -> Self {
        ExperimentResult {
            scaler: scaler.to_string(),
            reports: Vec::new(),
            capacity: vec![CapacityTrace::new(); services],
            actions: Vec::new(),
            telemetry: TelemetrySummary::default(),
        }
    }

    /// One MAPE-K window step on a monitored `report`: record the report
    /// and each service's capacity window, let `scaler` decide, record
    /// its decision record, and stamp its actions with
    /// `report.end`. Required capacity is `spec`'s at the window's
    /// *offered* load: its average users at think time `think`, under
    /// `mix`. Returns the actions, for the caller to actuate after
    /// `scaler.actuation_delay()`.
    pub fn window_step(
        &mut self,
        scaler: &mut dyn Autoscaler,
        spec: &AppSpec,
        mix: &[f64],
        think: f64,
        report: WindowReport,
    ) -> Vec<ScaleAction> {
        let offered_rate = report.avg_users / think.max(1e-9);
        let required = spec.required_cores(mix, offered_rate);
        for (si, trace) in self.capacity.iter_mut().enumerate() {
            trace.push(CapacityWindow {
                start: report.start,
                end: report.end,
                required: required[si],
                allocated: report.service_alloc_cores[si],
            });
        }
        let decided = scaler.decide(&report);
        self.telemetry.decisions.push(scaler.take_decision_record());
        self.actions
            .extend(decided.iter().map(|&a| (report.end, a)));
        self.reports.push(report);
        decided
    }

    /// The run-level journal record summarising this run.
    pub fn run_record(&self) -> RunRecord {
        let windows = self.reports.len();
        RunRecord {
            scaler: self.scaler.clone(),
            windows: windows as u64,
            mean_tps: self.mean_tps(0, windows.max(1)),
            mean_availability: self.mean_availability(),
            actions: self.actions.len() as u64,
            cluster_events: self.telemetry.cluster.total_events(),
        }
    }

    /// The actions the scaler issued on window `window`'s report.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not a recorded window.
    pub fn window_actions(&self, window: usize) -> impl Iterator<Item = &ScaleAction> {
        let end = self.reports[window].end;
        self.actions
            .iter()
            .filter(move |(t, _)| *t == end)
            .map(|(_, a)| a)
    }

    /// Total under-provisioned time `T_u` across the given services (all
    /// when `services` is `None`) — paper eq. in §V-B.
    pub fn underprovision_time(&self, services: Option<&[usize]>) -> f64 {
        self.select(services).map(|t| t.underprovision_time()).sum()
    }

    /// Total under-provisioned area `A_u` (core-seconds).
    pub fn underprovision_area(&self, services: Option<&[usize]>) -> f64 {
        self.select(services).map(|t| t.underprovision_area()).sum()
    }

    fn select<'a>(
        &'a self,
        services: Option<&'a [usize]>,
    ) -> Box<dyn Iterator<Item = &'a CapacityTrace> + 'a> {
        match services {
            Some(idx) => Box::new(idx.iter().map(move |&i| &self.capacity[i])),
            None => Box::new(self.capacity.iter()),
        }
    }

    /// Mean TPS over windows `[from_window, to_window)`.
    pub fn mean_tps(&self, from_window: usize, to_window: usize) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        let from = self.reports[from_window.min(self.reports.len() - 1)].start;
        let to = self.reports[(to_window.saturating_sub(1)).min(self.reports.len() - 1)].end;
        self.mean_tps_between(from, to)
    }

    /// Time-weighted mean TPS over the windows intersecting `[from, to]`
    /// (seconds); 0 when none does.
    fn mean_tps_between(&self, from: f64, to: f64) -> f64 {
        let overlapping = self
            .reports
            .iter()
            .filter_map(|r| Some((r.total_tps, overlap(r, from, to)?)));
        time_weighted_mean(overlapping, 0.0)
    }

    /// Total completed transactions over `[from, to]` (seconds) — the
    /// cumulative TPS comparison of Fig. 13b.
    pub fn cumulative_tps(&self, from: f64, to: f64) -> f64 {
        self.reports
            .iter()
            .map(|r| overlap(r, from, to).map_or(0.0, |span| r.total_tps * span))
            .sum()
    }

    /// Time-weighted mean availability across all services (1.0 when no
    /// windows were recorded).
    pub fn mean_availability(&self) -> f64 {
        let services = self.services();
        if services == 0 {
            return 1.0;
        }
        let sum: f64 = (0..services)
            .map(|si| time_weighted_mean(self.availability(si), 1.0))
            .sum();
        sum / services as f64
    }

    /// Integrated unavailability `∫ (1 − a) dt` summed over services
    /// (seconds of effective downtime) — e.g. one service at availability
    /// 0.75 for a 120 s window contributes 30.
    pub fn downtime(&self) -> f64 {
        (0..self.services())
            .map(|si| {
                self.availability(si)
                    .map(|(a, span)| (1.0 - a) * span)
                    .sum::<f64>()
            })
            .sum()
    }

    /// Longest stretch (seconds) any service spent below `threshold`
    /// availability — the experiment's recovery-time headline.
    pub fn longest_outage(&self, threshold: f64) -> f64 {
        (0..self.services())
            .map(|si| {
                let mut longest = 0.0f64;
                let mut current = 0.0f64;
                for (a, span) in self.availability(si) {
                    if a < threshold {
                        current += span;
                        longest = longest.max(current);
                    } else {
                        current = 0.0;
                    }
                }
                longest
            })
            .fold(0.0, f64::max)
    }

    /// Number of services the reports cover.
    fn services(&self) -> usize {
        self.reports
            .first()
            .map_or(0, |r| r.service_availability.len())
    }

    /// `(availability clamped to [0, 1], window span)` of service `si`,
    /// window by window.
    fn availability(&self, si: usize) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.reports
            .iter()
            .map(move |r| (r.service_availability[si].clamp(0.0, 1.0), r.end - r.start))
    }
}

/// Time-weighted mean of `(value, seconds)` pairs; `empty` when they
/// span no time.
fn time_weighted_mean(points: impl Iterator<Item = (f64, f64)>, empty: f64) -> f64 {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for (value, span) in points {
        weighted += value * span;
        total += span;
    }
    if total > 0.0 {
        weighted / total
    } else {
        empty
    }
}

/// Seconds of `report`'s window inside `[from, to]`, if any.
fn overlap(report: &WindowReport, from: f64, to: f64) -> Option<f64> {
    let (lo, hi) = (report.start.max(from), report.end.min(to));
    (hi > lo).then_some(hi - lo)
}

/// Runs `scaler` against `spec` under `workload` for the configured
/// number of monitoring windows, mirroring the paper's protocol: monitor
/// a window → decide → schedule the actions after the scaler's actuation
/// delay → continue.
///
/// # Errors
///
/// Propagates cluster construction failures.
pub fn run_experiment(
    spec: &AppSpec,
    workload: WorkloadSpec,
    scaler: &mut dyn Autoscaler,
    config: ExperimentConfig,
) -> Result<ExperimentResult, ClusterError> {
    let mix = workload.mix.fractions().to_vec();
    let think = workload.think_time;
    let mut cluster = Cluster::new(spec, workload, config.cluster)?;
    let mut result = ExperimentResult::new(scaler.name(), spec.services.len());
    for _ in 0..config.windows {
        let report = cluster.run_window(config.window_secs);
        // Drain completed spans per window so the layer's bounded log
        // never saturates over a long run (no-op while sampling is off).
        result.telemetry.spans.append(&mut cluster.take_spans());
        let decided = result.window_step(scaler, spec, &mix, think, report);
        if !decided.is_empty() {
            cluster.schedule_scaling(decided, scaler.actuation_delay());
        }
    }
    result.telemetry.cluster = cluster.telemetry().clone();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::NoopScaler;
    use crate::baselines::UvScaler;
    use atom_workload::{LoadProfile, RequestMix};

    fn app() -> AppSpec {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let api = spec.add_service("api", node, 64, 1, 0.2);
        let ep = spec.add_endpoint(api, "op", 0.004, 1.0);
        spec.add_feature("op", api, ep);
        spec
    }

    fn ramp_workload() -> WorkloadSpec {
        WorkloadSpec::new(
            RequestMix::uniform(1),
            2.0,
            LoadProfile::Ramp {
                from: 50,
                to: 400,
                start: 0.0,
                duration: 600.0,
            },
        )
    }

    fn config(windows: usize) -> ExperimentConfig {
        ExperimentConfig {
            windows,
            window_secs: 120.0,
            cluster: ClusterOptions::default(),
        }
    }

    #[test]
    fn noop_accumulates_underprovisioning() {
        let mut noop = NoopScaler;
        let result = run_experiment(&app(), ramp_workload(), &mut noop, config(8)).unwrap();
        assert_eq!(result.reports.len(), 8);
        // 400 users / 2 s × 4 ms = 0.8 cores needed vs 0.2 allocated.
        assert!(result.underprovision_time(None) > 0.0);
        assert!(result.underprovision_area(None) > 0.0);
        assert!(result.actions.is_empty());
    }

    #[test]
    fn uv_reduces_underprovisioning_vs_noop() {
        let mut noop = NoopScaler;
        let base = run_experiment(&app(), ramp_workload(), &mut noop, config(8)).unwrap();
        let mut uv = UvScaler::new(&app());
        let scaled = run_experiment(&app(), ramp_workload(), &mut uv, config(8)).unwrap();
        assert!(!scaled.actions.is_empty(), "UV must act on the hot service");
        assert!(
            scaled.underprovision_area(None) < base.underprovision_area(None),
            "UV {} vs noop {}",
            scaled.underprovision_area(None),
            base.underprovision_area(None)
        );
        // And throughput improves late in the run.
        assert!(scaled.mean_tps(5, 8) > base.mean_tps(5, 8));
    }

    #[test]
    fn faults_show_up_in_availability_metrics() {
        use atom_cluster::{FaultKind, FaultSchedule};
        // The single replica crashing takes the service down for its
        // restart delay (availability is "some replica ready").
        let spec = app();
        let faults = FaultSchedule::new().at(130.0, FaultKind::ReplicaCrash { service: 0 });
        let cfg = ExperimentConfig {
            windows: 4,
            window_secs: 120.0,
            cluster: ClusterOptions::new().with_faults(faults),
        };
        let mut noop = NoopScaler;
        let result = run_experiment(&spec, ramp_workload(), &mut noop, cfg).unwrap();
        let clean = run_experiment(&spec, ramp_workload(), &mut noop, config(4)).unwrap();
        assert!(result.mean_availability() < 1.0);
        assert!(result.longest_outage(0.999) > 0.0);
        assert_eq!(clean.mean_availability(), 1.0);
        assert_eq!(clean.longest_outage(0.999), 0.0);
    }

    #[test]
    fn telemetry_summary_rides_along_the_run() {
        let mut uv = UvScaler::new(&app());
        let result = run_experiment(&app(), ramp_workload(), &mut uv, config(8)).unwrap();
        assert_eq!(result.telemetry.decisions.len(), 8);
        assert!(
            result.telemetry.decisions.iter().all(|d| d.is_some()),
            "UV journals every window"
        );
        assert!(result.telemetry.cluster.total_events() > 0);
        let run = result.run_record();
        assert_eq!((run.windows, run.scaler.as_str()), (8, "UV"));
        assert_eq!(run.actions, result.actions.len() as u64);
        assert!(run.mean_tps > 0.0);
        // Non-journaling scalers leave the journal empty, not absent.
        let mut noop = NoopScaler;
        let base = run_experiment(&app(), ramp_workload(), &mut noop, config(4)).unwrap();
        assert!(base.telemetry.decisions.iter().all(|d| d.is_none()));
    }

    #[test]
    fn span_sampling_populates_the_telemetry_sidecar() {
        let cfg = ExperimentConfig {
            windows: 4,
            window_secs: 120.0,
            cluster: ClusterOptions::new().with_span_sampling(1.0, 7),
        };
        let mut noop = NoopScaler;
        let result = run_experiment(&app(), ramp_workload(), &mut noop, cfg).unwrap();
        assert!(!result.telemetry.spans.is_empty(), "rate 1.0 must sample");
        assert_eq!(result.telemetry.journal_dropped(), 0);
        assert!(result.reports.iter().all(|r| r.span_stats.is_some()));
        // The layer is inert on the dynamics: the unsampled run matches
        // once the observational span column is nulled out.
        let base = run_experiment(&app(), ramp_workload(), &mut noop, config(4)).unwrap();
        assert!(base.telemetry.spans.is_empty());
        for (a, b) in base.reports.iter().zip(&result.reports) {
            let mut b = b.clone();
            b.span_stats = None;
            assert_eq!(*a, b);
        }
    }

    #[test]
    fn result_selectors_work() {
        let mut noop = NoopScaler;
        let result = run_experiment(&app(), ramp_workload(), &mut noop, config(4)).unwrap();
        let all = result.underprovision_time(None);
        let only = result.underprovision_time(Some(&[0]));
        assert_eq!(all, only);
        assert!(result.mean_tps(0, 4) > 0.0);
    }

    #[test]
    fn actions_are_stamped_with_their_window_end() {
        let spec = app();
        let mut uv = UvScaler::new(&spec);
        let result = run_experiment(&spec, ramp_workload(), &mut uv, config(8)).unwrap();
        let ends: Vec<f64> = result.reports.iter().map(|r| r.end).collect();
        assert!(result.actions.iter().all(|(t, _)| ends.contains(t)));
        let mut acting_windows = 0;
        let mut seen = 0;
        for (i, decision) in result.telemetry.decisions.iter().enumerate() {
            let decision = decision.as_ref().expect("UV journals every window");
            let issued: Vec<(String, u64, f64)> = result
                .window_actions(i)
                .map(|a| {
                    let name = spec.services[a.service.0].name.clone();
                    (name, a.replicas as u64, a.share)
                })
                .collect();
            let chosen: Vec<(String, u64, f64)> = decision
                .chosen
                .iter()
                .map(|c| (c.service.clone(), c.replicas, c.share))
                .collect();
            assert_eq!(issued, chosen, "window {i}");
            acting_windows += usize::from(!issued.is_empty());
            seen += issued.len();
        }
        assert!(acting_windows >= 2, "UV must act in several windows");
        assert_eq!(seen, result.actions.len());
    }

    /// A result holding only `reports`, for the metrics that fold over
    /// them.
    fn result_of(reports: Vec<WindowReport>) -> ExperimentResult {
        ExperimentResult {
            scaler: "test".into(),
            reports,
            capacity: Vec::new(),
            actions: Vec::new(),
            telemetry: TelemetrySummary::default(),
        }
    }

    /// One single-service report per `(start, end, tps, availability)`.
    fn windows(points: &[(f64, f64, f64, f64)]) -> ExperimentResult {
        result_of(
            points
                .iter()
                .map(|&(start, end, tps, availability)| {
                    WindowReport::for_span(start, end)
                        .with_total_tps(tps)
                        .with_service_availability(vec![availability])
                })
                .collect(),
        )
    }

    fn tps_windows(points: &[(f64, f64, f64)]) -> ExperimentResult {
        let points: Vec<_> = points.iter().map(|&(s, e, tps)| (s, e, tps, 1.0)).collect();
        windows(&points)
    }

    fn availability_windows(points: &[(f64, f64, f64)]) -> ExperimentResult {
        let points: Vec<_> = points.iter().map(|&(s, e, a)| (s, e, 0.0, a)).collect();
        windows(&points)
    }

    #[test]
    fn tps_series_mean_and_cumulative() {
        let r = tps_windows(&[(0.0, 100.0, 10.0), (100.0, 200.0, 30.0)]);
        assert_eq!(r.mean_tps(0, 2), 20.0);
        assert_eq!(r.cumulative_tps(0.0, 200.0), 4_000.0);
        // Partial overlap.
        assert_eq!(r.mean_tps_between(50.0, 150.0), 20.0);
        assert_eq!(r.cumulative_tps(50.0, 150.0), 2_000.0);
        // Window indices select whole windows.
        assert_eq!(r.mean_tps(1, 2), 30.0);
    }

    #[test]
    fn tps_series_outside_range_is_zero() {
        let r = tps_windows(&[(0.0, 10.0, 5.0)]);
        assert_eq!(r.mean_tps_between(20.0, 30.0), 0.0);
        assert_eq!(r.cumulative_tps(20.0, 30.0), 0.0);
        assert_eq!(result_of(Vec::new()).mean_tps(0, 4), 0.0);
    }

    #[test]
    fn availability_trace_metrics() {
        let r = availability_windows(&[
            (0.0, 100.0, 1.0),
            (100.0, 200.0, 0.5),  // incident
            (200.0, 300.0, 0.75), // recovering
            (300.0, 400.0, 1.0),
        ]);
        assert_eq!(r.mean_availability(), 0.8125);
        assert_eq!(r.downtime(), 75.0);
        // Below 0.9 for the two middle windows; below 0.6 only for one.
        assert_eq!(r.longest_outage(0.9), 200.0);
        assert_eq!(r.longest_outage(0.6), 100.0);
    }

    #[test]
    fn availability_outages_reset_on_recovery() {
        let r = availability_windows(&[(0.0, 60.0, 0.0), (60.0, 120.0, 1.0), (120.0, 150.0, 0.5)]);
        // Two separate incidents: the longest is the first.
        assert_eq!(r.longest_outage(0.9), 60.0);
        assert_eq!(r.downtime(), 75.0);
    }

    #[test]
    fn empty_availability_is_perfect() {
        let r = result_of(Vec::new());
        assert_eq!(r.mean_availability(), 1.0);
        assert_eq!(r.downtime(), 0.0);
        assert_eq!(r.longest_outage(0.99), 0.0);
    }

    #[test]
    fn availability_is_clamped_to_the_unit_interval() {
        let clamped = availability_windows(&[(0.0, 10.0, 1.5), (10.0, 20.0, -0.5)]);
        let exact = availability_windows(&[(0.0, 10.0, 1.0), (10.0, 20.0, 0.0)]);
        assert_eq!(clamped.mean_availability(), 0.5);
        assert_eq!(clamped.downtime(), 10.0);
        assert_eq!(clamped.longest_outage(0.5), 10.0);
        assert_eq!(clamped.mean_availability(), exact.mean_availability());
        assert_eq!(clamped.downtime(), exact.downtime());
    }

    #[test]
    fn availability_is_averaged_over_services() {
        // Two services: one always up, one down for half the run.
        let r = result_of(vec![
            WindowReport::for_span(0.0, 100.0).with_service_availability(vec![1.0, 0.0]),
            WindowReport::for_span(100.0, 200.0).with_service_availability(vec![1.0, 1.0]),
        ]);
        assert_eq!(r.mean_availability(), 0.75);
        assert_eq!(r.downtime(), 100.0);
        assert_eq!(r.longest_outage(0.5), 100.0);
    }
}
