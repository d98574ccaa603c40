//! The experiment runner: drives an autoscaler against a cluster and
//! collects the §V-B metrics.

use atom_cluster::{
    AppSpec, Cluster, ClusterError, ClusterOptions, ClusterTelemetry, SampledSpan, WindowReport,
};
use atom_metrics::{ActionLog, AvailabilityTrace, CapacityTrace, CapacityWindow, TpsSeries};
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

/// Everything measured during one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The autoscaler's name.
    pub scaler: String,
    /// Raw window reports.
    pub reports: Vec<WindowReport>,
    /// Per-window system TPS.
    pub tps: TpsSeries,
    /// Per-service capacity traces (required vs allocated) for the
    /// `T_u` / `A_u` metrics.
    pub capacity: Vec<CapacityTrace>,
    /// Per-service availability traces (fraction of each window the
    /// service had at least one ready replica) — flat 1.0 outside fault
    /// experiments.
    pub availability: Vec<AvailabilityTrace>,
    /// Scaling actions issued.
    pub actions: ActionLog,
    /// Per-window decision explanations from introspective scalers
    /// (`None` entries for windows without one).
    pub explanations: Vec<Option<String>>,
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
    pub cluster: ClusterTelemetry,
    /// Every sampled request span the cluster completed over the run
    /// (empty unless [`ClusterOptions::with_span_sampling`] enabled the
    /// span layer).
    pub spans: Vec<SampledSpan>,
    /// Decision records in excess of what a default-capacity [`Journal`]
    /// retains: non-zero means a JSONL export of this run's journal is a
    /// truncated view.
    pub journal_dropped: u64,
}

impl TelemetrySummary {
    /// The run-level journal record summarising `result`.
    pub fn run_record(result: &ExperimentResult) -> RunRecord {
        let windows = result.reports.len();
        RunRecord {
            scaler: result.scaler.clone(),
            windows: windows as u64,
            mean_tps: result.mean_tps(0, windows.max(1)),
            mean_availability: result.mean_availability(),
            actions: result.actions.len() as u64,
            cluster_events: result.telemetry.cluster.total_events(),
        }
    }
}

impl ExperimentResult {
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

    /// Time-weighted mean availability across all services (1.0 when no
    /// windows were recorded).
    pub fn mean_availability(&self) -> f64 {
        if self.availability.is_empty() {
            return 1.0;
        }
        let sum: f64 = self
            .availability
            .iter()
            .map(|a| a.mean_availability())
            .sum();
        sum / self.availability.len() as f64
    }

    /// Longest stretch (seconds) any service spent below `threshold`
    /// availability — the experiment's recovery-time headline.
    pub fn longest_outage(&self, threshold: f64) -> f64 {
        self.availability
            .iter()
            .map(|a| a.longest_outage(threshold))
            .fold(0.0, f64::max)
    }

    /// Mean TPS over windows `[from_window, to_window)`.
    pub fn mean_tps(&self, from_window: usize, to_window: usize) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        let from = self.reports[from_window.min(self.reports.len() - 1)].start;
        let to = self.reports[(to_window.saturating_sub(1)).min(self.reports.len() - 1)].end;
        self.tps.mean_tps(from, to)
    }
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
    let mut tps = TpsSeries::new();
    let mut capacity: Vec<CapacityTrace> = (0..spec.services.len())
        .map(|_| CapacityTrace::new())
        .collect();
    let mut availability: Vec<AvailabilityTrace> = (0..spec.services.len())
        .map(|_| AvailabilityTrace::new())
        .collect();
    let mut actions_log = ActionLog::new();
    let mut reports = Vec::with_capacity(config.windows);
    let mut explanations = Vec::with_capacity(config.windows);
    let mut decisions = Vec::with_capacity(config.windows);
    let mut spans = Vec::new();

    for _ in 0..config.windows {
        let report = cluster.run_window(config.window_secs);
        // Drain completed spans per window so the layer's bounded log
        // never saturates over a long run (no-op while sampling is off).
        spans.append(&mut cluster.take_spans());
        tps.push(report.start, report.end, report.total_tps);
        // Required capacity from the *offered* workload of this window
        // (avg users over the window at nominal think time).
        let offered_rate = report.avg_users / think.max(1e-9);
        let required = spec.required_cores(&mix, offered_rate);
        for (si, trace) in capacity.iter_mut().enumerate() {
            trace.push(CapacityWindow {
                start: report.start,
                end: report.end,
                required: required[si],
                allocated: report.service_alloc_cores[si],
            });
        }
        for (si, trace) in availability.iter_mut().enumerate() {
            trace.push(
                report.start,
                report.end,
                report.service_availability[si].clamp(0.0, 1.0),
            );
        }
        let actions = scaler.decide(&report);
        explanations.push(scaler.explain_last());
        decisions.push(scaler.take_decision_record());
        if !actions.is_empty() {
            for a in &actions {
                actions_log.record(
                    report.end,
                    format!(
                        "{}: {} -> {} x {:.2}",
                        scaler.name(),
                        spec.services[a.service.0].name,
                        a.replicas,
                        a.share
                    ),
                );
            }
            cluster.schedule_scaling(actions, scaler.actuation_delay());
        }
        reports.push(report);
    }

    Ok(ExperimentResult {
        scaler: scaler.name().to_string(),
        reports,
        tps,
        capacity,
        availability,
        actions: actions_log,
        explanations,
        telemetry: TelemetrySummary {
            // One Run record rides along with the decisions when the
            // journal is exported, hence the `+ 1`.
            journal_dropped: (decisions.iter().flatten().count() as u64 + 1)
                .saturating_sub(Journal::DEFAULT_CAPACITY as u64),
            decisions,
            cluster: cluster.telemetry().clone(),
            spans,
        },
    })
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
        let run = TelemetrySummary::run_record(&result);
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
        assert_eq!(result.telemetry.journal_dropped, 0);
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
}
