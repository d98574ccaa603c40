//! Monitoring-window reports: what autoscalers observe.
//!
//! A report mixes two provenances with different failure modes:
//!
//! * **scrape-based counters** (request counts, TPS, response times,
//!   peak rates) come from the monitoring plane and are *lost* while a
//!   monitor-dropout fault is active — such windows under-count and are
//!   flagged via [`WindowReport::monitor_dropout_fraction`];
//! * **orchestrator state** (replica counts, shares, availability,
//!   failed actuations) comes from the control plane's own bookkeeping
//!   and stays trustworthy through monitor outages.
//!
//! Controllers should treat a window with a high dropout fraction as
//! degraded: the counters are garbage, the actuator state is not.

use serde::{Deserialize, Serialize};

use crate::backend::BackendKind;
use crate::spans::ServiceSpanStats;
use crate::telemetry::ScaleLatencyStats;

/// Metrics collected over one monitoring window (paper §IV-A: the
/// workload monitor counts requests per feature within a window; the
/// baselines additionally read container CPU utilisation).
///
/// Non-exhaustive: construct with [`WindowReport::for_span`] and the
/// `with_*` builders (fields stay `pub` for reading and in-place
/// mutation).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window start (seconds).
    pub start: f64,
    /// Window end (seconds).
    pub end: f64,
    /// Completed client requests per feature.
    pub feature_counts: Vec<u64>,
    /// Completed requests/second per feature.
    pub feature_tps: Vec<f64>,
    /// Mean end-to-end response time per feature (seconds; 0 if none).
    pub feature_response: Vec<f64>,
    /// Completed invocations/second per endpoint: `endpoint_tps[s][e]`
    /// for service `s`, endpoint `e` (includes nested calls, not just
    /// client-visible features).
    pub endpoint_tps: Vec<Vec<f64>>,
    /// Per-service CPU utilisation: busy cores / allocated cores.
    pub service_utilization: Vec<f64>,
    /// Per-service busy cores (absolute, averaged over the window).
    pub service_busy_cores: Vec<f64>,
    /// Per-service allocated cores averaged over the window
    /// (`replicas × share`, counting only replicas that are up).
    pub service_alloc_cores: Vec<f64>,
    /// Per-service *serving* replica count at window end (ready and
    /// starting; draining replicas are out) — the configured/desired
    /// state the orchestrator is converging to, which is the last scale
    /// order. Compare [`WindowReport::service_ready_replicas`] for how
    /// many take requests.
    pub service_replicas: Vec<usize>,
    /// Per-service *ready* (request-taking) replica count at window end.
    /// Dips below `service_replicas` while replacements start up after a
    /// crash or outage, or after a controller scale-up.
    pub service_ready_replicas: Vec<usize>,
    /// Per-service CPU share at window end.
    pub service_shares: Vec<f64>,
    /// Per-service availability: time-weighted fraction of the window
    /// during which the service had at least one ready replica.
    pub service_availability: Vec<f64>,
    /// Per-server utilisation: busy cores / total cores.
    pub server_utilization: Vec<f64>,
    /// Completed client requests/second over the window (all features).
    pub total_tps: f64,
    /// Mean concurrent users over the window.
    pub avg_users: f64,
    /// Concurrent users at window end (the `N` ATOM's analyzer feeds to
    /// the model).
    pub users_at_end: usize,
    /// Peak client request *issue* rate over the monitor's sub-intervals
    /// (requests/second). The paper's workload monitor samples "a set of
    /// time intervals within a monitoring window" (§IV-A, \[32\]); the peak
    /// sample is what lets ATOM see traffic surges that window-averaged
    /// utilisation hides (§V-B, Fig. 13).
    pub peak_arrival_rate: f64,
    /// Peak number of users simultaneously *in the system* (issued a
    /// request not yet answered) during the window. Unlike arrival or
    /// completion rates, backlog is not throttled by missing capacity,
    /// so it exposes traffic surges even when the system is saturated.
    pub peak_in_system: f64,
    /// Time-averaged in-system user count over the window. A peak far
    /// above this average is the signature of a transient surge (as
    /// opposed to a sustained ramp).
    pub avg_in_system: f64,
    /// Fraction of the window (0–1) during which the monitoring plane
    /// was dark: scrape-based counters saw nothing and under-report.
    /// Orchestrator-state fields are unaffected.
    pub monitor_dropout_fraction: f64,
    /// Scaling batches dropped by an actuation-failure fault during the
    /// window (the orchestration API rejected them).
    pub failed_actuations: usize,
    /// Measured issue-to-ready scale-latency statistics accumulated by
    /// the cluster so far (`None` until the first scale-up completes).
    /// Orchestrator-state provenance: unaffected by monitor dropouts.
    /// A proactive controller reads the p95 as its actuation horizon.
    #[serde(default)]
    pub scale_latency: Option<ScaleLatencyStats>,
    /// Which population backend produced this window's user-plane
    /// metrics. Under [`BackendMode::Hybrid`](crate::BackendMode) this is
    /// the backend live at window *end*; see
    /// [`WindowReport::backend_switches`] for mid-window handovers.
    #[serde(default)]
    pub backend: BackendKind,
    /// Backend handovers (fluid ↔ per-user) within this window; 0 except
    /// around transients in hybrid mode.
    #[serde(default)]
    pub backend_switches: usize,
    /// Which tenant this report describes, when it is one tenant's view
    /// of a window ([`Cluster::tenant_reports`](crate::Cluster::tenant_reports)).
    /// `None` for the merged report `run_window` returns.
    #[serde(default)]
    pub tenant: Option<usize>,
    /// Per-service sampled-span aggregates for the window, one entry per
    /// service: queue-wait and residence percentiles over the sampled
    /// requests. `None` unless span sampling is enabled
    /// ([`ClusterOptions::span_sample_rate`](crate::ClusterOptions) > 0),
    /// so unsampled artefacts stay byte-stable. Scrape provenance: goes
    /// dark with the monitor.
    #[serde(default)]
    pub span_stats: Option<Vec<ServiceSpanStats>>,
    /// Per-edge link-fabric statistics for the window (utilisation,
    /// bytes, queueing), one entry per topology edge. `None` unless a
    /// topology is configured
    /// ([`ClusterOptions::with_topology`](crate::ClusterOptions::with_topology)), so
    /// topology-free artefacts stay byte-stable. Infrastructure
    /// provenance: the link queues are simulated state, not scrapes.
    #[serde(default)]
    pub network: Option<Vec<atom_net::EdgeWindowStats>>,
}

impl WindowReport {
    /// An empty report over `[start, end]`: all series empty, all
    /// scalars zero. Chain `with_*` setters to populate it.
    pub fn for_span(start: f64, end: f64) -> Self {
        WindowReport {
            start,
            end,
            feature_counts: Vec::new(),
            feature_tps: Vec::new(),
            feature_response: Vec::new(),
            endpoint_tps: Vec::new(),
            service_utilization: Vec::new(),
            service_busy_cores: Vec::new(),
            service_alloc_cores: Vec::new(),
            service_replicas: Vec::new(),
            service_ready_replicas: Vec::new(),
            service_shares: Vec::new(),
            service_availability: Vec::new(),
            server_utilization: Vec::new(),
            total_tps: 0.0,
            avg_users: 0.0,
            users_at_end: 0,
            peak_arrival_rate: 0.0,
            peak_in_system: 0.0,
            avg_in_system: 0.0,
            monitor_dropout_fraction: 0.0,
            failed_actuations: 0,
            scale_latency: None,
            backend: BackendKind::default(),
            backend_switches: 0,
            tenant: None,
            span_stats: None,
            network: None,
        }
    }

    /// Sets the per-feature completed request counts.
    #[must_use]
    pub fn with_feature_counts(mut self, v: Vec<u64>) -> Self {
        self.feature_counts = v;
        self
    }

    /// Sets the per-feature completed requests/second.
    #[must_use]
    pub fn with_feature_tps(mut self, v: Vec<f64>) -> Self {
        self.feature_tps = v;
        self
    }

    /// Sets the per-feature mean response times.
    #[must_use]
    pub fn with_feature_response(mut self, v: Vec<f64>) -> Self {
        self.feature_response = v;
        self
    }

    /// Sets the per-endpoint completed invocations/second.
    #[must_use]
    pub fn with_endpoint_tps(mut self, v: Vec<Vec<f64>>) -> Self {
        self.endpoint_tps = v;
        self
    }

    /// Sets the per-service CPU utilisations.
    #[must_use]
    pub fn with_service_utilization(mut self, v: Vec<f64>) -> Self {
        self.service_utilization = v;
        self
    }

    /// Sets the per-service busy-core averages.
    #[must_use]
    pub fn with_service_busy_cores(mut self, v: Vec<f64>) -> Self {
        self.service_busy_cores = v;
        self
    }

    /// Sets the per-service allocated-core averages.
    #[must_use]
    pub fn with_service_alloc_cores(mut self, v: Vec<f64>) -> Self {
        self.service_alloc_cores = v;
        self
    }

    /// Sets the per-service serving replica counts (and, unless overridden
    /// by [`WindowReport::with_service_ready_replicas`], the ready
    /// counts too — the healthy-cluster case).
    #[must_use]
    pub fn with_service_replicas(mut self, v: Vec<usize>) -> Self {
        self.service_ready_replicas = v.clone();
        self.service_replicas = v;
        self
    }

    /// Sets the per-service ready (serving) replica counts.
    #[must_use]
    pub fn with_service_ready_replicas(mut self, v: Vec<usize>) -> Self {
        self.service_ready_replicas = v;
        self
    }

    /// Sets the per-service CPU shares.
    #[must_use]
    pub fn with_service_shares(mut self, v: Vec<f64>) -> Self {
        self.service_shares = v;
        self
    }

    /// Sets the per-service availability fractions.
    #[must_use]
    pub fn with_service_availability(mut self, v: Vec<f64>) -> Self {
        self.service_availability = v;
        self
    }

    /// Sets the per-server utilisations.
    #[must_use]
    pub fn with_server_utilization(mut self, v: Vec<f64>) -> Self {
        self.server_utilization = v;
        self
    }

    /// Sets the total completed requests/second.
    #[must_use]
    pub fn with_total_tps(mut self, v: f64) -> Self {
        self.total_tps = v;
        self
    }

    /// Sets the mean concurrent users.
    #[must_use]
    pub fn with_avg_users(mut self, v: f64) -> Self {
        self.avg_users = v;
        self
    }

    /// Sets the concurrent users at window end.
    #[must_use]
    pub fn with_users_at_end(mut self, v: usize) -> Self {
        self.users_at_end = v;
        self
    }

    /// Sets the peak sub-interval arrival rate.
    #[must_use]
    pub fn with_peak_arrival_rate(mut self, v: f64) -> Self {
        self.peak_arrival_rate = v;
        self
    }

    /// Sets the peak in-system user count.
    #[must_use]
    pub fn with_peak_in_system(mut self, v: f64) -> Self {
        self.peak_in_system = v;
        self
    }

    /// Sets the time-averaged in-system user count.
    #[must_use]
    pub fn with_avg_in_system(mut self, v: f64) -> Self {
        self.avg_in_system = v;
        self
    }

    /// Sets the monitor-dropout fraction.
    #[must_use]
    pub fn with_monitor_dropout_fraction(mut self, v: f64) -> Self {
        self.monitor_dropout_fraction = v;
        self
    }

    /// Sets the dropped scaling-batch count.
    #[must_use]
    pub fn with_failed_actuations(mut self, v: usize) -> Self {
        self.failed_actuations = v;
        self
    }

    /// Sets the measured scale-latency statistics.
    #[must_use]
    pub fn with_scale_latency(mut self, v: Option<ScaleLatencyStats>) -> Self {
        self.scale_latency = v;
        self
    }

    /// Sets the per-service sampled-span aggregates.
    #[must_use]
    pub fn with_span_stats(mut self, v: Option<Vec<ServiceSpanStats>>) -> Self {
        self.span_stats = v;
        self
    }

    /// Window length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Whether the monitoring plane was dark for more than `max_dropout`
    /// of the window — the scrape-based counters (counts, TPS, response
    /// times, peaks) under-report and should not be re-fit against.
    pub fn degraded(&self, max_dropout: f64) -> bool {
        self.monitor_dropout_fraction > max_dropout
    }

    /// Observed request mix (fractions per feature); `None` if the window
    /// saw no requests.
    pub fn observed_mix(&self) -> Option<Vec<f64>> {
        let total: u64 = self.feature_counts.iter().sum();
        if total == 0 {
            return None;
        }
        Some(
            self.feature_counts
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> WindowReport {
        WindowReport::for_span(0.0, 300.0)
            .with_feature_counts(vec![300, 100])
            .with_feature_tps(vec![1.0, 1.0 / 3.0])
            .with_feature_response(vec![0.1, 0.2])
            .with_endpoint_tps(vec![vec![1.0]])
            .with_service_utilization(vec![0.5])
            .with_service_busy_cores(vec![0.5])
            .with_service_alloc_cores(vec![1.0])
            .with_service_replicas(vec![1])
            .with_service_shares(vec![1.0])
            .with_service_availability(vec![1.0])
            .with_server_utilization(vec![0.25])
            .with_total_tps(4.0 / 3.0)
            .with_avg_users(10.0)
            .with_users_at_end(10)
            .with_peak_arrival_rate(2.0)
            .with_peak_in_system(3.0)
            .with_avg_in_system(2.0)
    }

    #[test]
    fn duration_and_mix() {
        let r = report();
        assert_eq!(r.duration(), 300.0);
        let mix = r.observed_mix().unwrap();
        assert!((mix[0] - 0.75).abs() < 1e-12);
        assert!((mix[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_window_has_no_mix() {
        let mut r = report();
        r.feature_counts = vec![0, 0];
        assert_eq!(r.observed_mix(), None);
    }

    #[test]
    fn with_replicas_defaults_ready_to_live() {
        let r = report();
        assert_eq!(r.service_ready_replicas, vec![1]);
        let partial = report().with_service_ready_replicas(vec![0]);
        assert_eq!(partial.service_replicas, vec![1]);
        assert_eq!(partial.service_ready_replicas, vec![0]);
    }

    #[test]
    fn degraded_thresholds() {
        let healthy = report();
        assert!(!healthy.degraded(0.25));
        let dark = report().with_monitor_dropout_fraction(0.6);
        assert!(dark.degraded(0.25));
        assert!(!dark.degraded(0.75));
    }
}
