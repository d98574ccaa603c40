//! Cluster-side telemetry: DES event counts and scale-action latency.
//!
//! An *event* is something the engine handed to the cluster and the
//! cluster acted on: a calendar timer dispatched, or a processor's
//! pending completion fired. Bookkeeping the engine does for itself —
//! overwriting a processor's due time, dropping one that went stale — is
//! not an event.
//!
//! The counters live on the [`Cluster`](crate::runtime::Cluster) and are
//! incremented as events dispatch; they observe the simulation without
//! feeding anything back into it (no RNG draws, no float state that the
//! dynamics read), so enabling or ignoring them leaves every window
//! report bitwise identical.

use serde::{Deserialize, Serialize};

/// Summary statistics over the issue-to-ready scale-latency samples in
/// [`ClusterTelemetry::scale_latencies`]. This is the one typed view the
/// controller's actuation horizon and the bench reports both read, so
/// "how long does a scale-up take here" has a single definition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleLatencyStats {
    /// Mean issue-to-ready latency in seconds.
    pub mean: f64,
    /// 95th-percentile latency (nearest-rank over the samples).
    pub p95: f64,
    /// Largest observed latency.
    pub max: f64,
    /// Number of samples summarised.
    pub count: usize,
}

/// Counters accumulated over a cluster's whole lifetime.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterTelemetry {
    /// `UserReady` events dispatched (client request issues).
    pub user_ready_events: u64,
    /// `PopulationChange` events dispatched.
    pub population_change_events: u64,
    /// `ReplicaReady` events dispatched (container start-ups completed).
    pub replica_ready_events: u64,
    /// Processor completions handled: each time a processor's pending
    /// completion came due, the jobs finishing at that instant (one,
    /// unless several tie within 1e-12 s) left the CPU together. Due
    /// times superseded before they fired are not counted.
    pub processor_check_events: u64,
    /// `ApplyScaling` events dispatched (batches reaching the
    /// orchestration API, whether applied or rejected).
    pub apply_scaling_events: u64,
    /// `LatencyDone` events dispatched (I/O / downstream-call phases).
    pub latency_done_events: u64,
    /// `Fault` events dispatched (injected fault-schedule entries).
    pub fault_events: u64,
    /// `FluidStep` events dispatched (fluid-backend aggregation steps,
    /// including steps invalidated by a backend switch).
    #[serde(default)]
    pub fluid_step_events: u64,
    /// `BackendCheck` events dispatched (hybrid-policy re-evaluations).
    #[serde(default)]
    pub backend_check_events: u64,
    /// `NetTransit` events dispatched (cross-server call round trips
    /// priced by the link fabric; zero without a topology).
    #[serde(default)]
    pub net_transit_events: u64,
    /// `SpikeHint` events dispatched (a-priori burst onsets announced by
    /// the population source — trace replays; synthetic profiles never
    /// fire these).
    #[serde(default)]
    pub spike_hint_events: u64,
    /// Backend handovers (fluid ↔ per-user) performed by the hybrid
    /// policy over the cluster's lifetime.
    #[serde(default)]
    pub backend_switches: u64,
    /// Scaling batches rejected by an actuation-failure fault.
    pub dropped_batches: u64,
    /// Sampled client requests whose span trees were recorded (root
    /// completion observed by the monitoring plane).
    #[serde(default)]
    pub span_requests_sampled: u64,
    /// Individual spans retained in the export log.
    #[serde(default)]
    pub spans_recorded: u64,
    /// Sampled requests whose spans were dropped because the export log
    /// was full (their window aggregates are still counted).
    #[serde(default)]
    pub span_requests_dropped: u64,
    /// Scale-action latency samples: seconds from a controller *issuing*
    /// a scale-up (`schedule_scaling`) to each newly spawned replica
    /// becoming ready — actuation delay plus start-up delay, the
    /// end-to-end cost ATOM's planner has to absorb.
    pub scale_latencies: Vec<f64>,
}

impl ClusterTelemetry {
    /// Total DES events handled: calendar timers dispatched plus
    /// processor completions fired.
    pub fn total_events(&self) -> u64 {
        self.user_ready_events
            + self.population_change_events
            + self.replica_ready_events
            + self.processor_check_events
            + self.apply_scaling_events
            + self.latency_done_events
            + self.fault_events
            + self.fluid_step_events
            + self.backend_check_events
            + self.spike_hint_events
            + self.net_transit_events
    }

    /// Typed summary of the scale-latency samples (`None` with no
    /// samples). The p95 is nearest-rank: the smallest sample `x` such
    /// that at least 95% of samples are `≤ x`.
    pub(crate) fn scale_latency_stats(&self) -> Option<ScaleLatencyStats> {
        if self.scale_latencies.is_empty() {
            return None;
        }
        let mut sorted = self.scale_latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        Some(ScaleLatencyStats {
            mean: sorted.iter().sum::<f64>() / n as f64,
            p95: atom_sim::nearest_rank(&sorted, 0.95),
            max: sorted[n - 1],
            count: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_latency_summaries() {
        let mut t = ClusterTelemetry::default();
        assert_eq!(t.total_events(), 0);
        assert_eq!(t.scale_latency_stats(), None);
        t.user_ready_events = 10;
        t.fault_events = 2;
        t.scale_latencies = vec![150.0, 250.0];
        assert_eq!(t.total_events(), 12);
        let s = t.scale_latency_stats().unwrap();
        assert_eq!((s.mean, s.max, s.count), (200.0, 250.0, 2));
    }

    #[test]
    fn typed_stats_summarise_the_samples() {
        let t = ClusterTelemetry {
            scale_latencies: (1..=20).map(|i| i as f64 * 10.0).collect(),
            ..ClusterTelemetry::default()
        };
        let s = t.scale_latency_stats().unwrap();
        assert_eq!((s.mean, s.max, s.count), (105.0, 200.0, 20));
        // Nearest-rank p95 of 20 samples is the 19th order statistic.
        assert_eq!(s.p95, 190.0);
    }

    #[test]
    fn p95_of_a_single_sample_is_that_sample() {
        let t = ClusterTelemetry {
            scale_latencies: vec![42.0],
            ..ClusterTelemetry::default()
        };
        let s = t.scale_latency_stats().unwrap();
        assert_eq!((s.mean, s.p95, s.max, s.count), (42.0, 42.0, 42.0, 1));
    }
}
