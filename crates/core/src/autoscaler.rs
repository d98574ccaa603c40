//! The common autoscaler interface.

use atom_cluster::{ScaleAction, WindowReport};

/// An autoscaling controller: consumes one monitoring window, produces
/// scaling orders.
///
/// Implemented by [`crate::Atom`], [`crate::UhScaler`], and
/// [`crate::UvScaler`]; the experiment runner drives any of them
/// uniformly.
pub trait Autoscaler {
    /// Human-readable name used in experiment outputs ("ATOM", "UH", …).
    fn name(&self) -> &str;

    /// Decides the scaling actions after observing `report`. An empty
    /// vector means "no change this window".
    fn decide(&mut self, report: &WindowReport) -> Vec<ScaleAction>;

    /// Seconds between the end of the monitoring window and the actions
    /// taking effect. Rule-based scalers act immediately; ATOM pays its
    /// optimisation + planning latency (the paper reports ~2.5 minutes on
    /// average).
    fn actuation_delay(&self) -> f64 {
        0.0
    }

    /// Drains the structured journal record of the most recent
    /// [`decide`](Autoscaler::decide) call, if the scaler keeps one.
    ///
    /// Records are assembled purely from data the decision already
    /// computed — taking (or dropping) them never changes control
    /// behaviour. The default implementation journals nothing.
    fn take_decision_record(&mut self) -> Option<atom_obs::DecisionRecord> {
        None
    }
}

/// The monitor-phase snapshot of a report, as every scaler journals it.
pub(crate) fn snapshot_of(report: &WindowReport, degraded: bool) -> atom_obs::TelemetrySnapshot {
    atom_obs::TelemetrySnapshot {
        users: report.users_at_end as u64,
        observed_tps: report.total_tps,
        peak_arrival_rate: report.peak_arrival_rate,
        monitor_dropout: report.monitor_dropout_fraction,
        degraded,
        backend: report.backend.to_string(),
        backend_switches: report.backend_switches as u64,
    }
}

/// A no-op autoscaler: the "do nothing" control used to isolate the
/// effect of scaling in experiments.
#[derive(Debug, Clone, Default)]
pub struct NoopScaler;

impl Autoscaler for NoopScaler {
    fn name(&self) -> &str {
        "NOOP"
    }

    fn decide(&mut self, _report: &WindowReport) -> Vec<ScaleAction> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_never_acts() {
        let mut s = NoopScaler;
        let report = WindowReport::for_span(0.0, 300.0)
            .with_feature_counts(vec![1])
            .with_feature_tps(vec![1.0])
            .with_feature_response(vec![0.1])
            .with_service_utilization(vec![0.99])
            .with_service_busy_cores(vec![1.0])
            .with_service_alloc_cores(vec![1.0])
            .with_service_replicas(vec![1])
            .with_service_shares(vec![1.0])
            .with_server_utilization(vec![0.99])
            .with_total_tps(1.0)
            .with_avg_users(1.0)
            .with_users_at_end(1);
        assert!(s.decide(&report).is_empty());
        assert_eq!(s.actuation_delay(), 0.0);
        assert_eq!(s.name(), "NOOP");
    }
}
