//! The rule-based baseline autoscalers of §V-A.
//!
//! Both monitor per-service CPU utilisation. When a service's utilisation
//! reaches the trigger level ("a value near the limit of 40%"), the
//! scaler doubles its allocated CPU capacity:
//!
//! * **UH** doubles the replica count at unchanged per-replica share, but
//!   only for *stateless* services (stateful services are pre-allocated a
//!   full core, as in the paper's UH setup);
//! * **UV** doubles the per-replica share, for all services.
//!
//! This is the control pattern of industrial autoscalers (AWS
//! target-tracking, the Kubernetes HPA).

use atom_cluster::{AppSpec, ScaleAction, ServiceId, WindowReport};
use atom_obs::{ChosenAction, DecisionRecord};

use crate::autoscaler::{snapshot_of, Autoscaler};

/// Builds the journal record of one rule-based decision: snapshot, the
/// configuration in force, and the actions; rule scalers estimate no
/// demands, search no candidates and diagnose nothing.
fn rule_record(
    name: &str,
    window: u64,
    report: &WindowReport,
    degraded: bool,
    spec: &AppSpec,
    actions: &[ScaleAction],
) -> DecisionRecord {
    let entry = |si: usize, replicas: usize, share: f64| ChosenAction {
        service: spec.services[si].name.clone(),
        replicas: replicas as u64,
        share,
    };
    let chosen: Vec<_> = actions
        .iter()
        .map(|a| entry(a.service.0, a.replicas, a.share))
        .collect();
    let mut record = DecisionRecord::new(window, report.end, name, snapshot_of(report, degraded));
    record.incumbent = (0..spec.services.len())
        .map(|si| entry(si, report.service_replicas[si], report.service_shares[si]))
        .collect();
    record.actuation.issued = chosen.clone();
    record.actuation.held = actions.is_empty();
    record.actuation.reason =
        degraded.then(|| "monitor dark: utilisation readings untrusted".into());
    record.chosen = chosen;
    record
}

/// Maximum tolerated monitor-dropout fraction: a window darker than this
/// under-reports utilisation, and doubling on such readings would be
/// acting on noise — the scaler holds instead. More lenient than ATOM's
/// threshold because the rules only ever scale *up*, so a missed trigger
/// costs a window, not a bad re-fit.
const MAX_DROPOUT: f64 = 0.5;

/// Fraction of the *allocated* capacity that triggers a doubling. The
/// paper's example reads "if the CPU utilization reaches 35%, a value near
/// to the limit of 40%" for a container whose share is 0.4 — i.e.
/// utilisation is metered in cores against the share as the limit, which
/// is 35/40 = 0.875 of the allocation. Scaling before ~87% of the
/// allocation is busy would pre-scale starved downstream services and
/// erase the layered-bottleneck behaviour of Fig. 11.
const TRIGGER_UTILIZATION: f64 = 0.875;

/// Hard cap on replicas per service.
const MAX_REPLICAS: usize = 16;

/// Hard cap on per-replica share (cores).
const MAX_SHARE: f64 = 4.0;

/// Utilisation-triggered **horizontal** doubling (stateless services
/// only).
#[derive(Debug, Clone)]
pub struct UhScaler {
    spec: AppSpec,
    window: u64,
    last_record: Option<DecisionRecord>,
}

impl UhScaler {
    /// Creates the scaler for an application.
    pub fn new(spec: &AppSpec) -> Self {
        UhScaler {
            spec: spec.clone(),
            window: 0,
            last_record: None,
        }
    }
}

impl Autoscaler for UhScaler {
    fn name(&self) -> &str {
        "UH"
    }

    fn decide(&mut self, report: &WindowReport) -> Vec<ScaleAction> {
        let window = self.window;
        self.window += 1;
        let degraded = report.degraded(MAX_DROPOUT);
        let mut actions = Vec::new();
        if !degraded {
            for (si, svc) in self.spec.services.iter().enumerate() {
                if svc.stateful {
                    continue; // UH never scales stateful services
                }
                let util = report.service_utilization[si];
                if util >= TRIGGER_UTILIZATION {
                    // Respect both the deployment's per-service bound (the
                    // paper's Q_i) and the scaler's own cap.
                    let cap = svc.max_replicas.min(MAX_REPLICAS);
                    let replicas = (report.service_replicas[si] * 2).min(cap);
                    if replicas > report.service_replicas[si] {
                        actions.push(ScaleAction {
                            service: ServiceId(si),
                            replicas,
                            share: report.service_shares[si],
                        });
                    }
                }
            }
        } // else: utilisation readings are garbage — hold
        self.last_record = Some(rule_record(
            "UH", window, report, degraded, &self.spec, &actions,
        ));
        actions
    }

    fn take_decision_record(&mut self) -> Option<DecisionRecord> {
        self.last_record.take()
    }
}

/// Utilisation-triggered **vertical** doubling (all services).
#[derive(Debug, Clone)]
pub struct UvScaler {
    spec: AppSpec,
    window: u64,
    last_record: Option<DecisionRecord>,
}

impl UvScaler {
    /// Creates the scaler for an application.
    pub fn new(spec: &AppSpec) -> Self {
        UvScaler {
            spec: spec.clone(),
            window: 0,
            last_record: None,
        }
    }
}

impl Autoscaler for UvScaler {
    fn name(&self) -> &str {
        "UV"
    }

    fn decide(&mut self, report: &WindowReport) -> Vec<ScaleAction> {
        let window = self.window;
        self.window += 1;
        let degraded = report.degraded(MAX_DROPOUT);
        let mut actions = Vec::new();
        if !degraded {
            for si in 0..self.spec.services.len() {
                let util = report.service_utilization[si];
                if util >= TRIGGER_UTILIZATION {
                    let share = (report.service_shares[si] * 2.0).min(MAX_SHARE);
                    if share > report.service_shares[si] {
                        actions.push(ScaleAction {
                            service: ServiceId(si),
                            replicas: report.service_replicas[si],
                            share,
                        });
                    }
                }
            }
        } // else: utilisation readings are garbage — hold
        self.last_record = Some(rule_record(
            "UV", window, report, degraded, &self.spec, &actions,
        ));
        actions
    }

    fn take_decision_record(&mut self) -> Option<DecisionRecord> {
        self.last_record.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AppSpec {
        let mut spec = AppSpec::new();
        let node = spec.add_server("n", 4, 1.0);
        let api = spec.add_service("api", node, 8, 1, 0.4);
        let db = spec.add_service("db", node, 8, 1, 1.0);
        spec.service_mut(db).stateful = true;
        let ep = spec.add_endpoint(api, "op", 0.01, 1.0);
        spec.add_feature("op", api, ep);
        let _ = spec.add_endpoint(db, "q", 0.01, 1.0);
        spec
    }

    fn report(utils: Vec<f64>) -> WindowReport {
        WindowReport::for_span(0.0, 300.0)
            .with_feature_counts(vec![100])
            .with_feature_tps(vec![1.0])
            .with_feature_response(vec![0.1])
            .with_service_utilization(utils)
            .with_service_busy_cores(vec![0.2, 0.2])
            .with_service_alloc_cores(vec![0.4, 1.0])
            .with_service_replicas(vec![1, 1])
            .with_service_shares(vec![0.4, 1.0])
            .with_server_utilization(vec![0.2])
            .with_total_tps(1.0)
            .with_avg_users(10.0)
            .with_users_at_end(10)
    }

    #[test]
    fn uh_doubles_replicas_when_hot() {
        let mut uh = UhScaler::new(&spec());
        let actions = uh.decide(&report(vec![0.9, 0.95]));
        // Only the stateless api scales; db is stateful.
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].service, ServiceId(0));
        assert_eq!(actions[0].replicas, 2);
        assert_eq!(actions[0].share, 0.4);
    }

    #[test]
    fn uh_idle_does_nothing() {
        let mut uh = UhScaler::new(&spec());
        assert!(uh.decide(&report(vec![0.1, 0.1])).is_empty());
        // Moderate load below the trigger does not scale either: this is
        // what keeps starved downstream services unscaled (Fig. 11).
        assert!(uh.decide(&report(vec![0.5, 0.5])).is_empty());
    }

    #[test]
    fn uv_doubles_share_for_all() {
        let mut uv = UvScaler::new(&spec());
        let actions = uv.decide(&report(vec![0.9, 0.95]));
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[0].share, 0.8);
        assert_eq!(actions[0].replicas, 1);
        assert_eq!(actions[1].share, 2.0);
    }

    #[test]
    fn degraded_windows_are_skipped() {
        let mut uh = UhScaler::new(&spec());
        let mut uv = UvScaler::new(&spec());
        // Hot readings, but the monitor was dark 60% of the window: the
        // utilisation is under-counted garbage — and still looked hot, so
        // acting on it would be pure coincidence. Both scalers hold.
        let dark = report(vec![0.9, 0.95]).with_monitor_dropout_fraction(0.6);
        assert!(uh.decide(&dark).is_empty());
        assert!(uv.decide(&dark).is_empty());
        // A brief blip below the threshold is tolerated.
        let blip = report(vec![0.9, 0.95]).with_monitor_dropout_fraction(0.2);
        assert!(!uh.decide(&blip).is_empty());
        assert!(!uv.decide(&blip).is_empty());
    }

    #[test]
    fn rule_scalers_journal_their_decisions() {
        let mut uh = UhScaler::new(&spec());
        assert!(uh.take_decision_record().is_none(), "no decision yet");
        let actions = uh.decide(&report(vec![0.9, 0.95]));
        let rec = uh.take_decision_record().expect("record");
        assert!(uh.take_decision_record().is_none(), "take() drains");
        assert_eq!((rec.window, rec.scaler.as_str()), (0, "UH"));
        assert_eq!(rec.actuation.issued.len(), actions.len());
        assert_eq!(rec.actuation.issued[0].service, "api");
        assert!(!rec.actuation.held);
        assert!(rec.evaluator.is_none() && rec.ga.is_none() && rec.bottlenecks.is_none());
        let incumbent: Vec<_> = rec
            .incumbent
            .iter()
            .map(|c| (c.service.as_str(), c.replicas, c.share))
            .collect();
        assert_eq!(incumbent, [("api", 1, 0.4), ("db", 1, 1.0)]);
        // A degraded window journals the hold with its reason.
        let dark = report(vec![0.9, 0.95]).with_monitor_dropout_fraction(0.6);
        let mut uv = UvScaler::new(&spec());
        assert!(uv.decide(&dark).is_empty());
        let rec = uv.take_decision_record().expect("record");
        assert!(rec.snapshot.degraded && rec.actuation.held);
        // With no diagnosis, the rendered record is the reason alone.
        let text = rec.explanation().expect("reason");
        assert!(text.contains("dark"));
        assert_eq!(rec.actuation.reason, Some(text));
    }

    #[test]
    fn caps_respected() {
        // A service allowed 64 replicas still stops at the scaler's 16.
        let mut app = spec();
        app.service_mut(ServiceId(0)).max_replicas = 64;
        let mut uh = UhScaler::new(&app);
        let mut r = report(vec![0.95, 0.1]);
        r.service_replicas = vec![12, 1];
        assert_eq!(uh.decide(&r)[0].replicas, MAX_REPLICAS, "doubling capped");
        r.service_replicas = vec![MAX_REPLICAS, 1];
        assert!(uh.decide(&r).is_empty(), "already at max replicas");
        let mut uv = UvScaler::new(&app);
        let mut r = report(vec![0.95, 0.1]);
        r.service_shares = vec![3.0, 1.0];
        assert_eq!(uv.decide(&r)[0].share, MAX_SHARE, "doubling capped");
        r.service_shares = vec![MAX_SHARE, 1.0];
        assert!(uv.decide(&r).is_empty(), "already at max share");
    }
}
