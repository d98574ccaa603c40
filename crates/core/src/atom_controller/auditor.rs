//! The auditor: the knowledge-phase check of the LQN against what
//! sampled spans observed.

use std::collections::VecDeque;

use atom_cluster::WindowReport;
use atom_lqn::DecisionVector;
use atom_obs::{DriftRecord, ServiceDrift};

use crate::binding::ModelBinding;
use crate::evaluator::CandidateEvaluator;

/// Audited windows averaged into the rolling drift sMAPE.
const DRIFT_SMAPE_WINDOW: usize = 8;

/// The per-station prediction made when a configuration was planned,
/// held until span aggregates observe the window it governed.
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

/// Owns the model audit's state. Runs no arithmetic unless span sampling
/// feeds the monitor.
#[derive(Debug, Clone, Default)]
pub(super) struct Auditor {
    /// The most recently planned configuration's prediction, awaiting
    /// its span-observed outcome.
    last_prediction: Option<StationPrediction>,
    /// Per-window residence sMAPE of the last few audits (rolling drift).
    drift_smape: VecDeque<f64>,
    /// The same for *network* residence; stays empty without a priced
    /// topology.
    net_smape: VecDeque<f64>,
}

/// One sMAPE term `2|p - o| / (|p| + |o|)`, added to `(sum, n)` when its
/// denominator is positive.
fn add_smape(acc: &mut (f64, usize), predicted: f64, observed: f64) {
    let denom = predicted.abs() + observed.abs();
    if denom > 0.0 {
        acc.0 += 2.0 * (predicted - observed).abs() / denom;
        acc.1 += 1;
    }
}

/// Pushes this window's mean sMAPE (if it scored any service) into
/// `recent`, bounded to [`DRIFT_SMAPE_WINDOW`], and returns the rolling
/// mean (`None` while nothing has ever been scored).
fn roll(recent: &mut VecDeque<f64>, (sum, n): (f64, usize)) -> Option<f64> {
    if n > 0 {
        if recent.len() == DRIFT_SMAPE_WINDOW {
            recent.pop_front();
        }
        recent.push_back(sum / n as f64);
    }
    (!recent.is_empty()).then(|| recent.iter().sum::<f64>() / recent.len() as f64)
}

impl Auditor {
    /// Scores the prediction made for the previously planned
    /// configuration against the span aggregates that observed it.
    /// Returns `None` — and runs no arithmetic — unless the report
    /// carries span statistics and a prediction is waiting.
    pub(super) fn audit(&mut self, report: &WindowReport) -> Option<DriftRecord> {
        let stats = report.span_stats.as_ref()?;
        let pred = self.last_prediction.take()?;
        let mut services = Vec::new();
        let mut smape = (0.0, 0usize);
        let mut net_smape = (0.0, 0usize);
        for (name, si, p_res, p_util, p_net) in &pred.services {
            let Some(s) = stats.get(*si) else { continue };
            if s.samples == 0 {
                // No sampled request touched the service this window;
                // there is no observation to score against.
                continue;
            }
            let o_res = s.residence_mean;
            let o_util = report.service_utilization.get(*si).copied().unwrap_or(0.0);
            add_smape(&mut smape, *p_res, o_res);
            // The network term is audited only where it exists: with no
            // priced topology both sides are exactly 0.0 and the row
            // (and the rolling deque) stays empty.
            let o_net = s.net_mean;
            let net_audited = *p_net > 0.0 || o_net > 0.0;
            if net_audited {
                add_smape(&mut net_smape, *p_net, o_net);
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
        Some(DriftRecord {
            predicted_window: pred.window,
            services,
            rolling_smape: roll(&mut self.drift_smape, smape),
            network_rolling_smape: roll(&mut self.net_smape, net_smape),
        })
    }

    /// Solves the `planned` configuration once more and keeps its
    /// per-station residence (per-entry residences weighted by entry
    /// throughput) and utilisation for the audit of the window it
    /// governs. `window` is the one the plan was made in.
    pub(super) fn predict(
        &mut self,
        binding: &ModelBinding,
        evaluator: &mut CandidateEvaluator<'_>,
        planned: &DecisionVector,
        window: u64,
    ) {
        let services = evaluator.with_solution(planned, |model, sol| {
            binding
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
                    // throughput. Exactly 0.0 without a priced topology
                    // (every `net_delay` is 0.0).
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
        });
        self.last_prediction = services
            .ok()
            .map(|services| StationPrediction { window, services });
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::Atom;
    use super::*;
    use crate::autoscaler::Autoscaler;
    use crate::binding::ServiceBinding;
    use atom_cluster::ServiceId;
    use atom_lqn::LqnModel;

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
        assert!(atom.auditor.drift_smape.len() <= DRIFT_SMAPE_WINDOW);
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
            assert!(atom.auditor.last_prediction.is_none());
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
}
