//! What-if analysis: the operator-facing façade over the analyzer and
//! the model solver.
//!
//! ATOM's internals answer one question per window ("what is the best
//! configuration?"); operators routinely want the adjacent one: *"what
//! would happen if I ran configuration C under the current workload?"* —
//! before a deploy, in a capacity review, or to sanity-check the
//! controller. This module exposes exactly that, reusing the MAPE-K
//! analyzer so the prediction is made for the *observed* workload.

use atom_cluster::WindowReport;
use atom_lqn::bottleneck::{analyze, BottleneckReport};
use atom_lqn::{DecisionVector, LqnError};

use crate::analyzer::WorkloadAnalyzer;
use crate::binding::ModelBinding;
use crate::evaluator::CandidateEvaluator;

/// Predicted steady-state outcome of running a scaling decision under an
/// observed workload.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// System transactions per second.
    pub tps: f64,
    /// Mean client response time (seconds, excluding think time).
    pub response_time: f64,
    /// Per-feature response times (seconds), in binding feature order.
    pub feature_response: Vec<f64>,
    /// Per-service CPU utilisation, in binding service order.
    pub service_utilization: Vec<f64>,
    /// Total allocated CPU of the decision (`Σ rᵢsᵢ`).
    pub total_cpu: f64,
    /// Layered-bottleneck diagnosis at this decision.
    pub bottlenecks: BottleneckReport,
}

/// Predicts the outcome of `decision` under the workload observed in
/// `report` (its user count, peak rate, and request mix).
///
/// # Errors
///
/// Propagates model-instantiation and solver failures (e.g. a decision
/// referencing unknown tasks).
///
/// # Examples
///
/// See `tests/` and the `atom-cli` `run` output; typical use:
///
/// ```ignore
/// let prediction = what_if(&binding, &last_report, &candidate)?;
/// if prediction.feature_response[CARTS] > sla { /* reject */ }
/// ```
pub fn what_if(
    binding: &ModelBinding,
    report: &WindowReport,
    decision: &DecisionVector,
) -> Result<Prediction, LqnError> {
    let mut analyzer = WorkloadAnalyzer::new();
    let model = analyzer.instantiate(binding, report)?;
    CandidateEvaluator::solver_only(&model).with_solution(decision, |configured, solution| {
        let feature_response = binding
            .feature_entries
            .iter()
            .map(|&e| solution.entry_residence(e))
            .collect();
        let service_utilization = binding
            .services
            .iter()
            .map(|s| solution.task_utilization(s.task))
            .collect();
        let bottlenecks = analyze(configured, solution);
        Prediction {
            tps: solution.client_throughput,
            response_time: solution.client_response_time,
            feature_response,
            service_utilization,
            total_cpu: decision.total_cpu_share(),
            bottlenecks,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::ServiceBinding;
    use atom_cluster::ServiceId;
    use atom_lqn::{LqnModel, TaskId};

    fn binding() -> ModelBinding {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", 8, 1.0);
        let web = m.add_task("web", p, 64, 1).unwrap();
        m.set_cpu_share(web, Some(0.5)).unwrap();
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

    fn report(users: usize) -> WindowReport {
        WindowReport::for_span(0.0, 300.0)
            .with_feature_counts(vec![100])
            .with_feature_tps(vec![100.0 / 300.0])
            .with_feature_response(vec![0.1])
            .with_endpoint_tps(vec![vec![100.0 / 300.0]])
            .with_service_utilization(vec![0.5])
            .with_service_busy_cores(vec![0.25])
            .with_service_alloc_cores(vec![0.5])
            .with_service_replicas(vec![1])
            .with_service_shares(vec![0.5])
            .with_server_utilization(vec![0.1])
            .with_total_tps(100.0 / 300.0)
            .with_avg_users(users as f64)
            .with_users_at_end(users)
    }

    #[test]
    fn more_capacity_predicts_more_throughput_under_pressure() {
        let b = binding();
        let r = report(2000); // offered 1000/s >> capacity
        let mut small = DecisionVector::new();
        small.set(TaskId(0), 1, 10);
        let mut large = DecisionVector::new();
        large.set(TaskId(0), 8, 20);
        let p_small = what_if(&b, &r, &small).unwrap();
        let p_large = what_if(&b, &r, &large).unwrap();
        assert!(p_large.tps > 2.0 * p_small.tps);
        assert!(p_large.response_time < p_small.response_time);
        assert!(p_large.total_cpu > p_small.total_cpu);
        // The small config is saturated and diagnosed as such.
        assert!(!p_small.bottlenecks.root_bottlenecks.is_empty());
        assert!(p_small.service_utilization[0] > 0.9);
    }

    #[test]
    fn light_load_prediction_matches_offered_rate() {
        let b = binding();
        let r = report(20); // offered 10/s, capacity 50/s
        let mut d = DecisionVector::new();
        d.set(TaskId(0), 1, 10);
        let p = what_if(&b, &r, &d).unwrap();
        assert!((p.tps - 10.0).abs() < 1.0, "tps {}", p.tps);
        assert!(p.bottlenecks.root_bottlenecks.is_empty());
    }

    #[test]
    fn invalid_decision_is_an_error() {
        let b = binding();
        let r = report(10);
        let mut d = DecisionVector::new();
        d.set(TaskId(99), 1, 10);
        assert!(what_if(&b, &r, &d).is_err());
    }
}
