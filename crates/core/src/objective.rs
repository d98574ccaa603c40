//! The optimisation objective and constraints (paper §IV-B, eqs. 1–5).
//!
//! ATOM maximises the weighted sum `Θ = τ₁·B̂ − τ₂·Ĉ` where `B̂` is the
//! normalised revenue (feature throughputs weighted by business value ψ)
//! and `Ĉ` the normalised total allocated CPU, subject to:
//!
//! * (3) per-feature response times within the SLA `W_max`;
//! * (4) per-server total allocated share within the server's cores;
//! * (5) per-microservice utilisation within `U_max`.
//!
//! Constraint violations are aggregated into a single non-negative
//! magnitude consumed by the GA's feasibility-first selection, mirroring
//! Algorithm 1's `tolerance` check.

use atom_ga::Evaluation;
use atom_lqn::model::TaskKind;
use atom_lqn::{DecisionVector, LqnModel, LqnSolution};

use crate::binding::ModelBinding;

/// Objective weights, SLA, and capacity limits.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveSpec {
    /// Business value ψ of one completed request per feature.
    pub feature_weights: Vec<f64>,
    /// τ₁ — weight of normalised revenue.
    pub tau_revenue: f64,
    /// τ₂ — weight of normalised CPU cost.
    pub tau_cost: f64,
    /// Per-feature response-time SLA `W_max` (seconds;
    /// `f64::INFINITY` disables the constraint for a feature).
    pub sla_response: Vec<f64>,
    /// Per-microservice utilisation cap `U_max`.
    pub max_utilization: f64,
    /// Per-model-processor capacity `C_k^max` in cores, by processor
    /// index; processors not listed are unconstrained.
    pub server_capacity: Vec<(usize, f64)>,
}

impl ObjectiveSpec {
    /// A balanced default: revenue-dominant weighting (τ₁ = 1, τ₂ =
    /// 0.25), uniform ψ, no SLA, 95% utilisation cap.
    pub fn balanced(features: usize) -> Self {
        ObjectiveSpec {
            feature_weights: vec![1.0; features],
            tau_revenue: 1.0,
            tau_cost: 0.25,
            sla_response: vec![f64::INFINITY; features],
            max_utilization: 0.95,
            server_capacity: Vec::new(),
        }
    }

    /// Revenue `B = Σ_f ψ_f X_f` of a solution (eq. 1).
    pub(crate) fn revenue(&self, binding: &ModelBinding, solution: &LqnSolution) -> f64 {
        binding
            .feature_entries
            .iter()
            .zip(&self.feature_weights)
            .map(|(&e, &w)| w * solution.entry_throughput(e))
            .sum()
    }

    /// The ideal revenue used for normalisation: every user cycling at
    /// pure think-time speed, weighted by the current mix.
    pub(crate) fn ideal_revenue(&self, binding: &ModelBinding, model: &LqnModel) -> f64 {
        let client = model.task(binding.client);
        let think = match client.kind {
            TaskKind::Reference { think_time } => think_time.max(1e-9),
            TaskKind::Server => 1.0,
        };
        let offered = client.multiplicity as f64 / think;
        let client_entry = match model.reference_entry(binding.client) {
            Ok(e) => e,
            Err(_) => return 1.0,
        };
        let weighted_mix: f64 = model
            .entry(client_entry)
            .calls
            .iter()
            .map(|c| {
                let w = binding
                    .feature_entries
                    .iter()
                    .position(|&e| e == c.target)
                    .map(|i| self.feature_weights[i])
                    .unwrap_or(1.0);
                w * c.mean
            })
            .sum();
        (offered * weighted_mix).max(1e-9)
    }

    /// Total capacity of the constrained servers (for cost
    /// normalisation); falls back to the allocated total when no server
    /// capacities are set.
    fn capacity_scale(&self, allocated: f64) -> f64 {
        let total: f64 = self.server_capacity.iter().map(|&(_, c)| c).sum();
        if total > 0.0 {
            total
        } else {
            allocated.max(1.0)
        }
    }

    /// Scores a solved candidate decision: objective Θ (eq. 2) and
    /// aggregated constraint violation (eqs. 3–5).
    pub fn evaluate(
        &self,
        binding: &ModelBinding,
        model: &LqnModel,
        decision: &DecisionVector,
        solution: &LqnSolution,
    ) -> Evaluation {
        let revenue_hat = self.revenue(binding, solution) / self.ideal_revenue(binding, model);
        // `C = Σ_i r_i · s_i` summed per task in float — the expression
        // the pinned searches were scored with. The integer form
        // ([`DecisionVector::total_cpu_share`]) differs in the last ulp,
        // which is enough to flip a GA tie-break.
        let allocated: f64 = decision
            .iter()
            .map(|(_, d)| d.replicas as f64 * d.share())
            .sum();
        let cost_hat = allocated / self.capacity_scale(allocated);
        let theta = self.tau_revenue * revenue_hat - self.tau_cost * cost_hat;

        let mut violation = 0.0;
        // (3) SLA response times per feature.
        for ((&e, &w_max), _) in binding
            .feature_entries
            .iter()
            .zip(&self.sla_response)
            .zip(&self.feature_weights)
        {
            if w_max.is_finite() && w_max > 0.0 {
                let w = solution.entry_residence(e);
                if w > w_max {
                    violation += (w - w_max) / w_max;
                }
            }
        }
        // (4) per-server allocated share: `C_k` summed like the cost term,
        // per task in task order, over the decided tasks the model places
        // on server `k`; a server none of them runs on is unconstrained.
        let tasks = model.tasks();
        for &(proc, cap) in &self.server_capacity {
            let mut alloc = None;
            for (task, d) in decision.iter() {
                if tasks.get(task.0).is_some_and(|t| t.processor.0 == proc) {
                    *alloc.get_or_insert(0.0) += d.replicas as f64 * d.share();
                }
            }
            if let Some(alloc) = alloc.filter(|&a| a > cap) {
                violation += (alloc - cap) / cap;
            }
        }
        // (5) per-microservice utilisation.
        for s in binding.scalable() {
            let u = solution.task_utilization(s.task);
            if u > self.max_utilization {
                violation += (u - self.max_utilization) / self.max_utilization;
            }
        }
        if violation > 0.0 {
            Evaluation::infeasible(theta, violation)
        } else {
            Evaluation::feasible(theta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_lqn::analytic::{solve, SolverOptions};
    use atom_lqn::TaskId;

    fn setup() -> (ModelBinding, ObjectiveSpec) {
        let binding = crate::fixtures::chain((4, 1.0), &[("svc", 8, 1.0, &[0.01])], 200, 1.0);
        let mut obj = ObjectiveSpec::balanced(1);
        obj.server_capacity = vec![(0, 4.0)];
        (binding, obj)
    }

    #[test]
    fn feasible_config_scores_positive() {
        let (binding, obj) = setup();
        let mut model = binding.model.clone();
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 4, 20);
        decision.apply(&mut model).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let eval = obj.evaluate(&binding, &model, &decision, &sol);
        assert_eq!(eval.violation, 0.0);
        assert!(eval.objective > 0.0, "theta {}", eval.objective);
    }

    #[test]
    fn undersized_config_violates_utilization() {
        let (binding, obj) = setup();
        let mut model = binding.model.clone();
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 1, 10); // capacity 50/s vs 200 offered
        decision.apply(&mut model).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let eval = obj.evaluate(&binding, &model, &decision, &sol);
        assert!(eval.violation > 0.0, "should violate U_max");
    }

    #[test]
    fn sla_violation_detected() {
        let (binding, mut obj) = setup();
        obj.max_utilization = 2.0; // disable the utilisation constraint
        obj.sla_response = vec![0.001]; // impossible SLA
        let mut model = binding.model.clone();
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 2, 20);
        decision.apply(&mut model).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let eval = obj.evaluate(&binding, &model, &decision, &sol);
        assert!(eval.violation > 0.0);
    }

    #[test]
    fn server_capacity_violation_detected() {
        let (binding, mut obj) = setup();
        obj.max_utilization = 10.0;
        obj.server_capacity = vec![(0, 2.0)];
        let mut model = binding.model.clone();
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 8, 20); // 8 cores on a 2-core budget
        decision.apply(&mut model).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let eval = obj.evaluate(&binding, &model, &decision, &sol);
        assert!(eval.violation > 0.0);
    }

    #[test]
    fn server_capacity_sums_each_servers_tasks() {
        // web (2 × 0.50) and db (3 × 1.00) share processor 0, so
        // constraint (4) sees 4 cores there.
        let binding = crate::fixtures::web_db(100);
        let mut obj = ObjectiveSpec::balanced(1);
        obj.max_utilization = 10.0;
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 2, 10).set(TaskId(1), 3, 20);
        let mut model = binding.model.clone();
        decision.apply(&mut model).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let mut violation = |caps: Vec<(usize, f64)>, decision: &DecisionVector| {
            obj.server_capacity = caps;
            obj.evaluate(&binding, &model, decision, &sol).violation
        };
        assert_eq!(violation(vec![(0, 2.0)], &decision), 1.0);
        assert_eq!(violation(vec![(0, 4.0)], &decision), 0.0);
        // A server no decided task runs on is unconstrained.
        assert_eq!(violation(vec![(7, 0.5)], &decision), 0.0);
        // A task the model does not know places nothing.
        decision.set(TaskId(99), 5, 20);
        assert_eq!(violation(vec![(0, 2.0)], &decision), 1.0);
    }

    #[test]
    fn more_capacity_costs_more() {
        let (binding, obj) = setup();
        let score = |r: usize, s: usize| {
            let mut model = binding.model.clone();
            let mut decision = DecisionVector::new();
            decision.set(TaskId(0), r, s);
            decision.apply(&mut model).unwrap();
            let sol = solve(&model, SolverOptions::default()).unwrap();
            obj.evaluate(&binding, &model, &decision, &sol)
        };
        // Both configs saturate the demand (200/s needs 2 cores); the
        // cheaper one must score higher.
        let lean = score(3, 20);
        let fat = score(8, 20);
        assert_eq!(lean.violation, 0.0);
        assert!(lean.objective > fat.objective);
    }
}
