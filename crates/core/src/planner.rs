//! The scaling planner: quick fixes and conservative modes (§IV-A/C).
//!
//! The GA's time-bounded answer can usually be polished. The paper's
//! planner applies two *quick fixes*:
//!
//! 1. **Share reuse** — if a microservice had a *cheaper* allocation in
//!    the previous window, try keeping it; adopt the cheaper allocation
//!    when the predicted TPS is not significantly affected.
//! 2. **Replica consolidation** — try halving the replica count while
//!    doubling the per-replica share (same total CPU); fewer replicas
//!    mean less multi-server inefficiency, so if predicted TPS does not
//!    drop, keep the consolidated configuration.
//!
//! It can additionally run in one of two *conservative modes*:
//! **ATOM-T** discards the new configuration unless it improves predicted
//! TPS by a margin, and **ATOM-S** discards it when the total allocated
//! CPU would change too drastically.
//!
//! The planner moves entirely in [`DecisionVector`] space: allocation
//! comparisons are exact integer step counts ([`TaskDecision::alloc_steps`]),
//! consolidation doubles share *indices*, and every trial it probes is a
//! lattice point — so each probe either hits the search's memo cache or
//! seeds it with a reusable entry.

use atom_lqn::{share_index, DecisionVector};

use crate::binding::ModelBinding;
use crate::evaluator::CandidateEvaluator;
use crate::optimizer::share_index_bounds;

#[cfg(doc)]
use atom_lqn::TaskDecision;

/// Conservatism of the planner (paper Fig. 7's variants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannerMode {
    /// Plain ATOM: always adopt the (quick-fixed) GA answer.
    Standard,
    /// ATOM-T: adopt only if predicted TPS improves by at least 5 % over
    /// keeping the current configuration.
    ConservativeTps,
    /// ATOM-S: bound the change in total allocated CPU `Σ r_i s_i` to
    /// 50 % per window; a plan that moves further is interpolated toward
    /// the current configuration so the system improves *steadily*
    /// (Fig. 7's description) instead of stalling outright — the paper
    /// notes that a reject-only threshold risks "completely stopping the
    /// improvement".
    ConservativeShare,
}

/// Relative TPS loss the quick fixes consider insignificant (the paper's
/// "does not affect the TPS significantly").
const TPS_TOLERANCE: f64 = 0.02;

/// ATOM-T's minimum relative TPS improvement.
const MIN_IMPROVEMENT: f64 = 0.05;

/// ATOM-S's maximum relative change of the total allocated CPU.
const MAX_RELATIVE_CHANGE: f64 = 0.5;

/// The planner. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct Planner {
    /// Conservatism mode.
    pub(crate) mode: PlannerMode,
    /// Whether the two §IV-C quick fixes run at all (disabled by the
    /// ablation harness to quantify their contribution).
    pub(crate) quick_fixes: bool,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            mode: PlannerMode::Standard,
            quick_fixes: true,
        }
    }
}

impl Planner {
    /// Polishes `candidate` against `current`, returning the decision to
    /// execute. All TPS predictions go through `evaluator` — the
    /// controller passes the search's, so quick-fix trials hit its memo
    /// cache.
    pub(crate) fn plan_with(
        &self,
        binding: &ModelBinding,
        evaluator: &mut CandidateEvaluator<'_>,
        candidate: DecisionVector,
        current: &DecisionVector,
    ) -> DecisionVector {
        let mut adopted = candidate;
        let mut adopted_tps = match evaluator.predicted_tps(&adopted) {
            Some(x) => x,
            None => return current.clone(),
        };

        // Quick fix 1: reuse cheaper previous allocations per service.
        // "Cheaper" is an exact integer comparison of lattice steps.
        for s in binding.scalable().filter(|_| self.quick_fixes) {
            let (Some(now), Some(prev)) = (adopted.get(s.task), current.get(s.task)) else {
                continue;
            };
            if prev.alloc_steps() < now.alloc_steps() {
                let mut trial = adopted.clone();
                trial.set(s.task, prev.replicas, prev.share_idx);
                if let Some(tps) = evaluator.predicted_tps(&trial) {
                    if tps >= adopted_tps * (1.0 - TPS_TOLERANCE) {
                        adopted = trial;
                        adopted_tps = tps;
                    }
                }
            }
        }

        // Quick fix 2: consolidate replicas at (as near as the lattice
        // allows) equal total share.
        for s in binding.scalable().filter(|_| self.quick_fixes) {
            let Some(now) = adopted.get(s.task) else {
                continue;
            };
            if now.replicas >= 2 {
                let new_r = now.replicas / 2;
                let (_, ub_idx) = share_index_bounds(s);
                let new_idx = (((now.share_idx * now.replicas) as f64 / new_r as f64).round()
                    as usize)
                    .min(ub_idx);
                if new_idx > now.share_idx {
                    let mut trial = adopted.clone();
                    trial.set(s.task, new_r, new_idx);
                    if let Some(tps) = evaluator.predicted_tps(&trial) {
                        if tps >= adopted_tps * (1.0 - TPS_TOLERANCE) {
                            adopted = trial;
                            adopted_tps = tps;
                        }
                    }
                }
            }
        }

        // Conservative filter.
        match self.mode {
            PlannerMode::Standard => adopted,
            PlannerMode::ConservativeTps => match evaluator.predicted_tps(current) {
                Some(current_tps) if adopted_tps < current_tps * (1.0 + MIN_IMPROVEMENT) => {
                    current.clone()
                }
                _ => adopted,
            },
            PlannerMode::ConservativeShare => {
                let c_now = current.total_cpu_share();
                let c_new = adopted.total_cpu_share();
                let delta = (c_new - c_now).abs();
                if c_now > 0.0 && delta > MAX_RELATIVE_CHANGE * c_now {
                    // Interpolate toward the plan so the total CPU moves
                    // by (up to lattice rounding) the allowed amount this
                    // window.
                    let alpha = (MAX_RELATIVE_CHANGE * c_now / delta).clamp(0.0, 1.0);
                    let mut clamped = current.clone();
                    for s in binding.scalable() {
                        let (Some(new), Some(old)) = (adopted.get(s.task), current.get(s.task))
                        else {
                            continue;
                        };
                        let r = old.replicas as f64
                            + alpha * (new.replicas as f64 - old.replicas as f64);
                        let share = old.share() + alpha * (new.share() - old.share());
                        let (lo_idx, hi_idx) = share_index_bounds(s);
                        clamped.set(
                            s.task,
                            (r.round() as usize).clamp(1, s.max_replicas),
                            share_index(share).clamp(lo_idx, hi_idx),
                        );
                    }
                    clamped
                } else {
                    adopted
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_lqn::TaskId;

    fn setup(users: usize) -> ModelBinding {
        crate::fixtures::web(0.5, users)
    }

    /// `planner`'s answer through a throwaway solver-only evaluator.
    fn polish(
        planner: &Planner,
        binding: &ModelBinding,
        candidate: DecisionVector,
        current: &DecisionVector,
    ) -> DecisionVector {
        let mut evaluator = CandidateEvaluator::solver_only(&binding.model);
        planner.plan_with(binding, &mut evaluator, candidate, current)
    }

    fn dv(replicas: usize, share_idx: usize) -> DecisionVector {
        let mut d = DecisionVector::new();
        d.set(TaskId(0), replicas, share_idx);
        d
    }

    #[test]
    fn quick_fix_reuses_cheaper_previous_decision() {
        // Light load: 10/s needs 0.1 cores. The candidate wastes 4 cores;
        // the previous window's 0.5 cores served fine.
        let binding = setup(20);
        let candidate = dv(4, 20); // 4×1.00
        let current = dv(1, 10); // 1×0.50
        let planner = Planner::default();
        let plan = polish(&planner, &binding, candidate, &current);
        let d = plan.get(TaskId(0)).unwrap();
        assert_eq!(
            (d.replicas, d.share_idx),
            (1, 10),
            "should reuse cheap decision"
        );
    }

    #[test]
    fn quick_fix_consolidates_replicas() {
        // Moderate load served equally well by 1×1.0 as by 2×0.5 — the
        // planner should consolidate (less multi-server inefficiency).
        let binding = setup(100);
        let candidate = dv(2, 10);
        let current = dv(2, 10);
        let planner = Planner::default();
        let plan = polish(&planner, &binding, candidate, &current);
        let d = plan.get(TaskId(0)).unwrap();
        assert_eq!(d.replicas, 1, "should consolidate to one replica");
        assert_eq!(d.share_idx, 20, "doubled share stays on the lattice");
    }

    #[test]
    fn consolidation_skipped_when_it_hurts() {
        // Heavy load needs 4 cores; 4×1.0 cannot be consolidated to
        // 2×2.0 because shares are capped at 1.0 — and 2×1.0 would halve
        // capacity, so the planner must keep 4 replicas.
        let binding = setup(2000);
        let candidate = dv(4, 20);
        let current = candidate.clone();
        let planner = Planner::default();
        let plan = polish(&planner, &binding, candidate, &current);
        assert_eq!(plan.get(TaskId(0)).unwrap().replicas, 4);
    }

    #[test]
    fn atom_t_rejects_marginal_improvements() {
        let binding = setup(100);
        // Current decision is adequate; candidate adds capacity for ~no
        // TPS gain.
        let current = dv(1, 20);
        let candidate = dv(4, 20);
        let planner = Planner {
            mode: PlannerMode::ConservativeTps,
            ..Default::default()
        };
        let plan = polish(&planner, &binding, candidate, &current);
        assert_eq!(plan, current);
    }

    #[test]
    fn atom_t_accepts_real_improvements() {
        let binding = setup(2000); // offered 1000/s, needs 10 cores
        let current = dv(1, 20);
        let candidate = dv(8, 20);
        let planner = Planner {
            mode: PlannerMode::ConservativeTps,
            ..Default::default()
        };
        let plan = polish(&planner, &binding, candidate.clone(), &current);
        assert_eq!(plan.get(TaskId(0)).unwrap().replicas, 8);
    }

    #[test]
    fn atom_s_clamps_drastic_changes() {
        let binding = setup(2000);
        let current = dv(1, 20);
        let candidate = dv(8, 20); // 8x jump in total CPU
        let planner = Planner {
            mode: PlannerMode::ConservativeShare,
            quick_fixes: false,
        };
        let plan = polish(&planner, &binding, candidate, &current);
        let d = plan.get(TaskId(0)).unwrap();
        let total = d.replicas as f64 * d.share();
        // Moves toward 8 cores but only by the bounded step (up to the
        // granularity of one whole replica, since replica counts are
        // integers).
        assert!(total <= 1.5 + 1.0, "total {total} exceeds the step bound");
        assert!(total > 1.0, "must still improve");
        assert!(total < 4.0, "far below the 8-core target");
        // A modest change passes untouched.
        let modest = dv(1, 20);
        let plan = polish(&planner, &binding, modest.clone(), &current);
        assert_eq!(plan, modest);
    }
}
