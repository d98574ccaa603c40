//! Scaling-decision transforms (paper Algorithm 1).
//!
//! ATOM's optimizer explores `(r, s)` pairs — a replica count and a CPU
//! share per microservice. Algorithm 1 applies each candidate to the LQN
//! through `updateReplication`, `updateCalls`, and `updateHostDemand`.
//! Because this crate models replication natively (multi-server task
//! stations) and share caps as first-class rate limits, all three steps
//! collapse into [`DecisionVector::apply`]: it sets each task's `replicas`
//! and `cpu_share` and the solver does the rest. The call-mean division
//! by `r_C` and the fan-in/fan-out bookkeeping of LQNS replication are
//! not needed in this representation (they exist in LQNS because it
//! clones replicated tasks).
//!
//! [`DecisionVector`] is the only representation of a candidate: shares
//! are integer indices on the [`SHARE_STEP`] actuation grid. A share
//! measured off the cluster enters the lattice through [`share_index`].

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::error::LqnError;
use crate::model::{LqnModel, TaskId};

/// CPU-share actuator resolution, in cores (50 millicores).
///
/// Every share the system can actually set lies on this grid: CFS quotas
/// are applied in discrete millicore steps, and ATOM's controller
/// actuates in 50-millicore increments. [`DecisionVector`] stores shares
/// as indices on this lattice, so candidates that denote the same
/// actuation are *identical values* — not merely ε-close floats.
pub const SHARE_STEP: f64 = 0.05;

/// The grid index nearest to `share` cores, clamped to ≥ 1 so the result
/// stays applicable — the one share→index rule, for shares that arrive
/// as floats (observed from the actuator, or scaled by the planner).
pub fn share_index(share: f64) -> usize {
    (share / SHARE_STEP).round().max(1.0) as usize
}

/// One task's decision on the actuation lattice: an integer replica
/// count and a CPU share expressed as a grid index
/// (`share = share_idx × SHARE_STEP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskDecision {
    /// Number of replicas (`r_i ∈ 1..=Q_i`).
    pub replicas: usize,
    /// CPU share per replica as a [`SHARE_STEP`] grid index (`≥ 1`).
    pub share_idx: usize,
}

impl TaskDecision {
    /// The decision's CPU share in cores (`share_idx × SHARE_STEP`).
    pub fn share(&self) -> f64 {
        self.share_idx as f64 * SHARE_STEP
    }

    /// Total CPU of this decision in grid steps (`replicas × share_idx`),
    /// exact integer arithmetic.
    pub fn alloc_steps(&self) -> usize {
        self.replicas * self.share_idx
    }
}

/// The integer-lattice decision vector: one candidate scaling decision,
/// exactly as the actuator can execute it.
///
/// This is the single candidate currency across the stack: the GA breeds
/// lattice genomes that decode to `DecisionVector`s, the candidate
/// evaluator memoises solves keyed on them (`Eq`/`Ord`/`Hash` are exact —
/// no float-epsilon pitfalls) and applies them to the model with
/// [`DecisionVector::apply`], the planner's quick fixes move in index
/// space, and the controller reads the actuator shares straight off the
/// planned vector ([`TaskDecision::share`]).
///
/// # Examples
///
/// ```
/// use atom_lqn::{DecisionVector, LqnModel, SHARE_STEP};
///
/// # fn main() -> Result<(), atom_lqn::LqnError> {
/// let mut m = LqnModel::new();
/// let p = m.add_processor("cpu", 4, 1.0);
/// let t = m.add_task("svc", p, 8, 1)?;
/// let mut dv = DecisionVector::new();
/// dv.set(t, 3, 10); // 3 replicas × 0.50 cores
/// dv.apply(&mut m)?;
/// assert_eq!(m.task(t).replicas, 3);
/// assert_eq!(m.task(t).cpu_share, Some(10.0 * SHARE_STEP));
/// assert_eq!(dv.total_cpu_share(), 30.0 * SHARE_STEP);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DecisionVector {
    // Sorted by task id; a Vec of pairs keeps the JSON representation
    // simple (serde_json cannot use struct keys in maps).
    decisions: Vec<(TaskId, TaskDecision)>,
}

impl DecisionVector {
    /// Creates an empty decision vector.
    pub fn new() -> Self {
        DecisionVector::default()
    }

    /// Sets the decision for one task, replacing any previous one.
    pub fn set(&mut self, task: TaskId, replicas: usize, share_idx: usize) -> &mut Self {
        let d = TaskDecision {
            replicas,
            share_idx,
        };
        match self.decisions.binary_search_by_key(&task, |&(t, _)| t) {
            Ok(i) => self.decisions[i].1 = d,
            Err(i) => self.decisions.insert(i, (task, d)),
        }
        self
    }

    /// Decision for one task, if present.
    pub fn get(&self, task: TaskId) -> Option<TaskDecision> {
        self.decisions
            .binary_search_by_key(&task, |&(t, _)| t)
            .ok()
            .map(|i| self.decisions[i].1)
    }

    /// Iterates over `(task, decision)` pairs in task order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, TaskDecision)> + '_ {
        self.decisions.iter().copied()
    }

    /// Total allocated CPU in grid steps (`Σ_i r_i · idx_i`) — the exact
    /// integer form of `Σ_i r_i · s_i / SHARE_STEP`.
    pub(crate) fn total_steps(&self) -> usize {
        self.decisions.iter().map(|(_, d)| d.alloc_steps()).sum()
    }

    /// Total allocated CPU capacity `C = Σ_i r_i · s_i` in cores.
    pub fn total_cpu_share(&self) -> f64 {
        self.total_steps() as f64 * SHARE_STEP
    }

    /// Applies the decision to a model: Algorithm 1's
    /// `updateReplication` + `updateCalls` + `updateHostDemand` in this
    /// crate's native representation.
    ///
    /// # Errors
    ///
    /// Rejects unknown tasks, reference tasks, zero replicas, and
    /// non-positive shares; the model is left partially updated only if an
    /// error occurs after earlier tasks were applied.
    pub fn apply(&self, model: &mut LqnModel) -> Result<(), LqnError> {
        for &(task, d) in &self.decisions {
            model.set_replicas(task, d.replicas)?;
            model.set_cpu_share(task, Some(d.share()))?;
        }
        Ok(())
    }
}

/// One word per task decision — task, replicas and share index packed
/// side by side — so a memo lookup hashes a few words, not three per
/// task. Equal vectors pack to equal words; values too large for their
/// field only make collisions more likely, never wrong.
impl Hash for DecisionVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.decisions.len());
        for &(task, d) in &self.decisions {
            state.write_u64((task.0 as u64) << 40 ^ (d.replicas as u64) << 20 ^ d.share_idx as u64);
        }
    }
}

impl fmt::Display for DecisionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (task, d)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "t{}:{}x{:.2}", task.0, d.replicas, d.share())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (LqnModel, TaskId, TaskId) {
        let mut m = LqnModel::new();
        let p1 = m.add_processor("s1", 4, 1.0);
        let p2 = m.add_processor("s2", 4, 0.8);
        let a = m.add_task("a", p1, 8, 1).unwrap();
        let b = m.add_task("b", p2, 8, 1).unwrap();
        (m, a, b)
    }

    #[test]
    fn apply_sets_replicas_and_shares() {
        let (mut m, a, b) = model();
        let mut dv = DecisionVector::new();
        dv.set(a, 3, 12).set(b, 1, 20);
        dv.apply(&mut m).unwrap();
        assert_eq!(m.task(a).replicas, 3);
        assert_eq!(m.task(a).cpu_share, Some(12.0 * SHARE_STEP));
        assert_eq!(m.task(b).replicas, 1);
        assert_eq!(m.task(b).cpu_share, Some(1.0));
    }

    #[test]
    fn invalid_decisions_fail_to_apply() {
        let (mut m, a, _) = model();
        let mut zero = DecisionVector::new();
        zero.set(a, 0, 10);
        assert!(zero.apply(&mut m).is_err());
        let mut unknown = DecisionVector::new();
        unknown.set(TaskId(99), 1, 10);
        assert!(unknown.apply(&mut m).is_err());
    }

    #[test]
    fn set_replaces_previous_decision() {
        let (_, a, _) = model();
        let mut dv = DecisionVector::new();
        dv.set(a, 1, 2);
        dv.set(a, 5, 18);
        assert_eq!(dv.iter().count(), 1);
        assert_eq!(dv.get(a).unwrap().replicas, 5);
    }

    #[test]
    fn share_index_snaps_to_the_nearest_grid_point() {
        assert_eq!(share_index(0.5), 10);
        assert_eq!(share_index(0.33), 7); // 0.35
        assert_eq!(share_index(0.5 + 3e-10), 10, "measurement jitter");
        // Tiny shares clamp up to the first grid point.
        assert_eq!(share_index(0.01), 1);
        // Every grid point is a fixed point of the snap.
        for idx in 1..=80 {
            assert_eq!(share_index(idx as f64 * SHARE_STEP), idx);
        }
    }

    #[test]
    fn total_steps_is_exact_integer_allocation() {
        let (_, a, b) = model();
        let mut dv = DecisionVector::new();
        dv.set(a, 3, 7).set(b, 2, 10);
        assert_eq!(dv.total_steps(), 3 * 7 + 2 * 10);
        assert!((dv.total_cpu_share() - (3.0 * 0.35 + 2.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let (_, a, _) = model();
        let mut dv = DecisionVector::new();
        dv.set(a, 2, 15);
        let json = serde_json::to_string(&dv).unwrap();
        let back: DecisionVector = serde_json::from_str(&json).unwrap();
        assert_eq!(dv, back);
    }
}
