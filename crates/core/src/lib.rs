#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! ATOM: the model-driven autoscaling controller (the paper's primary
//! contribution), its rule-based baselines, and the experiment runner.
//!
//! The controller follows MAPE-K (§IV-A); [`Atom`]'s `decide` is that
//! sequence, one call per phase, over private units that own what each
//! phase remembers between windows:
//!
//! * **Monitor** — the cluster's [`atom_cluster::WindowReport`] plays the
//!   workload monitor, read by provenance: actuator state always off
//!   the fresh report (the *reconciler* re-issues or abandons earlier
//!   orders it does not show), load through a small *load view* (users,
//!   peak rate, TPS, in-system peak/average, mix) that a degraded
//!   window swaps for the last trusted one;
//! * **Analyze** — the *forecaster* (proactive mode) scales the view to
//!   the load at the actuation horizon; the *workload analyzer* writes
//!   its `N` and request mix into the LQN, then
//!   [`optimizer::search_with`] (Algorithm 1) runs a genetic algorithm
//!   over `(r, s)` configurations, solving the model analytically for
//!   each candidate and scoring it with [`ObjectiveSpec`]
//!   (equations (1)–(5): weighted-sum revenue vs CPU, SLA/capacity/
//!   utilisation constraints);
//! * **Plan** — the *planner* applies the paper's two quick fixes
//!   (reuse a cheaper previous allocation if TPS is unaffected;
//!   consolidate replicas at equal total share) and optionally one of the
//!   conservative modes **ATOM-T** (require a minimum predicted TPS
//!   improvement) or **ATOM-S** (cap the change in total allocated CPU);
//! * **Execute** — the experiment loop schedules the resulting
//!   [`atom_cluster::ScaleAction`]s on the cluster after ATOM's
//!   optimisation delay (the paper's ~2.5 minutes); a hold leaves by the
//!   same exit, its reason in the journal's decision record, which also
//!   carries the incumbent configuration and its bottleneck diagnosis
//!   (`atom_obs::DecisionRecord::explanation` renders the operator
//!   line from it);
//! * **Knowledge** — with span sampling on, the *auditor* scores each
//!   plan's per-station prediction against the next window's spans.
//!
//! [`UhScaler`] and [`UvScaler`] implement the utilisation-triggered
//! horizontal/vertical doubling rules of §V-A. [`run_experiment`] drives
//! any [`Autoscaler`] against a cluster and collects the elasticity
//! metrics of §V-B.

mod analyzer;
pub mod autoscaler;
mod baselines;
mod binding;
mod calibration;
pub mod evaluator;
mod experiment;
mod objective;
pub mod optimizer;
mod planner;

mod atom_controller;

/// The analytic LQN solver surface the evaluation layer is built on,
/// re-exported so evaluator callers (benches, ablation harnesses) don't
/// need a direct `atom_lqn` dependency for solver plumbing:
/// [`solver::solve`] for one-shot solves, [`solver::solve_with`] +
/// [`solver::SolverWorkspace`] for allocation-free repeated solves, and
/// [`solver::SolverOptions`] (see `SolverOptions::candidate()` for the
/// preset every candidate evaluation uses).
pub mod solver {
    pub use atom_lqn::analytic::{solve, solve_with, SolverOptions, SolverWorkspace};
}

/// The workload surface, re-exported (like [`solver`]) so downstream
/// crates — bench harnesses, scenario builders — don't need a direct
/// `atom_workload` dependency: [`workload::WorkloadSpec`] and its
/// builders, the [`workload::Population`] it runs — a synthetic
/// [`workload::LoadProfile`] or a replayed [`workload::TraceSource`] —
/// and the streaming trace readers ([`workload::read_trace`]).
pub mod workload {
    pub use atom_workload::*;
}

pub use atom_controller::{Atom, AtomConfig, ForecastConfig};
pub use autoscaler::Autoscaler;
pub use baselines::{UhScaler, UvScaler};
pub use binding::{ModelBinding, ServiceBinding};
pub use evaluator::{CandidateEvaluator, EvaluatorStats};
pub use experiment::{run_experiment, ExperimentConfig, ExperimentResult, TelemetrySummary};
pub use objective::ObjectiveSpec;
pub use optimizer::GaStats;
pub use planner::PlannerMode;

// The candidate currency of the whole stack (defined next to the model
// transforms in `atom_lqn`): one integer-lattice type from GA genome to
// actuator.
pub use atom_lqn::{share_index, DecisionVector, TaskDecision, SHARE_STEP};

#[cfg(test)]
mod fixtures;
