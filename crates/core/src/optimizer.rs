//! Algorithm 1: time-bounded candidate search with a genetic algorithm.
//!
//! The GA genome is the decision vector of §IV-B on the actuation
//! lattice: per scalable microservice an integer replica count in
//! `1..=Q_i` and an integer CPU-share index on the [`SHARE_STEP`] grid
//! within `[s_lb, s_ub]`. Genomes decode to [`DecisionVector`]s — the
//! single candidate currency shared with the evaluator, planner and
//! controller — so crossover and mutation move on the same grid the
//! actuator executes and the evaluator memoises on: offspring of
//! converging populations are *identical* lattice points, not ε-distinct
//! floats, and hit the memo cache by construction. Each candidate is
//! applied to the analyzer-instantiated LQN, solved analytically, and
//! scored by [`ObjectiveSpec::evaluate`]; infeasible candidates survive
//! with their violation magnitude (the `tolerance` check of Algorithm 1
//! lives in the GA's feasibility-first selection).

use atom_ga::{optimize_batched, Evaluation, GaOptions, Gene, GeneValue};
use atom_lqn::{DecisionVector, LqnModel};

use crate::binding::{ModelBinding, ServiceBinding};
use crate::evaluator::{CandidateEvaluator, EvaluatorStats};
use crate::objective::ObjectiveSpec;

/// CPU-share actuator resolution, in cores — re-exported from
/// [`atom_lqn`], where the lattice types live.
pub use atom_lqn::SHARE_STEP;

/// Result of one search round.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best decision found, on the actuation lattice.
    pub decision: DecisionVector,
    /// Its evaluation.
    pub eval: Evaluation,
    /// Candidate evaluations spent (cache hits included).
    pub(crate) evaluations: usize,
    /// Evaluator counters for this search (candidates, solves, hits,
    /// failures, solver sweeps).
    pub stats: EvaluatorStats,
    /// GA convergence read-out (all-empty for non-GA searches).
    pub ga: GaStats,
}

/// Convergence statistics of one GA search round, journaled per window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaStats {
    /// Generations completed.
    pub generations: usize,
    /// Best feasible objective after each generation (`NaN` until a
    /// feasible individual exists).
    pub(crate) best_history: Vec<f64>,
    /// Mean finite objective across the population per generation.
    pub(crate) mean_history: Vec<f64>,
    /// Children replaced by the within-generation niching pass.
    pub(crate) niche_dedup: usize,
}

impl GaStats {
    /// The journal's plain-data view (NaN-free: non-finite history
    /// entries become `None` so the JSONL stays valid JSON).
    pub(crate) fn to_generations(&self, evaluations: usize) -> atom_obs::GaGenerations {
        let opt = |v: &[f64]| -> Vec<Option<f64>> {
            v.iter().map(|&x| x.is_finite().then_some(x)).collect()
        };
        atom_obs::GaGenerations {
            generations: self.generations as u64,
            evaluations: evaluations as u64,
            best: opt(&self.best_history),
            mean: opt(&self.mean_history),
            niche_dedup: self.niche_dedup as u64,
        }
    }
}

/// Runs the GA search over scaling decisions.
///
/// `model` must already carry the window's `N` and request mix (the
/// analyzer's output). Convenience wrapper over [`search_with`] that
/// builds a throwaway [`CandidateEvaluator`]; the controller builds one
/// evaluator per window instead, so the planner and diagnostics share
/// the search's memo cache.
pub fn search(
    binding: &ModelBinding,
    model: &LqnModel,
    objective: &ObjectiveSpec,
    ga: GaOptions,
) -> SearchResult {
    let mut evaluator = CandidateEvaluator::new(binding, model, objective);
    search_with(&mut evaluator, ga)
}

/// Runs the GA search through an existing evaluator (and its cache).
///
/// Each GA population is evaluated as one batch, so the evaluator can
/// deduplicate candidates before it solves them one by one. The GA
/// runs with within-generation niching forced on: duplicate children are
/// re-mutated into unexplored lattice points, so a generation's solve
/// budget is spent on distinct candidates, while *cross*-generation
/// revisits still resolve from the memo cache for free. Solver failures
/// on extreme candidates are treated as maximally infeasible
/// ([`CandidateEvaluator::rejected`]) rather than aborting the search.
pub fn search_with(evaluator: &mut CandidateEvaluator<'_>, ga: GaOptions) -> SearchResult {
    let stats_before = evaluator.stats();
    let scalable: Vec<_> = evaluator.binding().scalable().collect();
    if scalable.is_empty() {
        // Nothing to optimise: return an empty (no-op) decision instead
        // of panicking in the GA on an empty genome.
        return SearchResult {
            decision: DecisionVector::new(),
            eval: Evaluation::feasible(0.0),
            evaluations: 0,
            stats: EvaluatorStats::default(),
            ga: GaStats::default(),
        };
    }
    let genome = lattice_genome(&scalable);
    let ga = GaOptions {
        niching: true,
        ..ga
    };
    // One decision per batch slot, decoded over in place: a reused
    // vector already holds every scalable task, so decoding only
    // overwrites its entries.
    let mut decisions: Vec<DecisionVector> = Vec::new();
    let result = optimize_batched(&genome, ga, |batch| {
        decisions.resize_with(batch.len(), DecisionVector::new);
        for (decision, genes) in decisions.iter_mut().zip(batch) {
            decode_into(&scalable, genes, decision);
        }
        evaluator.evaluate_batch(&decisions)
    });
    let after = evaluator.stats();
    let decision = decode(&scalable, &result.best_values);
    SearchResult {
        decision,
        eval: result.best,
        evaluations: result.evaluations,
        stats: after.since(&stats_before),
        ga: GaStats {
            generations: result.history.len(),
            best_history: result.history,
            mean_history: result.mean_history,
            niche_dedup: result.niche_dedup,
        },
    }
}

/// Pure random search at the same evaluation budget — the ablation
/// baseline for the GA (§IV-C argues a meta-heuristic is needed; this
/// quantifies the claim). Candidates are drawn directly on the lattice.
pub fn random_search(
    binding: &ModelBinding,
    model: &LqnModel,
    objective: &ObjectiveSpec,
    evaluations: usize,
    seed: u64,
) -> SearchResult {
    use atom_sim::SimRng;
    let mut evaluator = CandidateEvaluator::new(binding, model, objective);
    let scalable: Vec<_> = binding.scalable().collect();
    let mut rng = SimRng::seed_from(seed);
    // Draw every candidate up front (the fitness consumes no RNG), then
    // evaluate them as one batch through the shared layer.
    let decisions: Vec<DecisionVector> = (0..evaluations)
        .map(|_| {
            let mut decision = DecisionVector::new();
            for s in &scalable {
                let replicas =
                    (1 + (rng.uniform() * s.max_replicas as f64) as usize).min(s.max_replicas);
                let (lo, hi) = share_index_bounds(s);
                let idx = (lo + (rng.uniform() * (hi - lo + 1) as f64) as usize).min(hi);
                decision.set(s.task, replicas, idx);
            }
            decision
        })
        .collect();
    let evals = evaluator.evaluate_batch(&decisions);
    let mut best: Option<(DecisionVector, Evaluation)> = None;
    for (decision, eval) in decisions.into_iter().zip(evals) {
        if CandidateEvaluator::is_rejected(&eval) {
            continue; // failed to apply or to solve — never a winner
        }
        if best.as_ref().is_none_or(|(_, b)| eval.beats(b, 0.0)) {
            best = Some((decision, eval));
        }
    }
    let (decision, eval) = best.unwrap_or_else(|| {
        let mut d = DecisionVector::new();
        for s in &scalable {
            d.set(s.task, 1, share_index_bounds(s).0);
        }
        (d, CandidateEvaluator::rejected())
    });
    SearchResult {
        decision,
        eval,
        evaluations,
        stats: evaluator.stats(),
        ga: GaStats::default(),
    }
}

/// Predicted system TPS of a decision on the window's model; used by the
/// planner's quick fixes. Returns `None` if the solve fails.
///
/// One-shot convenience over [`CandidateEvaluator::predicted_tps`];
/// repeated predictions against the same model should share an
/// evaluator to benefit from its cache.
pub fn predicted_tps(model: &LqnModel, decision: &DecisionVector) -> Option<f64> {
    CandidateEvaluator::solver_only(model).predicted_tps(decision)
}

/// The service's CPU-share bounds as inclusive [`SHARE_STEP`] grid
/// indices: the smallest and largest actuatable share inside
/// `[s_lb, s_ub]`. The lower index is clamped to ≥ 1 (a zero share is
/// not applicable), and a bounds interval narrower than one grid step
/// collapses to its lower index so the genome stays well-formed.
pub fn share_index_bounds(s: &ServiceBinding) -> (usize, usize) {
    let lo = (s.share_bounds.0 / SHARE_STEP - 1e-9).ceil().max(1.0) as usize;
    let hi = ((s.share_bounds.1 / SHARE_STEP + 1e-9).floor() as usize).max(lo);
    (lo, hi)
}

/// The all-integer GA genome for a set of scalable services: per service
/// a replica gene in `1..=Q_i` and a share-index gene on the
/// [`SHARE_STEP`] lattice (see [`share_index_bounds`]). Shared with
/// benches so they search the exact space the controller does.
pub fn lattice_genome(scalable: &[&ServiceBinding]) -> Vec<Gene> {
    let mut genome = Vec::with_capacity(scalable.len() * 2);
    for s in scalable {
        genome.push(Gene::Int {
            lo: 1,
            hi: s.max_replicas as i64,
        });
        let (lo, hi) = share_index_bounds(s);
        genome.push(Gene::Int {
            lo: lo as i64,
            hi: hi as i64,
        });
    }
    genome
}

/// Decodes a GA gene vector into the [`DecisionVector`] it denotes. The
/// genes already live on the lattice (see [`lattice_genome`]), so
/// decoding is a reinterpretation, not a quantisation — every decoded
/// candidate is exactly actuatable and exactly memoisable.
pub fn decode(scalable: &[&ServiceBinding], genes: &[GeneValue]) -> DecisionVector {
    let mut decision = DecisionVector::new();
    decode_into(scalable, genes, &mut decision);
    decision
}

/// [`decode`] into an existing decision, setting each scalable task's
/// entry; a decision decoded from the same services before is
/// overwritten without reallocating.
fn decode_into(scalable: &[&ServiceBinding], genes: &[GeneValue], decision: &mut DecisionVector) {
    for (i, s) in scalable.iter().enumerate() {
        let replicas = genes[2 * i].as_i64().max(1) as usize;
        let share_idx = genes[2 * i + 1].as_i64().max(1) as usize;
        decision.set(s.task, replicas, share_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_cluster::ServiceId;
    use atom_ga::Budget;
    use atom_lqn::TaskId;

    /// Two-service chain where the bottleneck is the web tier.
    fn setup(users: usize) -> (ModelBinding, ObjectiveSpec) {
        let mut binding = crate::fixtures::web_db(users);
        // The db is vertical-only but multi-threaded (16 threads), so
        // scaling it past one core is usable; without the extra headroom
        // the heavy-load case would be infeasible by construction (1 core
        // of demand at U_max = 0.95).
        binding.services[1].max_replicas = 1;
        binding.services[1].share_bounds = (0.1, 2.0);
        let mut obj = ObjectiveSpec::balanced(1);
        obj.server_capacity = vec![(0, 8.0)];
        (binding, obj)
    }

    fn ga(seed: u64) -> GaOptions {
        GaOptions {
            budget: Budget::Evaluations(800),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn finds_feasible_config_for_heavy_load() {
        let (binding, obj) = setup(1000);
        let result = search(&binding, &binding.model, &obj, ga(1));
        assert_eq!(result.eval.violation, 0.0, "best must be feasible");
        // Offered load = 500/s; web needs 500·0.008 = 4 cores.
        let web = result.decision.get(TaskId(0)).unwrap();
        let capacity = web.replicas as f64 * web.share();
        assert!(
            capacity > 3.5,
            "web capacity {capacity} too small for 4-core demand"
        );
    }

    #[test]
    fn scales_down_for_light_load() {
        let (binding, obj) = setup(50);
        let result = search(&binding, &binding.model, &obj, ga(2));
        assert_eq!(result.eval.violation, 0.0);
        // Offered 25/s → web needs 0.2 cores; the cost term should keep
        // the allocation lean.
        let web = result.decision.get(TaskId(0)).unwrap();
        let capacity = web.replicas as f64 * web.share();
        assert!(capacity < 2.0, "capacity {capacity} wastefully large");
    }

    #[test]
    fn deterministic_in_seed() {
        let (binding, obj) = setup(300);
        let a = search(&binding, &binding.model, &obj, ga(7));
        let b = search(&binding, &binding.model, &obj, ga(7));
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.eval, b.eval);
    }

    #[test]
    fn predicted_tps_monotone_in_capacity() {
        let (binding, _) = setup(1000);
        let mut small = DecisionVector::new();
        small.set(TaskId(0), 1, 10).set(TaskId(1), 1, 20);
        let mut big = DecisionVector::new();
        big.set(TaskId(0), 8, 20).set(TaskId(1), 1, 20);
        let x_small = predicted_tps(&binding.model, &small).unwrap();
        let x_big = predicted_tps(&binding.model, &big).unwrap();
        assert!(x_big > x_small * 1.5, "big {x_big} small {x_small}");
    }

    #[test]
    fn respects_replica_and_share_bounds() {
        let (binding, obj) = setup(5000);
        let result = search(&binding, &binding.model, &obj, ga(3));
        let db = result.decision.get(TaskId(1)).unwrap();
        assert_eq!(db.replicas, 1, "db is capped at one replica");
        let web = result.decision.get(TaskId(0)).unwrap();
        assert!(web.replicas <= 8);
        assert!((2..=20).contains(&web.share_idx), "0.1..=1.0 as indices");
    }

    #[test]
    fn share_index_bounds_cover_exact_and_offgrid_bounds() {
        let svc = |lo: f64, hi: f64| ServiceBinding {
            name: "s".into(),
            service: ServiceId(0),
            task: TaskId(0),
            max_replicas: 4,
            share_bounds: (lo, hi),
        };
        assert_eq!(share_index_bounds(&svc(0.1, 1.0)), (2, 20));
        assert_eq!(share_index_bounds(&svc(0.05, 4.0)), (1, 80));
        // Off-grid bounds shrink inward to actuatable shares.
        assert_eq!(share_index_bounds(&svc(0.12, 0.99)), (3, 19));
        // Degenerate interval collapses instead of inverting.
        assert_eq!(share_index_bounds(&svc(0.97, 0.99)), (20, 20));
        // Tiny lower bounds clamp to the first grid point.
        assert_eq!(share_index_bounds(&svc(0.001, 0.2)), (1, 4));
    }

    #[test]
    fn decode_lands_exactly_on_the_share_grid() {
        let (binding, _) = setup(100);
        let scalable: Vec<_> = binding.scalable().collect();
        let genome = lattice_genome(&scalable);
        assert!(genome.iter().all(|g| matches!(g, Gene::Int { .. })));
        let genes = vec![
            GeneValue::Int(3),
            GeneValue::Int(13),
            GeneValue::Int(1),
            GeneValue::Int(40),
        ];
        let decision = decode(&scalable, &genes);
        assert_eq!(decision.get(TaskId(0)).unwrap().share_idx, 13);
        assert_eq!(decision.get(TaskId(0)).unwrap().share(), 13.0 * SHARE_STEP);
    }
}
