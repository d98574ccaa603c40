//! The unified candidate-evaluation layer.
//!
//! Every path from a candidate [`DecisionVector`] to an [`Evaluation`] —
//! the GA's fitness function, the planner's quick fixes, and the
//! controller's model-vs-observed diagnosis — goes through one
//! [`CandidateEvaluator`] per window, and every solve behind its four
//! entry points through one private miss path. Centralising the solve
//! gives two optimisations for free everywhere:
//!
//! * **Memoisation** — solves are cached by the integer-lattice
//!   [`DecisionVector`] itself: replicas and share-grid indices compare
//!   exactly, so two candidates are the same key if and only if they
//!   denote the same actuation. (The earlier design keyed on
//!   float-quantised shares, which made cache identity depend on an
//!   epsilon and left blend-crossover offspring ε-distinct from their
//!   parents; the lattice GA now breeds grid-aligned candidates by
//!   construction, so converging populations collide in this cache at
//!   tens-of-percent rates instead of single digits.)
//! * **Scratch-model reuse** — candidates are applied to the evaluator's
//!   one [`ScratchModel`] of the window model and reverted afterwards,
//!   instead of cloning the whole [`LqnModel`] per candidate; its shape
//!   is checked once and its solves overwrite one solution.
//!
//! Every solve is serial and starts cold, so an evaluation depends only
//! on its decision: no solve can observe what was solved before it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use atom_ga::Evaluation;
use atom_lqn::analytic::{ScratchModel, SolverOptions};
use atom_lqn::{DecisionVector, LqnError, LqnModel, LqnSolution};

use crate::binding::ModelBinding;
use crate::objective::ObjectiveSpec;

/// What the cache remembers about a solved candidate.
///
/// `eval` is `None` for entries recorded by solve-only paths
/// ([`CandidateEvaluator::with_solution`], solver-only evaluators):
/// their throughput still powers `predicted_tps`, but a later `evaluate`
/// of the same decision re-solves and scores it.
#[derive(Debug, Clone, Copy)]
struct Cached {
    eval: Option<Evaluation>,
    /// Client throughput, for [`CandidateEvaluator::predicted_tps`].
    /// `None` when the candidate failed to apply or the solver did not
    /// converge.
    tps: Option<f64>,
    /// Layered sweeps this entry's solve took (0 for entries that never
    /// solved); feeds the evaluator's iteration counter.
    iterations: usize,
}

/// Counters of one evaluator's lifetime (one controller window).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvaluatorStats {
    /// Candidate evaluations requested (cache hits included).
    pub(crate) candidates: usize,
    /// Analytic solves actually performed.
    pub solves: usize,
    /// Requests answered from the memo cache (including duplicates
    /// within one batch).
    pub cache_hits: usize,
    /// Solves that failed to converge or decisions that failed to apply.
    pub(crate) failures: usize,
    /// Total layered sweeps of the solver across all solves.
    pub solver_iterations: usize,
}

impl EvaluatorStats {
    /// Fraction of candidate requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.candidates as f64
        }
    }

    /// The counters accumulated since `baseline` was captured — the
    /// per-window delta journaled by the controller. Field-by-field
    /// subtraction lives here (not at call sites) so adding a counter
    /// cannot silently drop it from the deltas.
    pub(crate) fn since(&self, baseline: &EvaluatorStats) -> EvaluatorStats {
        EvaluatorStats {
            candidates: self.candidates - baseline.candidates,
            solves: self.solves - baseline.solves,
            cache_hits: self.cache_hits - baseline.cache_hits,
            failures: self.failures - baseline.failures,
            solver_iterations: self.solver_iterations - baseline.solver_iterations,
        }
    }

    /// The journal's plain-data view of these counters.
    pub(crate) fn to_counters(self) -> atom_obs::SolveCounters {
        atom_obs::SolveCounters {
            candidates: self.candidates as u64,
            solves: self.solves as u64,
            cache_hits: self.cache_hits as u64,
            failures: self.failures as u64,
            solver_iterations: self.solver_iterations as u64,
        }
    }
}

/// The memo's hasher: FxHash's rotate–xor–multiply per word. A
/// [`DecisionVector`] hashes as one word per task, where SipHash's setup
/// and finalisation would cost more than the lookup they serve; the keys
/// are the program's own candidates, so flood resistance buys nothing.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type Memo = HashMap<DecisionVector, Cached, BuildHasherDefault<WordHasher>>;

/// The unified evaluation layer. See the [module docs](self).
pub struct CandidateEvaluator<'a> {
    /// Knowledge base + objective; `None` for solve-only evaluators.
    scoring: Option<(&'a ModelBinding, &'a ObjectiveSpec)>,
    scratch: ScratchModel,
    cache: Memo,
    stats: EvaluatorStats,
}

impl<'a> CandidateEvaluator<'a> {
    /// Creates an evaluator for one window: the analyzer-instantiated
    /// `model` (with this window's `N` and request mix), the knowledge
    /// base, and the scoring objective.
    pub fn new(binding: &'a ModelBinding, model: &LqnModel, objective: &'a ObjectiveSpec) -> Self {
        CandidateEvaluator {
            scoring: Some((binding, objective)),
            ..Self::solver_only(model)
        }
    }

    /// An evaluator that only solves (for TPS predictions);
    /// [`CandidateEvaluator::evaluate`] panics on it.
    pub(crate) fn solver_only(model: &LqnModel) -> Self {
        CandidateEvaluator {
            scoring: None,
            scratch: ScratchModel::new(model),
            cache: Memo::default(),
            stats: EvaluatorStats::default(),
        }
    }

    /// The knowledge base this evaluator scores against.
    ///
    /// # Panics
    ///
    /// Panics on a solver-only evaluator (one this crate builds for plain
    /// solves, without a binding or an objective).
    pub(crate) fn binding(&self) -> &'a ModelBinding {
        self.scoring().0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EvaluatorStats {
        self.stats
    }

    /// The sentinel for candidates that cannot be scored at all (decision
    /// failed to apply, or the solver did not converge): beaten by any
    /// real evaluation under feasibility-first selection. Previously
    /// spelled out at three call sites in `optimizer.rs`.
    pub fn rejected() -> Evaluation {
        Evaluation::infeasible(f64::NEG_INFINITY, f64::MAX / 2.0)
    }

    /// Whether an evaluation is the [`CandidateEvaluator::rejected`]
    /// sentinel.
    pub(crate) fn is_rejected(eval: &Evaluation) -> bool {
        eval.objective == f64::NEG_INFINITY && eval.violation >= f64::MAX / 4.0
    }

    fn scoring(&self) -> (&'a ModelBinding, &'a ObjectiveSpec) {
        self.scoring.expect(
            "this CandidateEvaluator was built with solver_only(); scoring needs a binding and an ObjectiveSpec",
        )
    }

    /// The one miss path: solves `decision` on the scratch model,
    /// scoring it when `scoring` is given, books the solve into the
    /// counters and the memo, and shows the configured model and full
    /// solution to `visit`. Returns what was booked together with the
    /// visitor's result or the solver's error.
    fn solve<R>(
        &mut self,
        decision: &DecisionVector,
        scoring: Option<(&ModelBinding, &ObjectiveSpec)>,
        visit: impl FnOnce(&LqnModel, &LqnSolution) -> R,
    ) -> (Cached, Result<R, LqnError>) {
        let mut cached = Cached {
            eval: scoring.map(|_| Self::rejected()),
            tps: None,
            iterations: 0,
        };
        let seen = self
            .scratch
            .solve(decision, SolverOptions::candidate(), |model, sol| {
                cached = Cached {
                    eval: scoring.map(|(b, o)| o.evaluate(b, model, decision, sol)),
                    tps: Some(sol.client_throughput),
                    iterations: sol.iterations,
                };
                visit(model, sol)
            });
        self.stats.solves += 1;
        self.stats.solver_iterations += cached.iterations;
        if cached.tps.is_none() {
            self.stats.failures += 1;
        }
        // A solve-only result never displaces what the memo holds, and
        // only a new key is cloned into it.
        match self.cache.get_mut(decision) {
            Some(held) if cached.eval.is_some() => *held = cached,
            Some(_) => {}
            None => {
                self.cache.insert(decision.clone(), cached);
            }
        }
        (cached, seen)
    }

    /// Scores one candidate, memoised. The decision vector is the cache
    /// key itself — no quantisation happens on the way in.
    pub fn evaluate(&mut self, decision: &DecisionVector) -> Evaluation {
        self.stats.candidates += 1;
        self.score(decision)
    }

    /// Scores a whole batch (one GA population) in order. Every decision
    /// not yet scored is solved once: its later occurrences in the batch
    /// are hits, exactly like decisions scored by an earlier batch.
    pub fn evaluate_batch(&mut self, decisions: &[DecisionVector]) -> Vec<Evaluation> {
        self.stats.candidates += decisions.len();
        decisions.iter().map(|key| self.score(key)).collect()
    }

    /// One counted candidate's evaluation, from the memo or a scored solve.
    fn score(&mut self, key: &DecisionVector) -> Evaluation {
        match self.cache.get(key).and_then(|c| c.eval) {
            Some(eval) => {
                self.stats.cache_hits += 1;
                eval
            }
            None => {
                let scoring = Some(self.scoring());
                self.solve(key, scoring, |_, _| ())
                    .0
                    .eval
                    .expect("a scored solve books an evaluation")
            }
        }
    }

    /// Predicted system TPS of `decision` on the window's model,
    /// memoised; `None` when the decision fails to apply or the solver
    /// fails. Powers the planner's quick fixes. Scores alongside the
    /// solve when an objective is attached, so a later `evaluate` of the
    /// same decision is free.
    pub fn predicted_tps(&mut self, decision: &DecisionVector) -> Option<f64> {
        self.stats.candidates += 1;
        match self.cache.get(decision) {
            Some(c) => {
                self.stats.cache_hits += 1;
                c.tps
            }
            None => self.solve(decision, self.scoring, |_, _| ()).0.tps,
        }
    }

    /// Solves `decision` and hands the configured model plus the full
    /// solution to `f` — for consumers that need more than a score
    /// (bottleneck analysis, diagnostics). Full solutions are not
    /// memoised, but the solve's throughput is recorded in the cache, so
    /// `predicted_tps` still benefits.
    ///
    /// # Errors
    ///
    /// Propagates apply and solver failures.
    pub fn with_solution<R>(
        &mut self,
        decision: &DecisionVector,
        f: impl FnOnce(&LqnModel, &LqnSolution) -> R,
    ) -> Result<R, LqnError> {
        self.stats.candidates += 1;
        self.solve(decision, None, f).1
    }
}

impl std::fmt::Debug for CandidateEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateEvaluator")
            .field("cache_entries", &self.cache.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_lqn::analytic::solve;
    use atom_lqn::TaskId;

    /// Two-service chain, same shape as the optimizer tests.
    fn setup(users: usize) -> (ModelBinding, ObjectiveSpec) {
        let mut binding = crate::fixtures::web_db(users);
        binding.services[1].max_replicas = 4;
        binding.services[1].share_bounds = (0.1, 2.0);
        let mut obj = ObjectiveSpec::balanced(1);
        obj.server_capacity = vec![(0, 8.0)];
        (binding, obj)
    }

    /// Lattice candidates (share indices on the `SHARE_STEP` grid):
    /// shares 0.5→10, 1.0→20, 0.75→15, 1.5→30, 0.25→5, 2.0→40, 0.35→7,
    /// 1.25→25.
    fn some_decisions() -> Vec<DecisionVector> {
        let mut decisions = Vec::new();
        for (rw, sw, rd, sd) in [
            (1, 10, 1, 20),
            (2, 15, 1, 30),
            (4, 20, 2, 10),
            (8, 5, 4, 40),
            (1, 10, 1, 20), // duplicate of the first
            (3, 7, 2, 25),
        ] {
            let mut d = DecisionVector::new();
            d.set(TaskId(0), rw, sw).set(TaskId(1), rd, sd);
            decisions.push(d);
        }
        decisions
    }

    /// The old direct path: clone the whole model, apply, solve, score.
    fn direct(
        binding: &ModelBinding,
        objective: &ObjectiveSpec,
        decision: &DecisionVector,
    ) -> Evaluation {
        let mut candidate = binding.model.clone();
        if decision.apply(&mut candidate).is_err() {
            return CandidateEvaluator::rejected();
        }
        match solve(&candidate, SolverOptions::candidate()) {
            Ok(sol) => objective.evaluate(binding, &candidate, decision, &sol),
            Err(_) => CandidateEvaluator::rejected(),
        }
    }

    #[test]
    fn first_batch_is_bitwise_identical_to_direct_solves() {
        // The memoised scratch-model path must reproduce the retired
        // clone-per-candidate path exactly.
        let (binding, obj) = setup(500);
        let decisions = some_decisions();
        let expect: Vec<Evaluation> = decisions
            .iter()
            .map(|d| direct(&binding, &obj, d))
            .collect();
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        assert_eq!(ev.evaluate_batch(&decisions), expect);
    }

    #[test]
    fn memoisation_counts_hits_and_saves_solves() {
        let (binding, obj) = setup(300);
        let decisions = some_decisions(); // six entries, one duplicate
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        let first = ev.evaluate_batch(&decisions);
        assert_eq!(ev.stats().solves, 5, "duplicate must be deduped");
        assert_eq!(ev.stats().cache_hits, 1);
        let second = ev.evaluate_batch(&decisions);
        assert_eq!(first, second);
        let stats = ev.stats();
        assert_eq!(stats.solves, 5, "second batch fully cached");
        assert_eq!(stats.candidates, 12);
        assert_eq!(stats.cache_hits, 7);
        assert!(stats.hit_rate() > 0.5);
        assert_eq!(first[0], first[4], "duplicates share one evaluation");
    }

    #[test]
    fn single_evaluate_agrees_with_batch() {
        let (binding, obj) = setup(400);
        let decisions = some_decisions();
        let batched =
            CandidateEvaluator::new(&binding, &binding.model, &obj).evaluate_batch(&decisions);
        // One at a time through a shared evaluator: every solve starts
        // cold, so what was solved before changes nothing.
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        for (d, expect) in decisions.iter().zip(&batched) {
            assert_eq!(ev.evaluate(d), *expect);
        }
    }

    #[test]
    fn invalid_decisions_are_rejected_not_fatal() {
        let (binding, obj) = setup(100);
        let mut bad = DecisionVector::new();
        bad.set(TaskId(99), 1, 10); // unknown task
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        let eval = ev.evaluate(&bad);
        assert!(CandidateEvaluator::is_rejected(&eval));
        assert_eq!(ev.stats().failures, 1);
        // The scratch model is intact: a good decision still evaluates.
        let mut good = DecisionVector::new();
        good.set(TaskId(0), 2, 10);
        assert!(!CandidateEvaluator::is_rejected(&ev.evaluate(&good)));
    }

    #[test]
    fn scratch_model_reverts_between_candidates() {
        // Evaluating wildly different decisions in sequence must not leak
        // one candidate's replicas/shares into the next solve.
        let (binding, obj) = setup(600);
        let decisions = some_decisions();
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        for d in &decisions {
            ev.evaluate(d);
        }
        // Reverse order on the same evaluator: cache answers must match
        // what a fresh evaluator computes for the same decision.
        for d in decisions.iter().rev() {
            let mut fresh = CandidateEvaluator::new(&binding, &binding.model, &obj);
            assert_eq!(ev.evaluate(d), fresh.evaluate(d));
        }
    }

    #[test]
    fn predicted_tps_matches_solver_only_path() {
        let (binding, obj) = setup(700);
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 4, 16).set(TaskId(1), 2, 20);
        let mut full = CandidateEvaluator::new(&binding, &binding.model, &obj);
        let mut solver = CandidateEvaluator::solver_only(&binding.model);
        let a = full.predicted_tps(&decision).unwrap();
        let b = solver.predicted_tps(&decision).unwrap();
        assert_eq!(a, b);
        // And a later evaluate() of the same decision is served from cache.
        full.evaluate(&decision);
        assert_eq!(full.stats().cache_hits, 1);
    }

    #[test]
    fn with_solution_feeds_the_memo() {
        // A full-solution solve leaves a cache entry under its decision,
        // so model-driven paths (predicted_tps) reuse it without another
        // solve.
        let (binding, _) = setup(350);
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 2, 12).set(TaskId(1), 1, 20);
        let mut ev = CandidateEvaluator::solver_only(&binding.model);
        let tps = ev
            .with_solution(&decision, |_, sol| sol.client_throughput)
            .unwrap();
        assert_eq!(ev.stats().solves, 1);
        assert_eq!(ev.predicted_tps(&decision), Some(tps));
        assert_eq!(ev.stats().solves, 1, "served from the memo");
        assert_eq!(ev.stats().cache_hits, 1);
    }

    #[test]
    fn with_solution_exposes_the_configured_model() {
        let (binding, obj) = setup(200);
        let mut decision = DecisionVector::new();
        decision.set(TaskId(0), 3, 18);
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        let (replicas, tps) = ev
            .with_solution(&decision, |model, sol| {
                (model.task(TaskId(0)).replicas, sol.client_throughput)
            })
            .unwrap();
        assert_eq!(replicas, 3, "callback must see the applied decision");
        assert!(tps > 0.0);
        let mut bad = DecisionVector::new();
        bad.set(TaskId(99), 1, 10);
        assert!(ev.with_solution(&bad, |_, _| ()).is_err());
    }

    #[test]
    fn journal_counters_mirror_the_stats() {
        let (binding, obj) = setup(300);
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        ev.evaluate_batch(&some_decisions());
        let s = ev.stats();
        let counters = s.to_counters();
        assert_eq!(counters.candidates as usize, s.candidates);
        assert_eq!(counters.solves as usize, s.solves);
        assert_eq!(counters.solver_iterations as usize, s.solver_iterations);
    }

    #[test]
    fn stats_delta_covers_every_counter() {
        let (binding, obj) = setup(300);
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &obj);
        let decisions = some_decisions();
        ev.evaluate_batch(&decisions);
        let baseline = ev.stats();
        ev.evaluate_batch(&decisions); // fully cached second pass
        let delta = ev.stats().since(&baseline);
        assert_eq!(delta.candidates, decisions.len());
        assert_eq!(delta.solves, 0);
        assert_eq!(delta.cache_hits, decisions.len());
        assert_eq!(delta.solver_iterations, 0);
        // Compiling breaks if a field is added without extending `since`,
        // which constructs the struct exhaustively.
        assert_eq!(delta.failures, 0);
    }

    #[test]
    fn rejected_sentinel_is_always_beaten() {
        let rejected = CandidateEvaluator::rejected();
        assert!(CandidateEvaluator::is_rejected(&rejected));
        let awful = Evaluation::infeasible(-1e300, 1e12);
        assert!(awful.beats(&rejected, 0.0));
        assert!(!rejected.beats(&awful, 0.0));
        assert!(!CandidateEvaluator::is_rejected(&awful));
    }
}
