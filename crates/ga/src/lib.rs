#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! A genetic algorithm for non-linear mixed-integer programs.
//!
//! ATOM's optimizer (§IV-C) searches scaling configurations `(r, s)` —
//! integer replica counts and continuous CPU shares — whose fitness is an
//! LQN solve, under response-time/capacity/utilisation constraints. The
//! paper uses MATLAB's `ga`; this crate provides the same capability:
//!
//! * mixed genomes ([`Gene::Int`] / [`Gene::Float`] with bounds);
//! * **feasibility-first** tournament selection (Deb's rules): a feasible
//!   individual always beats an infeasible one, infeasible individuals
//!   compare by constraint violation, feasible ones by objective;
//! * blend crossover for floats, uniform crossover for integers;
//! * Gaussian mutation for floats, step/reset mutation for integers;
//! * elitism and a budget in evaluations or generations (the paper
//!   bounds optimisation at 2 minutes of a 5-minute window; a budget in
//!   work instead of wall-clock time keeps every search reproducible).
//!
//! # Example
//!
//! ```
//! use atom_ga::{optimize, Budget, GaOptions, Gene, GeneValue, Evaluation};
//!
//! // Maximise -(x-3)² - (y-0.5)² over x ∈ [0,10] ⊂ ℤ, y ∈ [0,1].
//! let genome = vec![Gene::Int { lo: 0, hi: 10 }, Gene::Float { lo: 0.0, hi: 1.0 }];
//! let result = optimize(&genome, GaOptions::default(), |g| {
//!     let x = g[0].as_f64();
//!     let y = g[1].as_f64();
//!     Evaluation::feasible(-(x - 3.0).powi(2) - (y - 0.5).powi(2))
//! });
//! assert_eq!(result.best_values[0], GeneValue::Int(3));
//! ```

use atom_sim::SimRng;

/// A gene's type and bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gene {
    /// Integer gene in `[lo, hi]` (inclusive).
    Int {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// Real gene in `[lo, hi]`.
    Float {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

/// A concrete gene value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeneValue {
    /// An integer value.
    Int(i64),
    /// A real value.
    Float(f64),
}

impl GeneValue {
    /// The value as `f64` regardless of kind.
    pub fn as_f64(&self) -> f64 {
        match *self {
            GeneValue::Int(v) => v as f64,
            GeneValue::Float(v) => v,
        }
    }

    /// The value as `i64`; floats are rounded.
    pub fn as_i64(&self) -> i64 {
        match *self {
            GeneValue::Int(v) => v,
            GeneValue::Float(v) => v.round() as i64,
        }
    }
}

/// Result of evaluating one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Objective to **maximise**.
    pub objective: f64,
    /// Total constraint violation; `0` means feasible. Compared with the
    /// solver tolerance of Algorithm 1.
    pub violation: f64,
}

impl Evaluation {
    /// A feasible evaluation.
    pub fn feasible(objective: f64) -> Self {
        Evaluation {
            objective,
            violation: 0.0,
        }
    }

    /// An infeasible evaluation with the given violation magnitude.
    pub fn infeasible(objective: f64, violation: f64) -> Self {
        Evaluation {
            objective,
            violation: violation.max(0.0),
        }
    }

    /// Deb's feasibility-first comparison: `true` if `self` beats
    /// `other`, given the feasibility `tolerance`.
    pub fn beats(&self, other: &Evaluation, tolerance: f64) -> bool {
        let self_ok = self.violation <= tolerance;
        let other_ok = other.violation <= tolerance;
        match (self_ok, other_ok) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => self.objective > other.objective,
            (false, false) => self.violation < other.violation,
        }
    }
}

/// Search budget.
///
/// All budgets are checked at **generation boundaries**: the GA always
/// evaluates a full population batch, then decides whether to start
/// another generation. [`Budget::Evaluations`] may therefore overshoot
/// by at most one population (minus elites, which are never
/// re-evaluated). Each generation is one fitness batch, the unit a
/// memoised evaluator deduplicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Stop once at least this many fitness evaluations have been spent.
    /// Checked at generation boundaries, so the actual count can exceed
    /// the budget by up to one population batch.
    Evaluations(usize),
    /// Stop after this many generations.
    Generations(usize),
}

/// Population size. The GA's shape is tuned for ATOM's integer-lattice
/// decision genomes under small evaluation budgets (a few hundred solves
/// per window): a compact population with mild mutation converges within
/// the budget, which both finds better configurations and makes late
/// generations re-propose already-evaluated lattice points — exactly
/// what a memoised evaluator serves for free.
const POPULATION: usize = 16;
/// Individuals copied unchanged to the next generation.
const ELITE: usize = 2;
/// Tournament size for selection.
const TOURNAMENT: usize = 3;
/// Probability of crossover (else clone a parent).
const CROSSOVER_RATE: f64 = 0.9;
/// Per-gene mutation probability.
const MUTATION_RATE: f64 = 0.06;
/// Feasibility tolerance (Algorithm 1's `tolerance` input).
const TOLERANCE: f64 = 0.0;

/// What varies between searches. The GA's shape is fixed: a population
/// of 16 with 2 elites, tournaments of 3, crossover probability 0.9,
/// per-gene mutation probability 0.06 and zero feasibility tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaOptions {
    /// Search budget.
    pub budget: Budget,
    /// RNG seed.
    pub seed: u64,
    /// Per-generation population dedup (niching): a bred child whose
    /// genome already appears among this generation's earlier children
    /// is re-mutated (and, as a last resort, replaced by a random
    /// immigrant) so each batch is spent on *distinct* candidates. Most
    /// effective with all-integer (lattice) genomes, where converging
    /// populations otherwise collapse onto a handful of identical
    /// vectors. Duplicates *across* generations (including children
    /// that reproduce an elite) are deliberately untouched — those are
    /// what a candidate-evaluation memo serves for free.
    pub niching: bool,
}

impl Default for GaOptions {
    fn default() -> Self {
        GaOptions {
            budget: Budget::Evaluations(2_000),
            seed: 1,
            niching: false,
        }
    }
}

/// Outcome of [`optimize`].
#[derive(Debug, Clone)]
pub struct GaResult {
    /// Best genome found.
    pub best_values: Vec<GeneValue>,
    /// Its evaluation.
    pub best: Evaluation,
    /// Fitness evaluations spent.
    pub evaluations: usize,
    /// Generations completed.
    pub generations: usize,
    /// Best feasible objective after each generation (`NaN` until a
    /// feasible individual exists).
    pub history: Vec<f64>,
    /// Mean finite objective across the population after each generation
    /// (`NaN` when no individual has a finite objective). Together with
    /// [`GaResult::history`] this is the standard convergence read-out:
    /// a mean chasing the best means the population has converged.
    pub mean_history: Vec<f64>,
    /// Children the niching pass had to replace (duplicate-genome
    /// re-mutations and random immigrants). Zero when
    /// [`GaOptions::niching`] is off.
    pub niche_dedup: usize,
}

fn random_value(gene: &Gene, rng: &mut SimRng) -> GeneValue {
    match *gene {
        Gene::Int { lo, hi } => {
            let span = (hi - lo + 1) as f64;
            GeneValue::Int(lo + (rng.uniform() * span).floor().min(span - 1.0) as i64)
        }
        Gene::Float { lo, hi } => GeneValue::Float(rng.uniform_in(lo, hi)),
    }
}

fn clamp_value(gene: &Gene, v: GeneValue) -> GeneValue {
    match (*gene, v) {
        (Gene::Int { lo, hi }, GeneValue::Int(x)) => GeneValue::Int(x.clamp(lo, hi)),
        (Gene::Int { lo, hi }, GeneValue::Float(x)) => {
            GeneValue::Int((x.round() as i64).clamp(lo, hi))
        }
        (Gene::Float { lo, hi }, v) => GeneValue::Float(v.as_f64().clamp(lo, hi)),
    }
}

/// Breeds parents `a` and `b` into `child`, overwriting it.
fn crossover(
    genome: &[Gene],
    a: &[GeneValue],
    b: &[GeneValue],
    child: &mut Vec<GeneValue>,
    rng: &mut SimRng,
) {
    let genes = genome
        .iter()
        .zip(a.iter().zip(b))
        .map(|(g, (&va, &vb))| match g {
            Gene::Int { .. } => {
                // Lattice recombination: mostly inherit one parent's
                // exact coordinate (uniform crossover), occasionally
                // sample the (slightly extended) integer segment between
                // the parents — the integer analogue of BLX. Offspring
                // land exactly on the lattice by construction, and the
                // parental-pick branch keeps child genes at coordinates
                // the population has already visited — which is what
                // lets converging populations collide in a
                // candidate-evaluation memo instead of scattering into
                // fresh in-between points every generation.
                let (x, y) = (va.as_i64(), vb.as_i64());
                let (lo, hi) = (x.min(y), x.max(y));
                if lo == hi {
                    return clamp_value(g, GeneValue::Int(lo));
                }
                if rng.bernoulli(0.8) {
                    let keep = if rng.bernoulli(0.5) { x } else { y };
                    return clamp_value(g, GeneValue::Int(keep));
                }
                let ext = 0.1 * (hi - lo) as f64;
                let sample = rng.uniform_in(lo as f64 - ext, hi as f64 + ext).round();
                clamp_value(g, GeneValue::Int(sample as i64))
            }
            Gene::Float { .. } => {
                // BLX-ish blend: sample in the (slightly extended) segment.
                let (x, y) = (va.as_f64(), vb.as_f64());
                let (lo, hi) = (x.min(y), x.max(y));
                let ext = 0.1 * (hi - lo);
                clamp_value(g, GeneValue::Float(rng.uniform_in(lo - ext, hi + ext)))
            }
        });
    child.clear();
    child.extend(genes);
}

/// A hash of a genome consistent with its `==`: genomes that compare
/// equal hash equal, so a differing hash proves two genomes differ
/// without comparing them gene by gene.
fn genome_hash(values: &[GeneValue]) -> u64 {
    values.iter().fold(0, |h: u64, v| {
        let word = match *v {
            GeneValue::Int(x) => x as u64,
            // `-0.0 == 0.0`, so both zeros hash as one.
            GeneValue::Float(x) => (x + 0.0).to_bits(),
        };
        (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

fn mutate(genome: &[Gene], values: &mut [GeneValue], rate: f64, rng: &mut SimRng) {
    for (g, v) in genome.iter().zip(values.iter_mut()) {
        if !rng.bernoulli(rate) {
            continue;
        }
        *v = match *g {
            Gene::Int { lo, hi } => {
                if rng.bernoulli(0.9) {
                    // ±1 lattice step: the local move that dominates
                    // integer mutation. Walking the lattice one step at
                    // a time keeps a converging population inside the
                    // neighbourhood it has already evaluated — which is
                    // what lets a candidate-evaluation memo serve
                    // repeat visits — while the occasional full reset
                    // below retains global exploration.
                    let step = if rng.bernoulli(0.5) { 1 } else { -1 };
                    clamp_value(g, GeneValue::Int(v.as_i64() + step))
                } else {
                    random_value(&Gene::Int { lo, hi }, rng)
                }
            }
            Gene::Float { lo, hi } => {
                let sigma = 0.1 * (hi - lo);
                let x = v.as_f64() + sigma * rng.standard_normal();
                clamp_value(g, GeneValue::Float(x))
            }
        };
    }
}

/// Runs the GA with a **batched** fitness function, maximising over
/// `genome` within the budget.
///
/// Each generation's candidates are handed to `fitness` as one slice of
/// genomes; the returned evaluations must correspond index-by-index.
/// The batch is the unit of deduplication: a caller such as `atom-core`'s
/// `CandidateEvaluator` solves each distinct genome once and answers
/// repeats from its memo. All random choices (parent selection,
/// crossover, mutation) happen *before* the batch is evaluated, so the
/// evolution trajectory is the same however the batch is computed —
/// one candidate at a time or from a cache.
///
/// Budgets are checked at generation boundaries (see [`Budget`]);
/// [`Budget::Evaluations`] may overshoot by at most one population.
///
/// # Panics
///
/// Panics if the genome is empty, any gene has inverted bounds, or
/// `fitness` returns a wrong-length batch.
pub fn optimize_batched<F>(genome: &[Gene], options: GaOptions, mut fitness: F) -> GaResult
where
    F: FnMut(&[&[GeneValue]]) -> Vec<Evaluation>,
{
    assert!(!genome.is_empty(), "genome must not be empty");
    for g in genome {
        match *g {
            Gene::Int { lo, hi } => assert!(lo <= hi, "gene bounds inverted"),
            Gene::Float { lo, hi } => assert!(lo <= hi, "gene bounds inverted"),
        }
    }
    let mut rng = SimRng::seed_from(options.seed);
    let mut evaluations = 0usize;

    let budget_left = |evals: usize, gens: usize| -> bool {
        match options.budget {
            Budget::Evaluations(max) => evals < max,
            Budget::Generations(max) => gens < max,
        }
    };

    let mut eval_batch = |batch: &[Vec<GeneValue>], evaluations: &mut usize| -> Vec<Evaluation> {
        let refs: Vec<&[GeneValue]> = batch.iter().map(Vec::as_slice).collect();
        let evals = fitness(&refs);
        assert_eq!(
            evals.len(),
            batch.len(),
            "batched fitness returned {} evaluations for {} candidates",
            evals.len(),
            batch.len()
        );
        *evaluations += batch.len();
        evals
    };

    // Initial population: generate every genome first (sequential RNG),
    // then evaluate the whole batch at once.
    let genomes: Vec<Vec<GeneValue>> = (0..POPULATION)
        .map(|_| genome.iter().map(|g| random_value(g, &mut rng)).collect())
        .collect();
    let evals = eval_batch(&genomes, &mut evaluations);
    let mut pop: Vec<(Vec<GeneValue>, Evaluation)> = genomes.into_iter().zip(evals).collect();

    let better = |a: &Evaluation, b: &Evaluation| a.beats(b, TOLERANCE);
    let mut best_idx = 0;
    for i in 1..pop.len() {
        if better(&pop[i].1, &pop[best_idx].1) {
            best_idx = i;
        }
    }
    let mut best = pop[best_idx].clone();
    let mut history = Vec::new();
    let mut mean_history = Vec::new();
    let mut niche_dedup = 0usize;
    let mut generations = 0usize;
    // Every generation breeds into these buffers; `sibling_hashes[k]` is
    // `genome_hash(&children[k])` while niching.
    let mut children: Vec<Vec<GeneValue>> = vec![Vec::new(); POPULATION - ELITE];
    let mut sibling_hashes: Vec<u64> = Vec::with_capacity(POPULATION - ELITE);

    while budget_left(evaluations, generations) {
        // Sort so elites are at the front (selection sort by `beats` is
        // O(n²) but n is tiny).
        pop.sort_by(|a, b| {
            if better(&a.1, &b.1) {
                std::cmp::Ordering::Less
            } else if better(&b.1, &a.1) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        // Breed a full generation of children before evaluating any of
        // them; elites carry their known evaluations over unchanged.
        sibling_hashes.clear();
        for k in 0..children.len() {
            let pick = |rng: &mut SimRng| -> usize {
                let mut winner = (rng.uniform() * pop.len() as f64) as usize % pop.len();
                for _ in 1..TOURNAMENT {
                    let challenger = (rng.uniform() * pop.len() as f64) as usize % pop.len();
                    if better(&pop[challenger].1, &pop[winner].1) {
                        winner = challenger;
                    }
                }
                winner
            };
            let pa = pick(&mut rng);
            let pb = pick(&mut rng);
            let (siblings, rest) = children.split_at_mut(k);
            let child = &mut rest[0];
            if rng.bernoulli(CROSSOVER_RATE) {
                crossover(genome, &pop[pa].0, &pop[pb].0, child, &mut rng);
            } else {
                child.clone_from(&pop[pa].0);
            }
            mutate(genome, child, MUTATION_RATE, &mut rng);
            if options.niching {
                // Re-mutate duplicates of earlier children so each
                // generation's batch is spent on distinct candidates;
                // after a few failed attempts, replace with a random
                // immigrant so the loop always terminates. Only
                // *siblings* are deduplicated: a child that reproduces
                // an elite (or any earlier generation's genome) is kept
                // as-is — it costs nothing under a memoised evaluator
                // and re-mutating it would inject noise exactly where
                // the population is converging. A sibling is compared
                // gene by gene only when its hash matches.
                let is_dup = |c: &[GeneValue]| {
                    let h = genome_hash(c);
                    sibling_hashes
                        .iter()
                        .zip(&*siblings)
                        .any(|(&hs, s)| hs == h && s.as_slice() == c)
                };
                let mut dup = is_dup(child);
                if dup {
                    niche_dedup += 1;
                }
                let mut attempts = 0;
                while attempts < 8 && dup {
                    mutate(genome, child, MUTATION_RATE.max(0.25), &mut rng);
                    dup = is_dup(child);
                    attempts += 1;
                }
                attempts = 0;
                while attempts < 8 && dup {
                    for (v, g) in child.iter_mut().zip(genome) {
                        *v = random_value(g, &mut rng);
                    }
                    dup = is_dup(child);
                    attempts += 1;
                }
                sibling_hashes.push(genome_hash(child));
            }
        }
        let child_evals = eval_batch(&children, &mut evaluations);

        // The children replace everything but the elites; the genomes
        // they displace become the next generation's child buffers.
        for (i, eval) in child_evals.into_iter().enumerate() {
            let slot = &mut pop[ELITE + i];
            std::mem::swap(&mut slot.0, &mut children[i]);
            slot.1 = eval;
            if better(&eval, &best.1) {
                best.0.clone_from(&slot.0);
                best.1 = eval;
            }
        }
        generations += 1;
        let best_feasible = pop
            .iter()
            .filter(|(_, e)| e.violation <= TOLERANCE)
            .map(|(_, e)| e.objective)
            .fold(f64::NAN, f64::max);
        history.push(best_feasible);
        let (sum, n) = pop
            .iter()
            .map(|(_, e)| e.objective)
            .filter(|o| o.is_finite())
            .fold((0.0, 0usize), |(s, n), o| (s + o, n + 1));
        mean_history.push(if n > 0 { sum / n as f64 } else { f64::NAN });
    }

    GaResult {
        best_values: best.0,
        best: best.1,
        evaluations,
        generations,
        history,
        mean_history,
        niche_dedup,
    }
}

/// Runs the GA with a per-candidate fitness function.
///
/// This is a thin adapter over [`optimize_batched`]: candidates are
/// evaluated one at a time, in batch order. Because fitness functions
/// consume no randomness, the adapter produces exactly the trajectory of
/// the batched form.
///
/// `fitness` is called once per candidate; return
/// [`Evaluation::infeasible`] for constraint-violating candidates and the
/// feasibility-first selection will steer away from them without
/// discarding their information.
///
/// # Panics
///
/// Panics if the genome is empty or any gene has inverted bounds.
pub fn optimize<F>(genome: &[Gene], options: GaOptions, mut fitness: F) -> GaResult
where
    F: FnMut(&[GeneValue]) -> Evaluation,
{
    optimize_batched(genome, options, |batch| {
        batch.iter().map(|candidate| fitness(candidate)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_genome(n: usize) -> Vec<Gene> {
        (0..n).map(|_| Gene::Float { lo: -5.0, hi: 5.0 }).collect()
    }

    #[test]
    fn optimizes_sphere() {
        let genome = sphere_genome(4);
        let result = optimize(&genome, GaOptions::default(), |g| {
            Evaluation::feasible(-g.iter().map(|v| v.as_f64().powi(2)).sum::<f64>())
        });
        assert!(result.best.objective > -0.5, "best {:?}", result.best);
    }

    #[test]
    fn mixed_integer_optimum() {
        let genome = vec![Gene::Int { lo: 1, hi: 8 }, Gene::Float { lo: 0.1, hi: 1.0 }];
        // Max objective at r=4, s≈0.6.
        let result = optimize(
            &genome,
            GaOptions {
                budget: Budget::Evaluations(3_000),
                ..Default::default()
            },
            |g| {
                let r = g[0].as_f64();
                let s = g[1].as_f64();
                Evaluation::feasible(-(r - 4.0).powi(2) - 10.0 * (s - 0.6).powi(2))
            },
        );
        assert_eq!(result.best_values[0].as_i64(), 4);
        assert!((result.best_values[1].as_f64() - 0.6).abs() < 0.05);
    }

    #[test]
    fn constraints_drive_to_feasible_region() {
        // Maximise x but x <= 2 is the feasible region.
        let genome = vec![Gene::Float { lo: 0.0, hi: 10.0 }];
        let result = optimize(
            &genome,
            GaOptions {
                budget: Budget::Evaluations(2_000),
                ..Default::default()
            },
            |g| {
                let x = g[0].as_f64();
                if x <= 2.0 {
                    Evaluation::feasible(x)
                } else {
                    Evaluation::infeasible(x, x - 2.0)
                }
            },
        );
        assert!(result.best.violation == 0.0);
        assert!(result.best.objective > 1.9, "best {:?}", result.best);
    }

    #[test]
    fn respects_bounds() {
        let genome = vec![
            Gene::Int { lo: 2, hi: 5 },
            Gene::Float { lo: 0.25, hi: 0.75 },
        ];
        let mut violations = 0;
        let _ = optimize(
            &genome,
            GaOptions {
                budget: Budget::Evaluations(1_000),
                ..Default::default()
            },
            |g| {
                let r = g[0].as_i64();
                let s = g[1].as_f64();
                if !(2..=5).contains(&r) || !(0.25..=0.75).contains(&s) {
                    violations += 1;
                }
                Evaluation::feasible(0.0)
            },
        );
        assert_eq!(violations, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let genome = sphere_genome(3);
        let run = |seed| {
            optimize(
                &genome,
                GaOptions {
                    seed,
                    budget: Budget::Evaluations(500),
                    ..Default::default()
                },
                |g| Evaluation::feasible(-g.iter().map(|v| v.as_f64().powi(2)).sum::<f64>()),
            )
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.best_values, b.best_values);
        assert_eq!(a.best, b.best);
        let c = run(43);
        assert!(a.best_values != c.best_values || a.best != c.best);
    }

    #[test]
    fn evaluation_budget_overshoots_by_less_than_one_population() {
        // Budgets are checked at generation boundaries: the GA spends at
        // least the budget, and at most one extra population batch.
        let genome = sphere_genome(2);
        let options = GaOptions {
            budget: Budget::Evaluations(123),
            ..Default::default()
        };
        let result = optimize(&genome, options, |_| Evaluation::feasible(0.0));
        assert!(result.evaluations >= 123, "{}", result.evaluations);
        assert!(
            result.evaluations < 123 + POPULATION,
            "overshoot too large: {}",
            result.evaluations
        );
    }

    #[test]
    fn divisible_evaluation_budget_is_exact() {
        // 16 initial + 14 children per generation: a budget of
        // 16 + 56×14 = 800 lands exactly on a generation boundary.
        let genome = sphere_genome(2);
        let result = optimize(
            &genome,
            GaOptions {
                budget: Budget::Evaluations(800),
                ..Default::default()
            },
            |_| Evaluation::feasible(0.0),
        );
        assert_eq!(result.evaluations, 800);
        assert_eq!(result.generations, 56);
    }

    #[test]
    fn batched_and_serial_forms_agree_exactly() {
        let genome = vec![Gene::Int { lo: 1, hi: 8 }, Gene::Float { lo: 0.1, hi: 1.0 }];
        let fitness = |g: &[GeneValue]| {
            let r = g[0].as_f64();
            let s = g[1].as_f64();
            if s > 0.8 {
                Evaluation::infeasible(0.0, s - 0.8)
            } else {
                Evaluation::feasible(-(r - 4.0).powi(2) - (s - 0.6).powi(2))
            }
        };
        let options = GaOptions {
            budget: Budget::Evaluations(500),
            seed: 7,
            ..Default::default()
        };
        let serial = optimize(&genome, options, fitness);
        let batched = optimize_batched(&genome, options, |batch| {
            batch.iter().map(|c| fitness(c)).collect()
        });
        assert_eq!(serial.best_values, batched.best_values);
        assert_eq!(serial.best, batched.best);
        assert_eq!(serial.evaluations, batched.evaluations);
        assert_eq!(serial.history, batched.history);
    }

    #[test]
    fn batches_are_whole_generations() {
        let genome = sphere_genome(3);
        let options = GaOptions {
            budget: Budget::Generations(4),
            ..Default::default()
        };
        let mut batch_sizes = Vec::new();
        let result = optimize_batched(&genome, options, |batch| {
            batch_sizes.push(batch.len());
            batch.iter().map(|_| Evaluation::feasible(0.0)).collect()
        });
        // One full-population batch, then population−elite children per
        // generation.
        assert_eq!(batch_sizes[0], POPULATION);
        assert_eq!(batch_sizes.len(), 1 + result.generations);
        for &size in &batch_sizes[1..] {
            assert_eq!(size, POPULATION - ELITE);
        }
    }

    #[test]
    #[should_panic(expected = "batched fitness returned")]
    fn rejects_wrong_length_batch_result() {
        optimize_batched(&sphere_genome(2), GaOptions::default(), |_| {
            vec![Evaluation::feasible(0.0)]
        });
    }

    #[test]
    fn generation_budget_is_respected() {
        let genome = sphere_genome(2);
        let result = optimize(
            &genome,
            GaOptions {
                budget: Budget::Generations(5),
                ..Default::default()
            },
            |_| Evaluation::feasible(0.0),
        );
        assert_eq!(result.generations, 5);
        assert_eq!(result.history.len(), 5);
        assert_eq!(result.mean_history.len(), 5);
        assert!(result.mean_history.iter().all(|m| m.is_finite()));
        assert_eq!(result.niche_dedup, 0, "no niching, no dedup");
    }

    #[test]
    fn niching_counts_its_interventions() {
        // A two-point lattice forces duplicate children every generation,
        // so the niching pass must intervene and count doing so.
        let genome = vec![Gene::Int { lo: 0, hi: 1 }];
        let result = optimize(
            &genome,
            GaOptions {
                budget: Budget::Generations(4),
                niching: true,
                ..Default::default()
            },
            |g| Evaluation::feasible(-g[0].as_f64()),
        );
        assert!(result.niche_dedup > 0, "duplicates must be detected");
    }

    #[test]
    fn beats_implements_deb_rules() {
        let feas_hi = Evaluation::feasible(10.0);
        let feas_lo = Evaluation::feasible(1.0);
        let infeas_small = Evaluation::infeasible(100.0, 0.5);
        let infeas_big = Evaluation::infeasible(100.0, 2.0);
        assert!(feas_hi.beats(&feas_lo, 0.0));
        assert!(feas_lo.beats(&infeas_small, 0.0));
        assert!(infeas_small.beats(&infeas_big, 0.0));
        assert!(!infeas_big.beats(&feas_lo, 0.0));
        // Tolerance turns a small violation into feasibility.
        assert!(infeas_small.beats(&feas_lo, 1.0));
    }

    #[test]
    fn history_improves_monotonically_for_elitist_ga() {
        let genome = sphere_genome(3);
        let result = optimize(
            &genome,
            GaOptions {
                budget: Budget::Generations(30),
                ..Default::default()
            },
            |g| Evaluation::feasible(-g.iter().map(|v| v.as_f64().powi(2)).sum::<f64>()),
        );
        for w in result.history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "elitism must not regress: {w:?}");
        }
    }

    #[test]
    fn int_crossover_of_identical_parents_reproduces_them() {
        // Lattice blend must keep a converged pair on its grid point —
        // the property that makes offspring cache-aligned.
        let genome = vec![Gene::Int { lo: 0, hi: 100 }, Gene::Int { lo: 1, hi: 40 }];
        let parent = vec![GeneValue::Int(42), GeneValue::Int(7)];
        let mut rng = SimRng::seed_from(9);
        let mut child = Vec::new();
        for _ in 0..50 {
            crossover(&genome, &parent, &parent, &mut child, &mut rng);
            assert_eq!(child, parent);
        }
    }

    #[test]
    fn int_crossover_stays_integer_and_in_bounds() {
        let genome = vec![Gene::Int { lo: 0, hi: 20 }];
        let a = vec![GeneValue::Int(3)];
        let b = vec![GeneValue::Int(17)];
        let mut rng = SimRng::seed_from(5);
        let mut child = Vec::new();
        for _ in 0..200 {
            crossover(&genome, &a, &b, &mut child, &mut rng);
            match child[0] {
                GeneValue::Int(v) => assert!((0..=20).contains(&v), "out of bounds: {v}"),
                GeneValue::Float(v) => panic!("int gene produced float {v}"),
            }
        }
    }

    #[test]
    fn niching_removes_within_generation_duplicates() {
        // A tiny all-integer lattice forces collisions; with niching on,
        // each generation's batch must be duplicate-free whenever the
        // lattice has at least population-many points.
        let genome = vec![Gene::Int { lo: 0, hi: 9 }, Gene::Int { lo: 0, hi: 9 }];
        let options = GaOptions {
            budget: Budget::Generations(10),
            niching: true,
            seed: 3,
        };
        let mut first = true;
        optimize_batched(&genome, options, |batch| {
            if !first {
                // Children of one generation: pairwise distinct.
                for i in 0..batch.len() {
                    for j in 0..i {
                        assert_ne!(batch[i], batch[j], "duplicate bred at {i}/{j}");
                    }
                }
            }
            first = false;
            batch
                .iter()
                .map(|g| Evaluation::feasible(-g.iter().map(|v| v.as_f64().powi(2)).sum::<f64>()))
                .collect()
        });
    }

    #[test]
    fn niching_is_deterministic_in_seed() {
        let genome = vec![Gene::Int { lo: 0, hi: 30 }, Gene::Int { lo: 1, hi: 15 }];
        let run = || {
            optimize(
                &genome,
                GaOptions {
                    budget: Budget::Evaluations(400),
                    niching: true,
                    seed: 11,
                },
                |g| Evaluation::feasible(-(g[0].as_f64() - 12.0).powi(2) - g[1].as_f64()),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_values, b.best_values);
        assert_eq!(a.history, b.history);
    }
}
