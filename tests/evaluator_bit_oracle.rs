//! The candidate evaluator against the path it replaced, bit for bit.
//!
//! The evaluator solves every candidate on one `ScratchModel`: the
//! decision is applied, solved with the model's shape checked only at
//! the first solve and into one reused solution, and reverted. Its memo
//! is a hashed map keyed by the `DecisionVector`. The old path cloned
//! the window model, applied the decision, solved the clone on a fresh
//! `SolverWorkspace` and scored the result. On random lattice decisions
//! of the Sock Shop at N = 500 and N = 3000 — invalid ones included:
//! zero replicas, a zero share, the client task, a task the model does
//! not have — `evaluate`, `predicted_tps` and the full solution
//! `with_solution` shows must be the old path's, errors included, and
//! the scratch model must be back in its base configuration after every
//! candidate, which a solve of the empty decision shows.

use atom::core::evaluator::CandidateEvaluator;
use atom::core::{DecisionVector, ModelBinding, ObjectiveSpec};
use atom::ga::Evaluation;
use atom::lqn::analytic::{solve_with, ScratchModel, SolverOptions, SolverWorkspace};
use atom::lqn::{LqnError, LqnModel, LqnSolution, TaskId};
use atom::sockshop::SockShop;
use proptest::prelude::*;

const ORDERING_MIX: [f64; 3] = [0.33, 0.17, 0.50];

/// The old path: a configured clone of the window model and its solve.
fn old_solve(
    binding: &ModelBinding,
    decision: &DecisionVector,
) -> (LqnModel, Result<LqnSolution, LqnError>) {
    let mut clone = binding.model.clone();
    let solved = decision.apply(&mut clone).and_then(|()| {
        solve_with(
            &clone,
            SolverOptions::candidate(),
            &mut SolverWorkspace::new(),
        )
    });
    (clone, solved)
}

/// The old path's score: the objective on the clone, or the sentinel.
fn old_evaluate(
    binding: &ModelBinding,
    objective: &ObjectiveSpec,
    decision: &DecisionVector,
) -> Evaluation {
    match old_solve(binding, decision) {
        (clone, Ok(sol)) => objective.evaluate(binding, &clone, decision, &sol),
        (_, Err(_)) => CandidateEvaluator::rejected(),
    }
}

fn eval_bits(e: Evaluation) -> (u64, u64) {
    (e.objective.to_bits(), e.violation.to_bits())
}

/// Every number of a solution, by bit pattern.
fn solution_bits(sol: &LqnSolution) -> Vec<u64> {
    let vectors = [
        &sol.entry_throughput,
        &sol.entry_residence,
        &sol.entry_service_time,
        &sol.task_utilization,
        &sol.task_wait,
        &sol.processor_utilization,
    ];
    let mut bits = Vec::new();
    for v in vectors {
        bits.push(v.len() as u64);
        bits.extend(v.iter().map(|x| x.to_bits()));
    }
    bits.push(sol.client_response_time.to_bits());
    bits.push(sol.client_throughput.to_bits());
    bits.push(sol.iterations as u64);
    bits
}

fn bits_or_error(solved: &Result<LqnSolution, LqnError>) -> Result<Vec<u64>, LqnError> {
    solved.as_ref().map(solution_bits).map_err(Clone::clone)
}

/// One raw candidate: per service an optional `(replicas, share index)`
/// (`None` leaves the service out of the decision), and which defect to
/// plant — 0 zero replicas, 1 a zero share, 2 the client task, 3 an
/// unknown task, anything else none — on the service `victim`.
type Raw = (Vec<Option<(usize, usize)>>, usize, usize);

fn raw_strategy() -> impl Strategy<Value = Raw> {
    (
        proptest::collection::vec(proptest::option::of((1usize..=5, 1usize..=40)), 6..7),
        0usize..10,
        0usize..6,
    )
}

fn decision_of(binding: &ModelBinding, (services, defect, victim): &Raw) -> DecisionVector {
    let mut decision = DecisionVector::new();
    for (service, choice) in binding.services.iter().zip(services) {
        if let Some((replicas, share_idx)) = *choice {
            decision.set(service.task, replicas, share_idx);
        }
    }
    let task = binding.services[*victim].task;
    match defect {
        0 => {
            decision.set(task, 0, 10);
        }
        1 => {
            decision.set(task, 2, 0);
        }
        2 => {
            decision.set(binding.client, 1, 10);
        }
        3 => {
            decision.set(TaskId(99), 1, 10);
        }
        _ => {}
    }
    decision
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_entry_point_matches_the_clone_and_solve_path(
        large in 0usize..2,
        raws in proptest::collection::vec((raw_strategy(), 0usize..3), 1..10),
    ) {
        let shop = SockShop::default();
        let binding = shop.binding([500, 3000][large], 7.0, &ORDERING_MIX);
        let objective = shop.objective();
        let mut ev = CandidateEvaluator::new(&binding, &binding.model, &objective);
        let mut scratch = ScratchModel::new(&binding.model);
        let candidates: Vec<(DecisionVector, usize)> = raws
            .iter()
            .map(|(raw, entry)| (decision_of(&binding, raw), *entry))
            .collect();
        // Forward, then backward: the second pass answers `evaluate` and
        // `predicted_tps` from the memo.
        for (decision, entry) in candidates.iter().chain(candidates.iter().rev()) {
            let (clone, solved) = old_solve(&binding, decision);
            match entry {
                0 => prop_assert_eq!(
                    eval_bits(ev.evaluate(decision)),
                    eval_bits(old_evaluate(&binding, &objective, decision)),
                    "evaluate({})", decision
                ),
                1 => prop_assert_eq!(
                    ev.predicted_tps(decision).map(f64::to_bits),
                    solved.as_ref().ok().map(|s| s.client_throughput.to_bits()),
                    "predicted_tps({})", decision
                ),
                _ => {
                    let seen = ev.with_solution(decision, |model, sol| {
                        (model.clone(), solution_bits(sol))
                    });
                    match (seen, &solved) {
                        (Ok((model, bits)), Ok(_)) => {
                            prop_assert_eq!(&model, &clone, "configured model of {}", decision);
                            prop_assert_eq!(Ok(bits), bits_or_error(&solved), "{}", decision);
                        }
                        (seen, _) => prop_assert_eq!(
                            seen.map(|(_, bits)| bits),
                            bits_or_error(&solved),
                            "with_solution({})", decision
                        ),
                    }
                }
            }
            let direct = scratch.solve(decision, SolverOptions::candidate(), |model, sol| {
                (model == &clone, solution_bits(sol))
            });
            prop_assert_eq!(
                direct.map(|(configured, bits)| configured.then_some(bits)),
                bits_or_error(&solved).map(Some),
                "ScratchModel::solve({})", decision
            );
            // The empty decision shows the model as the last candidate left it.
            let none = DecisionVector::new();
            let left = scratch.solve(&none, SolverOptions::candidate(), |model, _| {
                model == &binding.model
            });
            prop_assert_eq!(left, Ok(true), "reverted after {}", decision);
        }
    }
}
