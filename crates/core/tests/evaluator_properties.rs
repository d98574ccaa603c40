//! Property tests for the unified candidate-evaluation layer and the
//! integer-lattice candidate representation: parity with the direct
//! solve path, losslessness of the lattice encoding, and
//! seed-determinism of random search.

use atom_cluster::ServiceId;
use atom_core::evaluator::CandidateEvaluator;
use atom_core::optimizer::{decode, lattice_genome, random_search, share_index_bounds};
use atom_core::solver::{solve, SolverOptions};
use atom_core::{
    share_index, DecisionVector, ModelBinding, ObjectiveSpec, ServiceBinding, SHARE_STEP,
};
use atom_ga::{Evaluation, GeneValue};
use atom_lqn::{LqnModel, TaskId};
use proptest::prelude::*;

fn setup(users: usize, demand_ms: f64) -> (ModelBinding, ObjectiveSpec) {
    let mut m = LqnModel::new();
    let p = m.add_processor("p", 8, 1.0);
    let web = m.add_task("web", p, 64, 1).unwrap();
    m.set_cpu_share(web, Some(0.5)).unwrap();
    let db = m.add_task("db", p, 16, 1).unwrap();
    m.set_cpu_share(db, Some(1.0)).unwrap();
    let page = m.add_entry("page", web, demand_ms / 1000.0).unwrap();
    let query = m.add_entry("query", db, demand_ms / 4000.0).unwrap();
    m.add_call(page, query, 1.0).unwrap();
    let c = m.add_reference_task("users", users, 2.0).unwrap();
    m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
        .unwrap();
    let binding = ModelBinding {
        model: m,
        client: c,
        services: vec![
            ServiceBinding {
                name: "web".into(),
                service: ServiceId(0),
                task: web,
                max_replicas: 8,
                share_bounds: (0.1, 1.0),
            },
            ServiceBinding {
                name: "db".into(),
                service: ServiceId(1),
                task: db,
                max_replicas: 4,
                share_bounds: (0.1, 2.0),
            },
        ],
        feature_entries: vec![page],
    };
    let mut obj = ObjectiveSpec::balanced(1);
    obj.server_capacity = vec![(0, 8.0)];
    (binding, obj)
}

/// The retired clone-per-candidate path, for parity checks.
fn direct(binding: &ModelBinding, obj: &ObjectiveSpec, decision: &DecisionVector) -> Evaluation {
    let mut candidate = binding.model.clone();
    if decision.apply(&mut candidate).is_err() {
        return CandidateEvaluator::rejected();
    }
    match solve(&candidate, SolverOptions::candidate()) {
        Ok(sol) => obj.evaluate(binding, &candidate, decision, &sol),
        Err(_) => CandidateEvaluator::rejected(),
    }
}

/// Lattice candidates within the test binding's bounds: web share
/// indices 2..=20 (0.1..=1.0), db 2..=40 (0.1..=2.0).
fn decision_strategy() -> impl Strategy<Value = DecisionVector> {
    (1usize..=8, 2usize..=20, 1usize..=4, 2usize..=40).prop_map(|(rw, iw, rd, id)| {
        let mut d = DecisionVector::new();
        d.set(TaskId(0), rw, iw).set(TaskId(1), rd, id);
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A batch reproduces the direct clone-and-solve path bitwise.
    #[test]
    fn batched_evaluator_matches_direct_path(
        decisions in proptest::collection::vec(decision_strategy(), 1..12),
        users in 50usize..1500,
    ) {
        let (binding, obj) = setup(users, 8.0);
        let expect: Vec<Evaluation> =
            decisions.iter().map(|d| direct(&binding, &obj, d)).collect();
        let got = CandidateEvaluator::new(&binding, &binding.model, &obj)
            .evaluate_batch(&decisions);
        prop_assert_eq!(got, expect);
    }

    /// Every decision applies exactly: the model carries the denoted
    /// grid multiple bit for bit, the float share snaps back to the same
    /// index, and the float and integer totals agree.
    #[test]
    fn decision_applies_exactly_and_shares_snap_back(decision in decision_strategy()) {
        let (binding, _) = setup(100, 8.0);
        let mut model = binding.model.clone();
        decision.apply(&mut model).unwrap();
        let mut float_total = 0.0;
        for (task, d) in decision.iter() {
            let share = model.task(task).cpu_share.unwrap();
            prop_assert_eq!(share, d.share_idx as f64 * SHARE_STEP);
            prop_assert_eq!(model.task(task).replicas, d.replicas);
            prop_assert_eq!(share_index(share), d.share_idx);
            float_total += d.replicas as f64 * share;
        }
        prop_assert!((decision.total_cpu_share() - float_total).abs() < 1e-9);
    }

    /// Any gene vector inside the lattice genome's bounds decodes to a
    /// decision exactly on the share grid — no quantisation happens
    /// after decoding, so GA offspring are memo keys by construction.
    #[test]
    fn decoded_genome_lands_exactly_on_the_share_grid(
        rw in 1i64..=8, iw in 2i64..=20, rd in 1i64..=4, id in 2i64..=40,
    ) {
        let (binding, _) = setup(100, 8.0);
        let scalable: Vec<_> = binding.scalable().collect();
        let genome = lattice_genome(&scalable);
        prop_assert_eq!(genome.len(), 4);
        for (s, chunk) in scalable.iter().zip(genome.chunks(2)) {
            let (lo, hi) = share_index_bounds(s);
            prop_assert!(lo >= 1 && hi >= lo);
            // The share gene's bounds are the service's actuatable range.
            match chunk[1] {
                atom_ga::Gene::Int { lo: glo, hi: ghi } => {
                    prop_assert_eq!((glo as usize, ghi as usize), (lo, hi));
                }
                _ => prop_assert!(false, "share gene must be an Int"),
            }
        }
        let genes = vec![
            GeneValue::Int(rw),
            GeneValue::Int(iw),
            GeneValue::Int(rd),
            GeneValue::Int(id),
        ];
        let decision = decode(&scalable, &genes);
        for (s, &(r, i)) in scalable.iter().zip(&[(rw, iw), (rd, id)]) {
            let d = decision.get(s.task).unwrap();
            prop_assert_eq!(d.replicas, r as usize);
            prop_assert_eq!(d.share_idx, i as usize);
            let share = d.share();
            prop_assert!(share >= s.share_bounds.0 - 1e-12);
            prop_assert!(share <= s.share_bounds.1 + 1e-12);
        }
    }

    /// Random search stays deterministic in its seed through the
    /// batched evaluation layer.
    #[test]
    fn random_search_deterministic_in_seed(seed in 0u64..200) {
        let (binding, obj) = setup(400, 8.0);
        let a = random_search(&binding, &binding.model, &obj, 60, seed);
        let b = random_search(&binding, &binding.model, &obj, 60, seed);
        prop_assert_eq!(&a.decision, &b.decision);
        prop_assert_eq!(a.eval, b.eval);
    }
}
