//! The hand-written Sock Shop LQNs and the ones
//! [`ModelBinding::from_app_spec`] derives from the matching `AppSpec`
//! describe the same system, to the bit: every `LqnSolution` field of
//! the analytic solver and of a seeded `atom_lqn::sim` run, and every
//! binding field except the lower share bound of the three vertical-only
//! services. This is the licence for deleting the hand-written builders.

use atom_core::ModelBinding;
use atom_lqn::analytic::{solve, SolverOptions};
use atom_lqn::sim::{simulate, SimOptions};
use atom_lqn::{EntryId, LqnModel, LqnSolution};
use atom_sockshop::SockShop;

const BROWSING: [f64; 3] = [0.63, 0.32, 0.05];
const SHOPPING: [f64; 3] = [0.54, 0.26, 0.20];
const ORDERING: [f64; 3] = [0.33, 0.17, 0.50];

/// For every entry of `hand`, the entry of `derived` with the same
/// owning task and endpoint (`cat-query` / `cart-query` are the
/// hand-written names of the two `query` endpoints; the reference entry
/// maps to the reference entry).
fn entry_map(hand: &LqnModel, derived: &LqnModel) -> Vec<EntryId> {
    hand.entries()
        .iter()
        .map(|e| {
            let task = hand.task(e.task);
            if task.is_reference() {
                let client = derived.the_reference_task().unwrap();
                return derived.reference_entry(client).unwrap();
            }
            let endpoint = match e.name.as_str() {
                "cat-query" | "cart-query" => "query",
                other => other,
            };
            derived
                .entry_by_name(&format!("{}.{endpoint}", task.name))
                .unwrap_or_else(|| panic!("no derived entry for `{}`", e.name))
        })
        .collect()
}

/// Bit equality of two solutions, entries matched through `map`; tasks
/// and processors are in the same order on both sides.
fn assert_same_solution(hand: &LqnSolution, derived: &LqnSolution, map: &[EntryId], what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let by_map = |v: &[f64]| map.iter().map(|e| v[e.0].to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&hand.entry_throughput),
        by_map(&derived.entry_throughput),
        "{what}: entry_throughput"
    );
    assert_eq!(
        bits(&hand.entry_residence),
        by_map(&derived.entry_residence),
        "{what}: entry_residence"
    );
    assert_eq!(
        bits(&hand.entry_service_time),
        by_map(&derived.entry_service_time),
        "{what}: entry_service_time"
    );
    assert_eq!(
        bits(&hand.task_utilization),
        bits(&derived.task_utilization),
        "{what}: task_utilization"
    );
    assert_eq!(
        bits(&hand.task_wait),
        bits(&derived.task_wait),
        "{what}: task_wait"
    );
    assert_eq!(
        bits(&hand.processor_utilization),
        bits(&derived.processor_utilization),
        "{what}: processor_utilization"
    );
    assert_eq!(
        hand.client_response_time.to_bits(),
        derived.client_response_time.to_bits(),
        "{what}: client_response_time"
    );
    assert_eq!(
        hand.client_throughput.to_bits(),
        derived.client_throughput.to_bits(),
        "{what}: client_throughput"
    );
    assert_eq!(hand.iterations, derived.iterations, "{what}: sweeps");
}

/// Processors and tasks agree in order and in every field; only the
/// reference task (`users` vs `clients`) and its private processor are
/// named differently. `shares: false` leaves `cpu_share` out: the
/// hand-written validation tasks are uncapped where the spec gives each
/// a one-core share on a one-core server, which both solvers read as the
/// same thing (the solutions below are still bit-equal).
fn assert_same_tasks(hand: &LqnModel, derived: &LqnModel, shares: bool) {
    assert_eq!(hand.processors().len(), derived.processors().len());
    for (h, d) in hand.processors().iter().zip(derived.processors()) {
        assert_eq!((h.cores, h.speed), (d.cores, d.speed), "{}", h.name);
    }
    assert_eq!(hand.tasks().len(), derived.tasks().len());
    for (h, d) in hand.tasks().iter().zip(derived.tasks()) {
        if !h.is_reference() {
            assert_eq!(h.name, d.name);
            assert_eq!(
                hand.processor(h.processor).name,
                derived.processor(d.processor).name
            );
        }
        assert_eq!(
            (
                h.processor,
                h.multiplicity,
                h.replicas,
                h.cpu_share.filter(|_| shares),
                h.parallelism,
                h.kind
            ),
            (
                d.processor,
                d.multiplicity,
                d.replicas,
                d.cpu_share.filter(|_| shares),
                d.parallelism,
                d.kind
            ),
            "task `{}`",
            h.name
        );
    }
}

#[test]
fn evaluation_models_solve_bit_equal() {
    let shop = SockShop::default();
    for (users, mix) in [
        (500, BROWSING),
        (2000, ORDERING),
        (3000, SHOPPING),
        (6000, ORDERING),
    ] {
        let hand = shop.lqn_model(users, 7.0, &mix);
        let derived = ModelBinding::from_app_spec(&shop.app_spec(), users, 7.0, &mix).model;
        assert_same_tasks(&hand, &derived, true);
        let map = entry_map(&hand, &derived);
        for (label, options) in [
            ("default", SolverOptions::default()),
            ("candidate", SolverOptions::candidate()),
        ] {
            assert_same_solution(
                &solve(&hand, options).unwrap(),
                &solve(&derived, options).unwrap(),
                &map,
                &format!("N={users} {label}"),
            );
        }
    }
}

#[test]
fn validation_models_solve_and_simulate_bit_equal() {
    let shop = SockShop::default();
    let mix = [0.57, 0.29, 0.14];
    for single_host in [false, true] {
        let hand = shop.validation_lqn_with(3000, 7.0, &mix, single_host);
        let spec = shop.validation_app_spec(single_host);
        let derived = ModelBinding::from_app_spec(&spec, 3000, 7.0, &mix).model;
        assert_same_tasks(&hand, &derived, false);
        // Entry order differs here (the spec lists carts before
        // catalogue), so entries are matched by service + endpoint.
        let map = entry_map(&hand, &derived);
        let what = format!("single_host={single_host}");
        assert_same_solution(
            &solve(&hand, SolverOptions::default()).unwrap(),
            &solve(&derived, SolverOptions::default()).unwrap(),
            &map,
            &what,
        );
        let sim = SimOptions {
            horizon: 120.0,
            warmup: 20.0,
            seed: 7,
            demand_cv: 1.0,
        };
        assert_same_solution(
            &simulate(&hand, sim).unwrap(),
            &simulate(&derived, sim).unwrap(),
            &map,
            &format!("{what} (sim)"),
        );
    }
}

#[test]
fn bindings_differ_only_in_the_stateful_lower_share_bound() {
    let shop = SockShop::default();
    let hand = shop.binding(2000, 7.0, &ORDERING);
    let derived = ModelBinding::from_app_spec(&shop.app_spec(), 2000, 7.0, &ORDERING);
    assert_eq!(hand.client, derived.client);
    assert_eq!(hand.feature_entries, derived.feature_entries);
    assert_eq!(hand.services.len(), derived.services.len());
    for (h, d) in hand.services.iter().zip(&derived.services) {
        assert_eq!(
            (&h.name, h.service, h.task, h.scalable, h.max_replicas),
            (&d.name, d.service, d.task, d.scalable, d.max_replicas)
        );
        assert_eq!(h.share_bounds.1, d.share_bounds.1, "{}", h.name);
        if ["router", "catalogue-db", "carts-db"].contains(&h.name.as_str()) {
            assert_eq!((h.share_bounds.0, d.share_bounds.0), (0.1, 0.05));
        } else {
            assert_eq!(h.share_bounds.0, d.share_bounds.0, "{}", h.name);
        }
    }
}
