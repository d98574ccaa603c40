//! Property-based tests for the layered solver: operational laws must
//! hold for arbitrary two-tier models and arbitrary scaling
//! configurations — the GA feeds the solver exactly such inputs.

use atom_lqn::analytic::{solve, SolverOptions};
use atom_lqn::{LqnModel, TaskId};
use proptest::prelude::*;

/// A random client → web → db model with scaling knobs.
#[derive(Debug, Clone)]
struct Scenario {
    users: usize,
    think: f64,
    d_web: f64,
    d_db: f64,
    calls: f64,
    web_replicas: usize,
    web_share: f64,
    db_share: f64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..3000,
        0.5f64..10.0,
        0.0005f64..0.02,
        0.0005f64..0.02,
        0.0f64..3.0,
        1usize..8,
        0.05f64..1.0,
        0.1f64..2.0,
    )
        .prop_map(
            |(users, think, d_web, d_db, calls, web_replicas, web_share, db_share)| Scenario {
                users,
                think,
                d_web,
                d_db,
                calls,
                web_replicas,
                web_share,
                db_share,
            },
        )
}

fn build(s: &Scenario) -> LqnModel {
    let mut m = LqnModel::new();
    let p1 = m.add_processor("p1", 4, 1.0);
    let p2 = m.add_processor("p2", 4, 1.0);
    let web = m.add_task("web", p1, 64, s.web_replicas).unwrap();
    m.set_cpu_share(web, Some(s.web_share)).unwrap();
    let db = m.add_task("db", p2, 16, 1).unwrap();
    m.set_cpu_share(db, Some(s.db_share)).unwrap();
    let page = m.add_entry("page", web, s.d_web).unwrap();
    let query = m.add_entry("query", db, s.d_db).unwrap();
    m.add_call(page, query, s.calls).unwrap();
    let c = m.add_reference_task("users", s.users, s.think).unwrap();
    m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
        .unwrap();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_respects_hard_bounds(s in scenario()) {
        let model = build(&s);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let x = sol.client_throughput;
        // Never more than the think-time-limited maximum.
        prop_assert!(x <= s.users as f64 / s.think + 1e-6);
        // Never more than the web tier's CPU capacity.
        let web_cap = s.web_replicas as f64 * s.web_share / s.d_web;
        prop_assert!(x <= web_cap * 1.05 + 1e-6, "X={x} web cap {web_cap}");
        // Never more than the db tier's capacity per client request.
        if s.calls > 0.0 {
            let db_cap = s.db_share.min(16.0) / s.d_db / s.calls;
            prop_assert!(x <= db_cap * 1.05 + 1e-6, "X={x} db cap {db_cap}");
        }
        // Utilisations are valid.
        for &u in &sol.task_utilization {
            prop_assert!((0.0..=1.0 + 1e-6).contains(&u), "task util {u}");
        }
        for &u in &sol.processor_utilization {
            prop_assert!(u <= 1.0 + 1e-6, "proc util {u}");
        }
        // Residence times are at least the raw execution time.
        prop_assert!(sol.client_response_time >= 0.0);
    }

    #[test]
    fn population_is_conserved(s in scenario()) {
        // Little's law over the whole cycle, N = X·(Z + R): every user is
        // either thinking or inside the system, so whatever the solver
        // reports as R must be the R that goes with its X.
        let model = build(&s);
        for options in [SolverOptions::default(), SolverOptions::candidate()] {
            let sol = solve(&model, options).unwrap();
            let n = s.users as f64;
            let accounted = sol.client_throughput * (s.think + sol.client_response_time);
            prop_assert!(
                (accounted - n).abs() <= 1e-8 * n,
                "X·(Z+R) = {accounted} for N = {n}"
            );
        }
    }

    #[test]
    fn utilization_law_at_fixed_point(s in scenario()) {
        let model = build(&s);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let web = model.task_by_name("web").unwrap();
        let x = sol.client_throughput;
        let busy = x * s.d_web;
        let alloc = s.web_replicas as f64 * s.web_share;
        prop_assert!((sol.task_utilization(web) - busy / alloc).abs() < 1e-6);
    }

    #[test]
    fn more_capacity_never_hurts(s in scenario()) {
        let model = build(&s);
        let base = solve(&model, SolverOptions::default()).unwrap();
        let mut bigger = model.clone();
        bigger.set_replicas(TaskId(0), s.web_replicas + 1).unwrap();
        bigger
            .set_cpu_share(TaskId(0), Some((s.web_share * 1.2).min(1.0)))
            .unwrap();
        let scaled = solve(&bigger, SolverOptions::default()).unwrap();
        prop_assert!(
            scaled.client_throughput >= base.client_throughput * 0.98 - 1e-6,
            "scaling up dropped X: {} -> {}",
            base.client_throughput,
            scaled.client_throughput
        );
    }

    #[test]
    fn feature_throughputs_sum_to_client(s in scenario()) {
        let model = build(&s);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let page = model.entry_by_name("page").unwrap();
        prop_assert!((sol.entry_throughput(page) - sol.client_throughput).abs() < 1e-6);
        let query = model.entry_by_name("query").unwrap();
        prop_assert!(
            (sol.entry_throughput(query) - s.calls * sol.client_throughput).abs() < 1e-6
        );
    }
}
