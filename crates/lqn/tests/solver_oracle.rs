//! The direct solver against the iteration it replaced.
//!
//! `mod reference` is the parent commit's solver: the `inner_pass` map
//! and, around it, plain Picard from zero (no acceleration, no early
//! exit). The direct solver claims to return the *least fixed point* of
//! that same map at the throughput that balances the population, so:
//!
//! * **(a)** at a fixed throughput, the direct state is a fixed point of
//!   the reference map (one reference pass moves nothing), no reference
//!   iterate from zero ever exceeds it, and the reference limit equals it;
//! * **(b)** full solves agree with bisection over the reference limit;
//! * **(c)** the parent's own `solve` — with its Aitken jump and early
//!   exit — agrees only where it spent at most 1 000 iterations. Beyond
//!   that it overshoots the least fixed point and misclassifies probes,
//!   which is the defect the replacement removed: its answers there do
//!   not conserve the population, the direct solver's do.

mod common;
#[path = "solver_oracle/reference.rs"]
mod reference;

use atom_lqn::analytic::{solve, solve_with, SolverOptions, SolverWorkspace};
use atom_lqn::model::LqnModel;
use atom_lqn::{LqnError, LqnSolution};
use common::{apply_random_decision, sockshop, Rng, MIXES, POPULATIONS, THINK_TIME};
use reference::{parent_solve, State, Tables};

/// A random layered application: 1–5 server tasks over 1–3 hosts, each
/// calling only later tasks, with every knob the solver reads drawn at
/// random — thread pools from 1 to 256, capped and uncapped shares,
/// single-threaded code, zero demands, pure latencies, network delays.
/// With `task_cyclic` one later task also calls back into a leaf entry
/// of an earlier one: acyclic over entries, cyclic over tasks.
fn random_model(rng: &mut Rng, task_cyclic: bool) -> LqnModel {
    let mut m = LqnModel::new();
    let hosts: Vec<_> = (0..rng.range(1, 3))
        .map(|i| m.add_processor(format!("p{i}"), rng.range(1, 8), 0.5 + 1.5 * rng.unit()))
        .collect();
    let nt = rng.range(if task_cyclic { 2 } else { 1 }, 5);
    let mut entries: Vec<Vec<_>> = Vec::new();
    for ti in 0..nt {
        let host = hosts[rng.range(0, hosts.len() - 1)];
        let threads = rng.log_uniform(1.0, 256.0) as usize;
        let t = m
            .add_task(format!("t{ti}"), host, threads, rng.range(1, 4))
            .unwrap();
        if rng.chance(0.7) {
            m.set_cpu_share(t, Some(rng.log_uniform(0.05, 2.0)))
                .unwrap();
        }
        if rng.chance(0.3) {
            m.set_parallelism(t, Some(rng.range(1, 4))).unwrap();
        }
        let mut own = Vec::new();
        for ei in 0..rng.range(1, 3) {
            let demand = if rng.chance(0.1) {
                0.0
            } else {
                rng.log_uniform(0.0005, 0.05)
            };
            let e = m.add_entry(format!("t{ti}.e{ei}"), t, demand).unwrap();
            if rng.chance(0.2) {
                m.set_latency(e, rng.log_uniform(0.001, 0.5)).unwrap();
            }
            own.push(e);
        }
        entries.push(own);
    }
    for ti in 0..nt {
        for ei in 0..entries[ti].len() {
            for tj in ti + 1..nt {
                if rng.chance(0.6) {
                    let (from, to) = (
                        entries[ti][ei],
                        entries[tj][rng.range(0, entries[tj].len() - 1)],
                    );
                    m.add_call(from, to, 0.2 + 2.8 * rng.unit()).unwrap();
                    if rng.chance(0.2) {
                        m.set_call_net_delay(from, to, rng.log_uniform(0.0005, 0.02))
                            .unwrap();
                    }
                }
            }
        }
    }
    if task_cyclic {
        // t0.e0 -> t1.e0 -> t0.back
        let t0 = m.task_by_name("t0").unwrap();
        let back = m
            .add_entry("t0.back", t0, rng.log_uniform(0.0005, 0.02))
            .unwrap();
        m.add_call(entries[0][0], entries[1][0], 1.0).unwrap();
        m.add_call(entries[1][0], back, 0.5 + rng.unit()).unwrap();
    }
    let users = rng.log_uniform(1.0, 5000.0) as usize;
    let c = m
        .add_reference_task("users", users, rng.log_uniform(0.01, 20.0))
        .unwrap();
    let ce = m.reference_entry(c).unwrap();
    for &e in &entries[0] {
        m.add_call(ce, e, 0.1 + rng.unit()).unwrap();
    }
    m
}

/// The executing jobs the direct solution implies: `exec` is what is
/// left of an entry's blocking time once latency and nested calls are
/// taken out, and a task's executing jobs are `Σ x_e · exec_e` under the
/// thread clamp.
fn implied_state(model: &LqnModel, sol: &LqnSolution) -> State {
    let mut st = State::zero(model);
    st.w.clone_from(&sol.task_wait);
    st.s.clone_from(&sol.entry_service_time);
    for (i, e) in model.entries().iter().enumerate() {
        let nested: f64 = (e.calls.iter())
            .map(|c| {
                let callee = model.entry(c.target).task.0;
                c.mean * (st.w[callee] + st.s[c.target.0] + c.net_delay)
            })
            .sum();
        st.exec[i] = st.s[i] - e.latency - nested;
        let t = model.task(e.task);
        if !t.is_reference() {
            st.busy[e.task.0] += sol.entry_throughput[i] * st.exec[i];
        }
    }
    for (b, t) in st.busy.iter_mut().zip(model.tasks()) {
        *b = b.clamp(0.0, (t.replicas * t.multiplicity) as f64);
    }
    st
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / (1.0 + a.abs().max(b.abs()))
}

/// Re-solves `model` so that the solver's *first* contended probe — at
/// exactly `sol.client_throughput` — balances the population, which
/// makes the returned state the plain inner solve at that throughput.
/// `None` when the root-find went on past it (a knee too steep for one
/// throughput to balance to 1e-9, where the solver interpolates).
fn inner_solve_at_root(model: &mut LqnModel, sol: &LqnSolution) -> Option<LqnSolution> {
    let c = model.the_reference_task().unwrap();
    let n = model.task(c).multiplicity as f64;
    let think = (n / sol.client_throughput - sol.client_response_time).max(0.0);
    model.set_think_time(c, think).unwrap();
    let mut ws = SolverWorkspace::new();
    let hinted = SolverOptions::default().with_warm_start(Some(sol.client_throughput));
    let at = solve_with(model, hinted, &mut ws).unwrap();
    (ws.last_solve().probes == 2).then_some(at)
}

/// Solves `model`. A task that waits for a thread of its own caller can
/// feed its wait back into its own blocking time without bound (the
/// wait's cap `N · S / m` grows with `S`), and then the equations have
/// no finite fixed point: only a task-cyclic model may fail, and only
/// with `NoConvergence`.
fn solve_unless_unbounded(model: &LqnModel, task_cyclic: bool) -> Option<LqnSolution> {
    match solve(model, SolverOptions::default()) {
        Ok(sol) => Some(sol),
        Err(LqnError::NoConvergence { .. }) if task_cyclic => None,
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn direct_inner_solve_is_the_least_fixed_point_of_the_reference_map() {
    let mut rng = Rng(0x5eed_0a11_ce5e_ed01);
    let (mut checked, mut limits, mut interpolated, mut unbounded) = (0, 0, 0, 0);
    for case in 0..400 {
        let task_cyclic = case % 8 == 7;
        let mut model = random_model(&mut rng, task_cyclic);
        let Some(root) = solve_unless_unbounded(&model, task_cyclic) else {
            unbounded += 1;
            continue;
        };
        let Some(sol) = inner_solve_at_root(&mut model, &root) else {
            interpolated += 1;
            continue;
        };
        let x = sol.client_throughput;
        let tables = Tables::of(&model).unwrap();

        // One reference pass from the direct state moves nothing: waits
        // and blocking times to 1e-12 (re-swept ones to the re-sweeps'
        // own tolerance), executing jobs to what the subtraction that
        // recovered them from the blocking times leaves.
        let direct = implied_state(&model, &sol);
        let mut after = direct.clone();
        tables.pass(&model, &mut after, x);
        let tight = if task_cyclic { 1e-9 } else { 1e-12 };
        for (name, a, b, tolerance) in [
            ("w", &after.w, &direct.w, tight),
            ("s", &after.s, &direct.s, tight),
            ("busy", &after.busy, &direct.busy, 1e-9),
        ] {
            for (i, (a, b)) in a.iter().zip(b).enumerate() {
                assert!(
                    rel(*a, *b) <= tolerance,
                    "case {case}: a reference pass at X={x} moves {name}[{i}] {b} -> {a}"
                );
            }
        }

        // Picard from zero climbs towards it and never past it. Where it
        // stops, it is still short of its limit by its last step over
        // `1 − ratio`, per near-critical station in a chain: that is 1e-9
        // for a limit reached within 20 000 passes, and the looser bound
        // covers the crawls (83 000 passes and 3e-9 short has been seen).
        let mut picard = State::zero(&model);
        let converged = tables.picard(&model, &mut picard, x, 1e-15, 400_000);
        for (name, a, b) in [("w", &picard.w, &direct.w), ("s", &picard.s, &direct.s)] {
            for (i, (a, b)) in a.iter().zip(b).enumerate() {
                assert!(
                    *a <= b + 1e-9 * (1.0 + b),
                    "case {case}: Picard from zero overtook the direct {name}[{i}]: {a} > {b}"
                );
                if converged {
                    let close = if picard.iterations <= 20_000 {
                        1e-9
                    } else {
                        1e-6
                    };
                    assert!(
                        rel(*a, *b) <= close,
                        "case {case}: reference limit {name}[{i}] = {a}, direct {b} at X={x}"
                    );
                }
            }
        }
        checked += 1;
        limits += usize::from(converged);
    }
    // 50 of the 400 models are task-cyclic, and about half of those have
    // no finite fixed point.
    assert!(unbounded <= 30, "{unbounded} unbounded models");
    assert!(interpolated <= 8, "{interpolated} interpolated roots");
    assert!(limits >= 350, "only {limits} reference limits reached");
    assert_eq!(checked + interpolated + unbounded, 400);
}

/// Bisection on `X` to a 1e-13 bracket over the reference limit (Picard
/// to 1e-14, warm from the bracket's lower state, which is a valid
/// from-below start). Returns the states at both ends of the final
/// bracket, or `None` when a probe's limit was out of reach.
fn reference_solve(model: &LqnModel) -> Option<((f64, State), (f64, State))> {
    let tables = Tables::of(model).unwrap();
    let (n, z) = (tables.population, tables.think_time);
    let x_hi0 = n / (z + tables.r_min(model));
    let mut lo = (0.0, State::zero(model));
    let mut hi = (x_hi0, State::zero(model));
    if !tables.picard(model, &mut hi.1, x_hi0, 1e-14, 2_000_000) {
        return None;
    }
    while hi.0 - lo.0 > 1e-13 * x_hi0 {
        let mid = 0.5 * (lo.0 + hi.0);
        let mut st = lo.1.clone();
        if !tables.picard(model, &mut st, mid, 1e-14, 2_000_000) {
            return None;
        }
        if n / (z + st.s[tables.ref_entry]) > mid {
            lo = (mid, st);
        } else {
            hi = (mid, st);
        }
    }
    Some((lo, hi))
}

#[test]
fn full_solves_agree_with_bisection_over_the_reference_limit() {
    let mut rng = Rng(0x5eed_0a11_ce5e_ed02);
    let mut compared = 0;
    for case in 0..120 {
        let task_cyclic = case % 8 == 7;
        let model = random_model(&mut rng, task_cyclic);
        let Some(sol) = solve_unless_unbounded(&model, task_cyclic) else {
            continue;
        };
        let Some(((x_lo, lo), (x_hi, hi))) = reference_solve(&model) else {
            continue;
        };
        let x = sol.client_throughput;
        assert!(
            x_lo * (1.0 - 1e-8) <= x && x <= x_hi * (1.0 + 1e-8),
            "case {case}: X={x} outside the reference bracket [{x_lo}, {x_hi}]"
        );
        // Every quantity is monotone in X, so the reference bracket's two
        // states bound the answer; where the bracket is tight — everywhere
        // but on a knee steeper than 1e-13 resolves — that is agreement to
        // 1e-6.
        let tables = Tables::of(&model).unwrap();
        let residence = |st: &State, i: usize| {
            let t = model.entries()[i].task;
            let wait = if model.task(t).is_reference() {
                0.0
            } else {
                st.w[t.0]
            };
            wait + st.s[i]
        };
        let within = |name: &str, v: f64, a: f64, b: f64| {
            assert!(
                a - 1e-6 * (1.0 + a) <= v && v <= b + 1e-6 * (1.0 + b),
                "case {case}: {name} = {v} outside the reference's [{a}, {b}]"
            );
        };
        within(
            "R",
            sol.client_response_time,
            lo.s[tables.ref_entry],
            hi.s[tables.ref_entry],
        );
        for t in 0..model.tasks().len() {
            within("task_wait", sol.task_wait[t], lo.w[t], hi.w[t]);
        }
        for i in 0..model.entries().len() {
            within("s", sol.entry_service_time[i], lo.s[i], hi.s[i]);
            within(
                "entry_residence",
                sol.entry_residence[i],
                residence(&lo, i),
                residence(&hi, i),
            );
            let xe = sol.entry_throughput[i];
            assert!(rel(xe, x * tables.visits[i]) <= 1e-12);
        }
        // Utilisation is the utilisation law at the agreed throughput.
        for (t, task) in model.tasks().iter().enumerate() {
            if task.is_reference() {
                continue;
            }
            let host = model.processor(task.processor);
            let busy_cores: f64 = (task.entries.iter())
                .map(|e| sol.entry_throughput[e.0] * model.entry(*e).demand / host.speed)
                .sum();
            let alloc =
                task.replicas as f64 * task.usable_cores_per_replica().min(host.cores as f64);
            assert!(rel(sol.task_utilization[t], busy_cores / alloc) <= 1e-6);
        }
        compared += 1;
    }
    assert!(compared >= 100, "only {compared} of 120 models compared");
}

#[test]
fn parent_solver_agrees_where_it_was_cheap_and_loses_users_where_it_was_not() {
    let mut rng = Rng(0x5eed_0a11_ce5e_ed03);
    let (mut cheap, mut lossy) = (0, 0);
    for users in POPULATIONS {
        for mix in &MIXES {
            let mut model = sockshop(users, mix);
            for _ in 0..12 {
                apply_random_decision(&mut rng, &mut model);
                let old = parent_solve(&model, SolverOptions::candidate()).unwrap();
                let new = solve(&model, SolverOptions::candidate()).unwrap();
                let lost =
                    |x: f64, r: f64| (x * (THINK_TIME + r) - users as f64).abs() / users as f64;
                assert!(lost(new.client_throughput, new.client_response_time) <= 1e-8);
                if old.iterations <= 1_000 {
                    cheap += 1;
                    assert!(
                        rel(old.x, new.client_throughput) <= 1e-6
                            && rel(old.r, new.client_response_time) <= 1e-6,
                        "N={users}: parent X={} R={}, direct X={} R={}",
                        old.x,
                        old.r,
                        new.client_throughput,
                        new.client_response_time
                    );
                    let waits = old.w.iter().zip(&new.task_wait);
                    let blocking = old.s.iter().zip(&new.entry_service_time);
                    for (a, b) in waits.chain(blocking) {
                        assert!(rel(*a, *b) <= 1e-6, "N={users}: parent {a}, direct {b}");
                    }
                } else if lost(old.x, old.r) > 0.01 {
                    lossy += 1;
                }
            }
        }
    }
    assert!(cheap >= 100, "only {cheap} cheap parent solves");
    assert!(
        lossy > 0,
        "the parent solver no longer loses users on any candidate"
    );
}
