//! The solver's work must not depend on how saturated a candidate is.
//!
//! Counted in layered sweeps, which are deterministic, not in time: over
//! a seeded sample of Sock Shop lattice candidates — 6 populations × 3
//! request mixes × 150 random decisions, from idle to hopelessly
//! under-provisioned — every solve stays within a bisection's worth of
//! probes. (The relaxation this solver replaced took 4 351 inner passes
//! per solve on the same kind of sample, 38 947 at worst, because its
//! pass count grew like `1 / (1 − utilisation)`.)

mod common;

use atom_lqn::analytic::{solve_with, SolverOptions, SolverWorkspace};
use common::{apply_random_decision, sockshop, Rng, MIXES, POPULATIONS};

#[test]
fn sweeps_per_solve_are_bounded_whatever_the_saturation() {
    let mut rng = Rng(0x5eed_5ca1_ab1e_0001);
    let mut ws = SolverWorkspace::new();
    let (mut solves, mut sweeps, mut saturated) = (0usize, 0usize, 0usize);
    for users in POPULATIONS {
        for mix in &MIXES {
            let mut model = sockshop(users, mix);
            for _ in 0..150 {
                apply_random_decision(&mut rng, &mut model);
                let sol = solve_with(&model, SolverOptions::candidate(), &mut ws).unwrap();
                assert!(
                    sol.iterations <= 100,
                    "{} sweeps at N={users}, mix {mix:?}",
                    sol.iterations
                );
                solves += 1;
                sweeps += sol.iterations;
                saturated += usize::from(sol.task_utilization.iter().any(|&u| u > 0.98));
            }
        }
    }
    // The bound means something only if the sample reaches saturation.
    assert!(
        saturated * 4 >= solves,
        "{saturated} of {solves} candidates saturated"
    );
    let mean = sweeps as f64 / solves as f64;
    assert!(mean <= 25.0, "{mean:.1} sweeps per solve on average");
}
