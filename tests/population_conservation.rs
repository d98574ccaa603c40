//! Every answer of the analytic solver accounts for every user.
//!
//! The GA optimises against `X` and `R` of thousands of candidates per
//! window, saturated ones included; a solver that stops on a bracket of
//! `X` alone returns, near a saturation knee, an `R` that does not go
//! with its `X` — the relaxation this solver replaced lost more than
//! 1 % of the population on one candidate in six. Checked here on the
//! lattice the controller searches: 6 populations × 3 request mixes of
//! the Sock Shop, 40 random decisions each.

use atom::core::optimizer::{decode, lattice_genome};
use atom::ga::{Gene, GeneValue};
use atom::lqn::analytic::{solve_with, SolverOptions, SolverWorkspace};
use atom::sockshop::SockShop;

const THINK_TIME: f64 = 7.0;

#[test]
fn lattice_candidates_conserve_the_population() {
    let shop = SockShop::default();
    let mut state = 0x5eed_c0de_5eed_c0de_u64;
    let mut draw = |lo: i64, hi: i64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        lo + (state % (hi - lo + 1) as u64) as i64
    };
    let mut workspace = SolverWorkspace::new();
    for users in [500usize, 1000, 1500, 2000, 3000, 4000] {
        for mix in [[0.57, 0.29, 0.14], [0.45, 0.25, 0.30], [0.33, 0.17, 0.50]] {
            let binding = shop.binding(users, THINK_TIME, &mix);
            let scalable: Vec<_> = binding.scalable().collect();
            let genome = lattice_genome(&scalable);
            let mut model = binding.model.clone();
            for _ in 0..40 {
                let genes: Vec<GeneValue> = (genome.iter())
                    .map(|g| match *g {
                        Gene::Int { lo, hi } => GeneValue::Int(draw(lo, hi)),
                        Gene::Float { .. } => unreachable!("the lattice genome is all-integer"),
                    })
                    .collect();
                let decision = decode(&scalable, &genes);
                decision.apply(&mut model).unwrap();
                let sol = solve_with(&model, SolverOptions::candidate(), &mut workspace).unwrap();
                let n = users as f64;
                let accounted = sol.client_throughput * (THINK_TIME + sol.client_response_time);
                assert!(
                    (accounted - n).abs() <= 1e-8 * n,
                    "N={users} mix {mix:?} {decision:?}: X·(Z+R) = {accounted}"
                );
            }
        }
    }
}
