//! The checked-in Sock Shop `.lqn` asset stays parseable and solvable —
//! it is the file users are pointed at to try `atom-cli solve` — and it
//! is the model `SockShop::lqn_model` derives from the `AppSpec`.

use atom::lqn::analytic::{solve, SolverOptions};
use atom::lqn::{from_lqn_text, to_lqn_text};
use atom::sockshop::SockShop;

#[test]
fn shipped_lqn_asset_parses_and_solves() {
    let text = include_str!("../assets/sockshop.lqn");
    let model = from_lqn_text(text).expect("asset must parse");
    assert_eq!(model.tasks().len(), 7); // 6 services + reference task
    let sol = solve(&model, SolverOptions::default()).expect("asset must solve");
    assert!(sol.total_throughput() > 0.0);
    // And it is in canonical form (write∘parse fixed point).
    assert_eq!(text, to_lqn_text(&model));
}

/// The asset is the evaluation LQN at 500 users, Z = 7 s, ordering mix:
/// entry names (`service.endpoint`), entry order (the spec's service
/// order) and every parameter are pinned by one string comparison.
#[test]
fn shipped_lqn_asset_is_the_derived_evaluation_model() {
    let model = SockShop::default().lqn_model(500, 7.0, &[0.33, 0.17, 0.50]);
    assert_eq!(to_lqn_text(&model), include_str!("../assets/sockshop.lqn"));
}
