//! The two correctness floors of the candidate evaluator on the Sock
//! Shop search the harness actually runs (ordering mix, N = 1500, GA
//! budget 800, seed 42). Worker-count invariance of the best decision
//! is property-tested in `atom-core`'s `evaluator_properties`.

use atom::core::evaluator::CandidateEvaluator;
use atom::core::optimizer::search_with;
use atom::ga::{Budget, GaOptions};
use atom::obs::Registry;
use atom::sockshop::SockShop;

/// The lattice GA with niching sustains well above this; a decode path
/// that drifts off the share grid silently drops the memo back to the
/// 5–7 % the retired float-quantised keys managed.
const MIN_HIT_RATE: f64 = 0.30;

#[test]
fn memo_hit_rate_floor_and_batch_fan_out() {
    let shop = SockShop::default();
    let binding = shop.binding(1500, 7.0, &[0.33, 0.17, 0.50]);
    let objective = shop.objective();
    let ga = GaOptions {
        budget: Budget::Evaluations(800),
        seed: 42,
        ..Default::default()
    };
    let mut evaluator =
        CandidateEvaluator::new(&binding, &binding.model, &objective).with_workers(4);
    search_with(&mut evaluator, ga);

    // Read from the exported gauge — the counters the journal and the
    // metrics snapshot report — so this floor and the observability
    // surface cannot drift apart.
    let mut registry = Registry::new();
    evaluator.export_metrics(&mut registry, "evaluator");
    let hit = registry
        .gauge("evaluator_hit_rate")
        .expect("export_metrics publishes the hit-rate gauge");
    assert!(
        hit >= MIN_HIT_RATE,
        "memo hit-rate {:.1}% below the {:.0}% floor",
        100.0 * hit,
        100.0 * MIN_HIT_RATE
    );

    let occupancy = evaluator.worker_occupancy();
    assert!(
        occupancy.iter().filter(|&&n| n > 0).count() >= 2,
        "batch fan-out never occupied a second worker: {occupancy:?}"
    );
}
