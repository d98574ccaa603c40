//! Bit-pins of the decide path, from GA genome to `ScaleAction`.
//!
//! The `pin_per_user` digests stop at the cluster; these pin the
//! controller side: the Sock Shop search `evaluator_gates` runs
//! (ordering mix, N = 1500, budget 800, seed 42) and three consecutive
//! `Atom::decide` calls on fixed reports. A refactor of the candidate
//! type, the evaluator or the objective must leave every value below
//! untouched — a one-ulp change in the objective's cost term already
//! flips a GA tie-break and with it the winner.

use atom::cluster::{ScaleAction, ServiceSpanStats, WindowReport};
use atom::core::evaluator::CandidateEvaluator;
use atom::core::optimizer::search_with;
use atom::core::{Atom, AtomConfig, Autoscaler};
use atom::ga::{Budget, GaOptions};
use atom::sockshop::SockShop;

const ORDERING_MIX: [f64; 3] = [0.33, 0.17, 0.50];

/// FNV-1a over bytes (f64s enter by their bit pattern).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[test]
fn sockshop_search_winner_and_counters_are_pinned() {
    let shop = SockShop::default();
    let binding = shop.binding(1500, 7.0, &ORDERING_MIX);
    let objective = shop.objective();
    let ga = GaOptions {
        budget: Budget::Evaluations(800),
        seed: 42,
        ..Default::default()
    };
    let mut evaluator = CandidateEvaluator::new(&binding, &binding.model, &objective);
    let found = search_with(&mut evaluator, ga);

    let winner: Vec<(usize, usize, usize)> = found
        .decision
        .iter()
        .map(|(task, d)| (task.0, d.replicas, d.share_idx))
        .collect();
    assert_eq!(
        winner,
        vec![
            (0, 1, 6),
            (1, 2, 5),
            (2, 1, 3),
            (3, 5, 2),
            (4, 1, 5),
            (5, 1, 15)
        ],
        "winning DecisionVector (task, replicas, share_idx)"
    );
    assert_eq!(
        found.eval.objective.to_bits(),
        0x3fea_b1b7_d57c_2c1c,
        "objective {}",
        found.eval.objective
    );
    assert_eq!(found.eval.violation, 0.0);
    assert_eq!(
        (
            found.stats.solves,
            found.stats.cache_hits,
            found.stats.solver_iterations
        ),
        (563, 237, 4_147),
        "(solves, cache_hits, solver_iterations)"
    );
}

/// Per-service span aggregates as a 1 %-sampled monitor would report
/// them, so the knowledge-phase audit (and the `with_solution` solve of
/// the planned decision that feeds it) runs.
fn span_stats(mean: f64) -> Option<Vec<ServiceSpanStats>> {
    Some(
        (0..6)
            .map(|i| {
                let m = mean * (1.0 + i as f64 * 0.25);
                ServiceSpanStats {
                    samples: 40 + i as u64,
                    queue_wait_p50: m * 0.2,
                    queue_wait_p95: m * 0.6,
                    residence_p50: m * 0.9,
                    residence_p95: m * 1.8,
                    residence_mean: m,
                    net_mean: 0.0,
                }
            })
            .collect(),
    )
}

/// A Sock Shop window at `users` concurrent users on the ordering mix,
/// executing the given per-service replicas and shares.
fn report(k: usize, users: usize, replicas: &[usize], shares: &[f64]) -> WindowReport {
    let tps = users as f64 / 7.5;
    let counts: Vec<u64> = ORDERING_MIX
        .iter()
        .map(|m| (m * tps * 300.0) as u64)
        .collect();
    let alloc: Vec<f64> = replicas
        .iter()
        .zip(shares)
        .map(|(&r, &s)| r as f64 * s)
        .collect();
    WindowReport::for_span(300.0 * k as f64, 300.0 * (k + 1) as f64)
        .with_feature_tps(counts.iter().map(|&c| c as f64 / 300.0).collect())
        .with_feature_counts(counts)
        .with_feature_response(vec![0.12, 0.2, 0.35])
        .with_service_utilization(vec![0.3, 0.85, 0.6, 0.9, 0.4, 0.5])
        .with_service_busy_cores(alloc.iter().map(|a| a * 0.6).collect())
        .with_service_alloc_cores(alloc)
        .with_service_replicas(replicas.to_vec())
        .with_service_shares(shares.to_vec())
        .with_server_utilization(vec![0.6, 0.5])
        .with_total_tps(tps)
        .with_avg_users(users as f64)
        .with_users_at_end(users)
        .with_peak_arrival_rate(tps * 1.2)
        .with_span_stats(span_stats(0.02))
}

#[test]
fn three_decides_on_fixed_reports_are_pinned() {
    let shop = SockShop::default();
    let binding = shop.binding(1000, 7.0, &ORDERING_MIX);
    let mut config = AtomConfig::new(shop.objective());
    config.ga.budget = Budget::Evaluations(300);
    config.ga.seed = 42;
    let mut atom = Atom::new(binding, config);

    let mut replicas = vec![1usize; 6];
    // Catalogue starts below the first grid point (snaps up to index 1)
    // and carts off the grid (snaps to the nearest point).
    let mut shares = vec![1.0, 0.5, 0.01, 0.52, 1.0, 1.0];
    let mut records = Digest::new();
    let mut issued = Digest::new();
    let mut action_count = 0usize;
    for (k, users) in [1500usize, 2400, 900].into_iter().enumerate() {
        let actions: Vec<ScaleAction> = atom.decide(&report(k, users, &replicas, &shares));
        let record = atom.take_decision_record().expect("record after decide");
        records.bytes(serde_json::to_string(&record).unwrap().as_bytes());
        issued.word(actions.len() as u64);
        for a in &actions {
            issued.word(a.service.0 as u64);
            issued.word(a.replicas as u64);
            issued.word(a.share.to_bits());
            // The actuator applies the order; the next window observes it
            // with measurement jitter the share→index snap must absorb.
            replicas[a.service.0] = a.replicas;
            shares[a.service.0] = a.share + 3e-10;
        }
        action_count += actions.len();
    }
    assert!(
        action_count > 0,
        "the pinned windows must actuate something"
    );
    assert_eq!(
        (records.0, issued.0),
        (0x8b81_40d9_a2d2_11d3, 0x5e62_c40b_958d_bd4b),
        "(DecisionRecord digest, ScaleAction digest): {:#018x} {:#018x}",
        records.0,
        issued.0
    );
}
