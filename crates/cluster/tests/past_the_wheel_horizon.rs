//! One cluster may run for as long as its user asks: throughput past the
//! timer wheel's top-level window (2^24 ticks of 1 ms, 4.66 simulated
//! hours) is the throughput of the first hours.
//!
//! The wheel files a timer due beyond the cursor's top-level window in an
//! overflow list and re-files that list when the cursor enters the next
//! window. A wheel that re-filed it only once empty stranded every think
//! timer scheduled across the boundary whenever an event ran in the
//! window's last tick, because the cursor then stepped into the next
//! window with newer timers behind it, and a closed loop's throughput
//! collapsed (32 to 1 req/s for the Sock Shop at N = 250). A scale order
//! puts an event in that tick on every seed, and the replica it starts
//! files a timer in the next window.

use atom_cluster::{AppSpec, Cluster, ClusterOptions, ScaleAction, ServiceId, WindowReport};
use atom_workload::{RequestMix, WorkloadSpec};

/// The top-level window of the wheel, in simulated seconds.
const HORIZON: f64 = (1u64 << 24) as f64 / 1000.0;

/// `web` on a 4-core server serves the only feature; a page costs 100 ms
/// of CPU. The 100 users, thinking 2 s each, offer 50 req/s to its
/// 40 req/s, so ~20 of them are in the system at any time: a wheel that
/// waits to be empty would wait for all of them to be served at once.
/// `idle`, on a server of its own, is never called and exists to be
/// scaled.
fn spec() -> AppSpec {
    let mut spec = AppSpec::new();
    let node = spec.add_server("node", 4, 1.0);
    let spare = spec.add_server("spare", 2, 1.0);
    let web = spec.add_service("web", node, 16, 1, 4.0);
    let idle = spec.add_service("idle", spare, 1, 1, 0.5);
    let page = spec.add_endpoint(web, "page", 0.1, 1.0);
    spec.add_endpoint(idle, "noop", 0.001, 0.0);
    spec.add_feature("page", web, page);
    spec
}

fn mean_tps(windows: &[WindowReport]) -> f64 {
    windows.iter().map(|r| r.total_tps).sum::<f64>() / windows.len() as f64
}

#[test]
fn throughput_past_the_wheel_horizon_matches_the_first_hours() {
    for seed in [1, 2] {
        let workload = WorkloadSpec::constant(RequestMix::uniform(1), 100, 2.0);
        let options = ClusterOptions::new().with_seed(seed);
        let mut cluster = Cluster::new(&spec(), workload, options).unwrap();
        // Half a tick before the horizon, so that it runs in the window's
        // last tick: a second `idle` replica, whose start-up is a timer.
        let start = ScaleAction {
            service: ServiceId(1),
            replicas: 2,
            share: 0.5,
        };
        cluster.schedule_scaling(vec![start], HORIZON - 0.0005);
        // Five simulated hours in 10-minute windows; the first warms up.
        let reports: Vec<_> = (0..30).map(|_| cluster.run_window(600.0)).collect();
        let early = mean_tps(&reports[1..12]);
        let late: Vec<_> = reports.into_iter().filter(|r| r.start >= HORIZON).collect();
        assert_eq!(late.len(), 2, "two windows lie wholly past the horizon");
        for r in &late {
            assert!(
                (r.total_tps - early).abs() < 0.05 * early,
                "seed {seed}: {} req/s in [{}, {}) against {early} req/s in the first hours",
                r.total_tps,
                r.start,
                r.end
            );
        }
        let drift = mean_tps(&late) / early - 1.0;
        assert!(
            drift.abs() < 0.02,
            "seed {seed}: late throughput off by {drift:+.3}"
        );
    }
}
