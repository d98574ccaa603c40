//! A closed-loop run carried past the cluster calendar's top-level
//! window (2^24 ticks of 1 ms = 4.66 simulated hours) must keep every
//! user cycling: think timers scheduled across the boundary may not sit
//! out the rest of the run.

use atom::cluster::{Cluster, ClusterOptions};
use atom::sockshop::SockShop;
use atom::workload::{RequestMix, WorkloadSpec};

#[test]
fn littles_law_holds_past_the_calendar_horizon() {
    const USERS: usize = 250;
    const THINK: f64 = 7.0;
    let shop = SockShop::default();
    // Seeds whose runs dispatch an event in the last tick of the first
    // window — the case in which the calendar used to strand every
    // timer scheduled across the boundary (TPS fell from 32 to under 1).
    for seed in [5, 8] {
        let workload = WorkloadSpec::constant(
            RequestMix::new(vec![0.33, 0.17, 0.50]).unwrap(),
            USERS,
            THINK,
        );
        let options = ClusterOptions::new().with_seed(seed);
        let mut cluster = Cluster::new(&shop.app_spec(), workload, options).unwrap();
        // 5.5 simulated hours in 30-minute windows; the last lies wholly
        // beyond the horizon.
        let mut last = cluster.run_window(1800.0);
        for _ in 1..11 {
            last = cluster.run_window(1800.0);
        }
        // N = users in the system + users thinking (Z · X).
        let accounted = last.avg_in_system + THINK * last.total_tps;
        assert!(
            (accounted - last.avg_users).abs() < 0.03 * last.avg_users,
            "seed {seed}: Little's law broken in [{}, {}): {} in system + {THINK} x {} TPS \
             != {} users",
            last.start,
            last.end,
            last.avg_in_system,
            last.total_tps,
            last.avg_users
        );
    }
}
