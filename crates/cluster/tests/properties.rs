//! Property-based tests for the cluster testbed: conservation laws that
//! must hold for arbitrary topologies, workloads, and scaling actions.

use atom_cluster::{
    AppSpec, Cluster, ClusterOptions, FaultKind, FaultSchedule, ScaleAction, ServiceId,
    WindowReport,
};
use atom_workload::{LoadProfile, RequestMix, WorkloadSpec};
use proptest::prelude::*;

/// A small random two-service chain with a random workload.
#[derive(Debug, Clone)]
struct Setup {
    d_front: f64,
    d_back: f64,
    calls: f64,
    share_front: f64,
    share_back: f64,
    users: usize,
    think: f64,
    seed: u64,
}

fn setup_strategy() -> impl Strategy<Value = Setup> {
    (
        0.001f64..0.02,
        0.001f64..0.02,
        0.0f64..2.0,
        0.05f64..1.0,
        0.05f64..1.0,
        1usize..150,
        0.2f64..5.0,
        0u64..1000,
    )
        .prop_map(
            |(d_front, d_back, calls, share_front, share_back, users, think, seed)| Setup {
                d_front,
                d_back,
                calls,
                share_front,
                share_back,
                users,
                think,
                seed,
            },
        )
}

/// One fault of any of the five kinds, somewhere in the 240 s the faulted
/// runs simulate, aimed at the two services and the one server `build`
/// deploys.
fn fault_strategy() -> impl Strategy<Value = (f64, FaultKind)> {
    let kind = prop_oneof![
        (0usize..2).prop_map(|service| FaultKind::ReplicaCrash { service }),
        (5.0f64..15.0).prop_map(|duration| FaultKind::ServerOutage {
            server: 0,
            duration
        }),
        (10.0f64..40.0).prop_map(|duration| FaultKind::MonitorDropout { duration }),
        (10.0f64..30.0).prop_map(|duration| FaultKind::ActuationFailure { duration }),
        (1.5f64..3.5, 10.0f64..30.0)
            .prop_map(|(factor, duration)| FaultKind::SlowStart { factor, duration }),
    ];
    (0.0f64..240.0, kind)
}

/// A crash or an outage in the first 4 s of the scale orders (the
/// caller offsets the time): the two faults that kill replicas and so
/// make the cluster reconcile.
fn lifecycle_fault_strategy() -> impl Strategy<Value = (f64, FaultKind)> {
    let kind = prop_oneof![
        (0usize..2).prop_map(|service| FaultKind::ReplicaCrash { service }),
        (1.0f64..15.0).prop_map(|duration| FaultKind::ServerOutage {
            server: 0,
            duration
        }),
    ];
    (0.0f64..4.0, kind)
}

/// Up to nine faults, in the order `FaultSchedule` keeps them.
fn schedule_strategy() -> impl Strategy<Value = FaultSchedule> {
    proptest::collection::vec(fault_strategy(), 0..10).prop_map(|faults| {
        faults
            .into_iter()
            .fold(FaultSchedule::new(), |s, (t, kind)| s.at(t, kind))
    })
}

#[test]
fn the_schedule_strategy_draws_every_fault_kind() {
    let mut seen = [false; 5];
    let mut rng = proptest::TestRng::seed_from_u64(1);
    for _ in 0..64 {
        for e in schedule_strategy().generate(&mut rng).events() {
            let kind = match e.kind {
                FaultKind::ReplicaCrash { .. } => 0,
                FaultKind::ServerOutage { .. } => 1,
                FaultKind::MonitorDropout { .. } => 2,
                FaultKind::ActuationFailure { .. } => 3,
                FaultKind::SlowStart { .. } => 4,
            };
            seen[kind] = true;
        }
    }
    assert_eq!(seen, [true; 5]);
}

fn build(s: &Setup) -> (AppSpec, WorkloadSpec) {
    let mut app = AppSpec::new();
    let node = app.add_server("node", 4, 1.0);
    let front = app.add_service("front", node, 32, 1, s.share_front);
    let back = app.add_service("back", node, 16, 1, s.share_back);
    let f_op = app.add_endpoint(front, "op", s.d_front, 1.0);
    let b_op = app.add_endpoint(back, "op", s.d_back, 1.0);
    app.add_call(front, f_op, back, b_op, s.calls);
    app.add_feature("op", front, f_op);
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), s.users, s.think);
    (app, workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Throughput, utilisation, and capacity conservation for arbitrary
    /// parameters.
    #[test]
    fn conservation_laws_hold(s in setup_strategy()) {
        let (app, workload) = build(&s);
        let mut cluster = Cluster::new(
            &app,
            workload,
            ClusterOptions::new().with_seed(s.seed),
        ).unwrap();
        cluster.run_window(50.0);
        let r = cluster.run_window(200.0);

        // Throughput can never exceed the think-time bound...
        prop_assert!(r.total_tps <= s.users as f64 / s.think * 1.05 + 0.5,
            "tps {} users {} think {}", r.total_tps, s.users, s.think);
        // ...or the front service's capacity.
        let cap = s.share_front / s.d_front;
        prop_assert!(r.total_tps <= cap * 1.10 + 0.5, "tps {} cap {cap}", r.total_tps);

        // Busy cores never exceed allocation or machine capacity.
        for si in 0..2 {
            prop_assert!(r.service_busy_cores[si]
                <= r.service_alloc_cores[si] * 1.001 + 1e-6);
            prop_assert!((0.0..=1.001).contains(&r.service_utilization[si]),
                "util {}", r.service_utilization[si]);
        }
        prop_assert!(r.server_utilization[0] <= 1.0 + 1e-9);

        // The utilisation law ties busy cores to completed work:
        // busy >= completions × demand (equality up to in-flight work and
        // sampling noise; the back service does `calls` visits each).
        let front_work = r.endpoint_tps[0][0] * s.d_front;
        prop_assert!(r.service_busy_cores[0] >= front_work * 0.8 - 0.01,
            "front busy {} vs work {}", r.service_busy_cores[0], front_work);

        // Users are conserved.
        prop_assert_eq!(r.users_at_end, s.users);
        prop_assert!((r.avg_users - s.users as f64).abs() < 1.0);
    }

    /// Arbitrary scaling orders never break the cluster or lose
    /// requests: every service serves its last order at once and is
    /// ready at it once start-ups end. The services start with 1–3
    /// replicas of 1–3 threads and 10 s of load; orders then come at
    /// sub-second gaps, so a scale-up often lands while an earlier
    /// scale-down still drains, and crashes and outages strike in
    /// between.
    #[test]
    fn random_scaling_actions_are_safe(
        s in setup_strategy(),
        initial in (1usize..4, 1usize..4),
        threads in (1usize..4, 1usize..4),
        orders in proptest::collection::vec(
            (0usize..2, 1usize..6, 0.05f64..2.0, 0.05f64..1.0),
            1..8,
        ),
        faults in proptest::collection::vec(lifecycle_fault_strategy(), 0..3),
    ) {
        let (mut app, workload) = build(&s);
        let mut last = [initial.0, initial.1];
        // Few threads make queues, so a scaled-down replica drains for
        // a while.
        for (si, threads) in [threads.0, threads.1].into_iter().enumerate() {
            app.services[si].initial_replicas = last[si];
            app.services[si].threads = threads;
        }
        let faults = faults
            .into_iter()
            .fold(FaultSchedule::new(), |f, (t, kind)| f.at(10.0 + t, kind));
        let mut cluster = Cluster::new(
            &app,
            workload,
            ClusterOptions::new().with_seed(s.seed).with_faults(faults),
        ).unwrap();
        let mut total_completed = cluster.run_window(10.0).feature_counts.iter().sum::<u64>();
        for (svc, replicas, share, gap) in orders {
            cluster.schedule_scaling(
                vec![ScaleAction {
                    service: ServiceId(svc),
                    replicas,
                    share,
                }],
                0.0,
            );
            last[svc] = replicas;
            let r = cluster.run_window(gap);
            total_completed += r.feature_counts.iter().sum::<u64>();
            // Every order is served at once: what drains is out of the
            // count and what starts is in it.
            prop_assert_eq!(&r.service_replicas, &last);
            for si in 0..2 {
                prop_assert!(r.service_ready_replicas[si] <= r.service_replicas[si]);
            }
        }
        // Outages are over by 29 s and start-ups take 2 s.
        let r = cluster.run_window(60.0);
        total_completed += r.feature_counts.iter().sum::<u64>();
        prop_assert_eq!(&r.service_replicas, &last);
        let ready: Vec<usize> = (0..2).map(|si| cluster.ready_replicas(ServiceId(si))).collect();
        prop_assert_eq!(&ready, &last);
        // The system kept serving throughout.
        if s.users > 10 && s.think < 2.0 {
            prop_assert!(total_completed > 0, "no requests completed at all");
        }
    }

    /// Ramp profiles reach their target exactly, whatever the shape.
    #[test]
    fn ramps_settle_at_target(
        from in 1usize..50,
        to in 1usize..200,
        seed in 0u64..100,
    ) {
        let mut app = AppSpec::new();
        let node = app.add_server("n", 4, 1.0);
        let svc = app.add_service("s", node, 64, 1, 4.0);
        let ep = app.add_endpoint(svc, "op", 0.0001, 1.0);
        app.add_feature("op", svc, ep);
        let workload = WorkloadSpec::new(
            RequestMix::uniform(1),
            1.0,
            LoadProfile::Ramp { from, to, start: 0.0, duration: 100.0 },
        );
        let mut cluster = Cluster::new(
            &app,
            workload,
            ClusterOptions::new().with_seed(seed),
        ).unwrap();
        cluster.run_window(100.0);
        let r = cluster.run_window(50.0);
        prop_assert_eq!(r.users_at_end, to);
    }
}

/// A hand-written schedule exercising every fault kind within a 240 s
/// horizon against the two-service [`build`] topology.
fn chaos_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .at(30.0, FaultKind::ReplicaCrash { service: 0 })
        .at(55.0, FaultKind::MonitorDropout { duration: 40.0 })
        .at(95.0, FaultKind::ActuationFailure { duration: 20.0 })
        .at(
            130.0,
            FaultKind::SlowStart {
                factor: 3.0,
                duration: 30.0,
            },
        )
        .at(
            150.0,
            FaultKind::ServerOutage {
                server: 0,
                duration: 5.0,
            },
        )
}

/// Runs `horizon` seconds in windows of `window` seconds and returns the
/// per-window reports plus the final ready-replica counts.
fn run_in_windows(
    s: &Setup,
    faults: FaultSchedule,
    horizon: f64,
    window: f64,
) -> (Vec<WindowReport>, Vec<usize>) {
    let (app, workload) = build(s);
    let mut cluster = Cluster::new(
        &app,
        workload,
        ClusterOptions::new().with_seed(s.seed).with_faults(faults),
    )
    .unwrap();
    // One scaling action landing inside the actuation-failure interval of
    // `chaos_schedule` (t = 100): dropped when that fault is active,
    // applied otherwise — identically in every windowing of the run.
    cluster.schedule_scaling(
        vec![ScaleAction {
            service: ServiceId(1),
            replicas: 2,
            share: s.share_back,
        }],
        100.0,
    );
    let windows = (horizon / window).round() as usize;
    let reports: Vec<WindowReport> = (0..windows).map(|_| cluster.run_window(window)).collect();
    let ready = (0..2)
        .map(|si| cluster.ready_replicas(ServiceId(si)))
        .collect();
    (reports, ready)
}

/// Integrates `f(report) × duration` over a run's windows.
fn integral(reports: &[WindowReport], f: impl Fn(&WindowReport) -> f64) -> f64 {
    reports.iter().map(|r| f(r) * r.duration()).sum()
}

/// Relative closeness with a small absolute floor: window-boundary
/// `advance` calls split one processor update into two, so continuous
/// aggregates may drift by floating-point rounding (never more).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()) + 1e-3
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Window boundaries are pure observation points: simulating 240 s as
    /// two 120 s windows or four 60 s windows yields the same aggregate
    /// telemetry — with and without an active fault schedule (ISSUE
    /// satellite 3). Discrete state replays bit-identically (collection
    /// never mutates the simulation); only summed float aggregates may
    /// differ, by addition rounding.
    #[test]
    fn window_splitting_is_pure_observation(s in setup_strategy()) {
        for faults in [FaultSchedule::new(), chaos_schedule()] {
            let (coarse, ready_a) = run_in_windows(&s, faults.clone(), 240.0, 120.0);
            let (fine, ready_b) = run_in_windows(&s, faults, 240.0, 60.0);

            // Completed-request counts agree exactly.
            let count = |rs: &[WindowReport]| -> u64 {
                rs.iter().map(|r| r.feature_counts.iter().sum::<u64>()).sum()
            };
            prop_assert_eq!(count(&coarse), count(&fine));

            // Continuous aggregates agree up to rounding.
            for si in 0..2 {
                let busy_a = integral(&coarse, |r| r.service_busy_cores[si]);
                let busy_b = integral(&fine, |r| r.service_busy_cores[si]);
                prop_assert!(close(busy_a, busy_b), "busy[{si}] {busy_a} vs {busy_b}");
                let alloc_a = integral(&coarse, |r| r.service_alloc_cores[si]);
                let alloc_b = integral(&fine, |r| r.service_alloc_cores[si]);
                prop_assert!(close(alloc_a, alloc_b), "alloc[{si}] {alloc_a} vs {alloc_b}");
                let up_a = integral(&coarse, |r| r.service_availability[si]);
                let up_b = integral(&fine, |r| r.service_availability[si]);
                prop_assert!(close(up_a, up_b), "avail[{si}] {up_a} vs {up_b}");
            }
            let users_a = integral(&coarse, |r| r.avg_users);
            let users_b = integral(&fine, |r| r.avg_users);
            prop_assert!(close(users_a, users_b), "users {users_a} vs {users_b}");

            // Fault bookkeeping agrees exactly: dark time is interval
            // arithmetic and dropped batches are calendar events.
            let dark_a = integral(&coarse, |r| r.monitor_dropout_fraction);
            let dark_b = integral(&fine, |r| r.monitor_dropout_fraction);
            prop_assert!((dark_a - dark_b).abs() <= 1e-9, "dark {dark_a} vs {dark_b}");
            let fails = |rs: &[WindowReport]| rs.iter().map(|r| r.failed_actuations).sum::<usize>();
            prop_assert_eq!(fails(&coarse), fails(&fine));

            // End state agrees: same population, same fleet.
            let (la, lb) = (coarse.last().unwrap(), fine.last().unwrap());
            prop_assert_eq!(la.users_at_end, lb.users_at_end);
            prop_assert_eq!(&la.service_replicas, &lb.service_replicas);
            prop_assert_eq!(&la.service_ready_replicas, &lb.service_ready_replicas);
            prop_assert_eq!(ready_a, ready_b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A faulty run is a pure function of its seed: two clusters built
    /// from the same spec, options, and fault schedule produce
    /// bitwise-identical window reports.
    #[test]
    fn faulty_runs_are_deterministic_in_seed(s in setup_strategy(), faults in schedule_strategy()) {
        let run = || {
            let (app, workload) = build(&s);
            let mut cluster = Cluster::new(
                &app,
                workload,
                ClusterOptions::new()
                    .with_seed(s.seed)
                    .with_faults(faults.clone()),
            )
            .unwrap();
            (0..3).map(|_| cluster.run_window(80.0)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Arbitrary fault schedules never break the cluster's
    /// invariants, even interleaved with scaling actions: at least one
    /// live replica per service, ready ≤ live, and all fault telemetry
    /// within range.
    #[test]
    fn random_fault_schedules_never_break_the_cluster(
        s in setup_strategy(),
        faults in schedule_strategy(),
        actions in proptest::collection::vec((0usize..2, 1usize..6, 0.05f64..2.0), 1..5),
    ) {
        let (app, workload) = build(&s);
        let mut cluster = Cluster::new(
            &app,
            workload,
            ClusterOptions::new().with_seed(s.seed).with_faults(faults),
        )
        .unwrap();
        for (svc, replicas, share) in actions {
            cluster.schedule_scaling(
                vec![ScaleAction { service: ServiceId(svc), replicas, share }],
                1.0,
            );
            let r = cluster.run_window(60.0);
            for si in 0..2 {
                prop_assert!(r.service_replicas[si] >= 1, "service {si} lost all replicas");
                prop_assert!(
                    r.service_ready_replicas[si] <= r.service_replicas[si],
                    "ready {} > live {}",
                    r.service_ready_replicas[si],
                    r.service_replicas[si]
                );
                prop_assert!((0.0..=1.0).contains(&r.service_availability[si]));
            }
            prop_assert!((0.0..=1.0).contains(&r.monitor_dropout_fraction));
        }
    }
}
