//! Cross-backend properties: the fluid aggregate must agree with the
//! per-user DES on steady-state window statistics, the hybrid policy
//! must be deterministic in the seed, and replayed traces must behave
//! exactly like the equivalent hand-built step profiles.

use atom_cluster::spec::AppSpec;
use atom_cluster::{BackendKind, BackendMode, Cluster, ClusterOptions, WindowReport};
use atom_workload::{LoadProfile, RequestMix, TraceFormat, TraceSource, WorkloadSpec};

fn spec(demand: f64, share: f64) -> AppSpec {
    let mut spec = AppSpec::new();
    let node = spec.add_server("node", 8, 1.0);
    let svc = spec.add_service("api", node, 256, 2, share);
    let ep = spec.add_endpoint(svc, "op", demand, 1.0);
    spec.add_feature("op", svc, ep);
    spec
}

fn run(
    mode: BackendMode,
    workload: WorkloadSpec,
    app: &AppSpec,
    windows: usize,
) -> Vec<WindowReport> {
    let mut cluster = Cluster::new(
        app,
        workload,
        ClusterOptions::new().with_seed(11).with_backend(mode),
    )
    .expect("cluster");
    (0..windows).map(|_| cluster.run_window(300.0)).collect()
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-9)
}

#[test]
fn backends_agree_on_constant_steady_state() {
    let app = spec(0.01, 1.0);
    let workload = || WorkloadSpec::constant(RequestMix::uniform(1), 300, 2.0);
    let per_user = run(BackendMode::PerUser, workload(), &app, 4);
    let fluid = run(BackendMode::Fluid, workload(), &app, 4);
    // Skip the first window (the DES warms up from empty queues); the
    // fluid model is in steady state from the start.
    for (pu, fl) in per_user.iter().zip(&fluid).skip(1) {
        assert!(
            rel_err(fl.total_tps, pu.total_tps) < 0.10,
            "throughput: fluid {} vs per-user {}",
            fl.total_tps,
            pu.total_tps
        );
        assert!(
            rel_err(fl.service_busy_cores[0], pu.service_busy_cores[0]) < 0.15,
            "utilisation: fluid {} vs per-user {}",
            fl.service_busy_cores[0],
            pu.service_busy_cores[0]
        );
        assert!(
            rel_err(fl.avg_users, pu.avg_users) < 0.05,
            "population: fluid {} vs per-user {}",
            fl.avg_users,
            pu.avg_users
        );
    }
}

#[test]
fn backends_agree_on_a_ramp_profile() {
    let app = spec(0.005, 1.0);
    let workload = || {
        WorkloadSpec::new(
            RequestMix::uniform(1),
            2.0,
            LoadProfile::Ramp {
                from: 50,
                to: 400,
                start: 0.0,
                duration: 600.0,
            },
        )
    };
    let per_user = run(BackendMode::PerUser, workload(), &app, 4);
    let fluid = run(BackendMode::Fluid, workload(), &app, 4);
    for (w, (pu, fl)) in per_user.iter().zip(&fluid).enumerate().skip(1) {
        assert!(
            rel_err(fl.total_tps, pu.total_tps) < 0.10,
            "window {w} throughput: fluid {} vs per-user {}",
            fl.total_tps,
            pu.total_tps
        );
        assert!(
            rel_err(fl.avg_users, pu.avg_users) < 0.05,
            "window {w} population: fluid {} vs per-user {}",
            fl.avg_users,
            pu.avg_users
        );
        assert_eq!(
            fl.users_at_end, pu.users_at_end,
            "window {w} final population"
        );
    }
}

#[test]
fn fluid_tracks_mean_response_time() {
    // M/M/m-ish regime: the fluid response estimate comes straight from
    // MVA residence times and must sit near the DES measurement.
    let app = spec(0.02, 1.0);
    let workload = || WorkloadSpec::constant(RequestMix::uniform(1), 150, 2.0);
    let per_user = run(BackendMode::PerUser, workload(), &app, 4);
    let fluid = run(BackendMode::Fluid, workload(), &app, 4);
    let pu = &per_user[3];
    let fl = &fluid[3];
    assert!(
        rel_err(fl.feature_response[0], pu.feature_response[0]) < 0.25,
        "response: fluid {} vs per-user {}",
        fl.feature_response[0],
        pu.feature_response[0]
    );
}

#[test]
fn hybrid_run_is_deterministic_in_the_seed() {
    let app = spec(0.01, 0.5);
    let one = |seed: u64| {
        let workload = WorkloadSpec::new(
            RequestMix::uniform(1),
            2.0,
            LoadProfile::Steps(vec![(0.0, 100), (500.0, 250), (900.0, 80)]),
        );
        let mut cluster = Cluster::new(
            &app,
            workload,
            ClusterOptions::new()
                .with_seed(seed)
                .with_backend(BackendMode::Hybrid),
        )
        .expect("cluster");
        let mut out = Vec::new();
        for w in 0..6 {
            if w == 2 {
                cluster.schedule_scaling(
                    vec![atom_cluster::ScaleAction {
                        service: atom_cluster::ServiceId(0),
                        replicas: 3,
                        share: 0.5,
                    }],
                    5.0,
                );
            }
            let r = cluster.run_window(300.0);
            out.push((
                r.total_tps.to_bits(),
                r.avg_users.to_bits(),
                r.backend,
                r.backend_switches,
            ));
        }
        out
    };
    assert_eq!(one(3), one(3), "same seed, same hybrid trajectory");
    assert_ne!(
        one(3).iter().map(|x| x.0).collect::<Vec<_>>(),
        one(4).iter().map(|x| x.0).collect::<Vec<_>>(),
        "different seeds diverge"
    );
}

#[test]
fn hybrid_switch_counters_reconcile() {
    // The per-window switch counts must sum to the lifetime telemetry
    // counter, and the reported backend kind must change across a
    // transient.
    let app = spec(0.01, 0.5);
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), 100, 2.0);
    let mut cluster = Cluster::new(
        &app,
        workload,
        ClusterOptions::new().with_backend(BackendMode::Hybrid),
    )
    .expect("cluster");
    // 60 s windows, shorter than the 120 s per-user hold, so the
    // transient's backend is visible at a window boundary.
    let mut kinds = Vec::new();
    let mut switch_sum = 0u64;
    for w in 0..6 {
        if w == 1 {
            cluster.schedule_scaling(
                vec![atom_cluster::ScaleAction {
                    service: atom_cluster::ServiceId(0),
                    replicas: 3,
                    share: 0.5,
                }],
                0.0,
            );
        }
        let r = cluster.run_window(60.0);
        kinds.push(r.backend);
        switch_sum += r.backend_switches as u64;
    }
    assert_eq!(switch_sum, cluster.telemetry().backend_switches);
    assert_eq!(kinds[0], BackendKind::Fluid, "steady start runs fluid");
    assert!(
        kinds.contains(&BackendKind::PerUser),
        "the scaling transient must surface a per-user window, got {kinds:?}"
    );
    assert_eq!(
        *kinds.last().unwrap(),
        BackendKind::Fluid,
        "the hold expiry must hand back to fluid"
    );
}

#[test]
fn trace_source_is_bitwise_identical_to_equivalent_steps_profile() {
    // A trace replayed as a `Population` and the hand-built
    // `LoadProfile::Steps` with the same (time, population) pairs must
    // drive the per-user DES to bitwise-identical reports.
    let app = spec(0.005, 1.0);
    let steps = vec![(0.0, 40), (120.0, 90), (350.0, 70), (600.0, 140)];
    let digest = |workload: WorkloadSpec| {
        let mut cluster =
            Cluster::new(&app, workload, ClusterOptions::new().with_seed(17)).expect("cluster");
        let mut bits = Vec::new();
        for _ in 0..3 {
            let r = cluster.run_window(300.0);
            bits.push((
                r.total_tps.to_bits(),
                r.avg_users.to_bits(),
                r.feature_response[0].to_bits(),
                r.users_at_end,
            ));
        }
        bits
    };
    let via_profile = digest(WorkloadSpec::new(
        RequestMix::uniform(1),
        2.0,
        LoadProfile::Steps(steps.clone()),
    ));
    let via_trace = digest(WorkloadSpec::new(
        RequestMix::uniform(1),
        2.0,
        TraceSource::from_steps("replay", TraceFormat::Alibaba, steps),
    ));
    assert_eq!(via_profile, via_trace);
}

#[test]
fn hybrid_trace_replay_switches_on_hints_without_pinning_per_user() {
    // A trace steps every bin; only its genuine spike must drop the
    // hybrid backend to per-user, and the hold must hand back to fluid
    // afterwards instead of pinning the whole replay in per-user mode.
    let app = spec(0.005, 1.0);
    // Gentle sub-threshold drift (≤ 9% relative) every 60 s, plus one
    // 3× spike at t = 650 decaying at t = 750.
    let mut steps: Vec<(f64, usize)> = (0..30)
        .map(|k| (k as f64 * 60.0, 100 + 3 * (k % 4)))
        .filter(|&(t, _)| !(650.0..=750.0).contains(&t))
        .collect();
    steps.push((650.0, 330));
    steps.push((750.0, 104));
    steps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let workload = WorkloadSpec::new(
        RequestMix::uniform(1),
        2.0,
        TraceSource::from_steps("spiky", TraceFormat::Google, steps),
    );
    let mut cluster = Cluster::new(
        &app,
        workload,
        ClusterOptions::new()
            .with_seed(5)
            .with_backend(BackendMode::Hybrid),
    )
    .expect("cluster");
    let kinds: Vec<BackendKind> = (0..6).map(|_| cluster.run_window(300.0).backend).collect();
    let telemetry = cluster.telemetry();
    assert!(
        telemetry.spike_hint_events >= 1,
        "the 3× jump must fire a spike hint, got {telemetry:?}"
    );
    assert!(
        telemetry.backend_switches >= 2,
        "hint must switch to per-user and the hold back to fluid, got {telemetry:?}"
    );
    assert_eq!(
        kinds[0],
        BackendKind::Fluid,
        "routine bin-to-bin drift must not read as a spike, got {kinds:?}"
    );
    assert_eq!(
        *kinds.last().unwrap(),
        BackendKind::Fluid,
        "replay must not stay pinned per-user after the spike, got {kinds:?}"
    );
}
