//! Single-tenant equivalence pins: a one-tenant deployment through the
//! placement layer must be *bitwise identical* to driving the cluster
//! directly.
//!
//! These are the exact five scenarios (and golden digests) of
//! `atom-cluster/tests/pin_per_user.rs`, re-run through
//! [`MultiTenantCluster`] with a one-node pool standing in for the
//! original single-server spec. Placement merges one tenant onto one
//! node — an identity transform — so every report field, RNG draw, and
//! telemetry counter must reproduce those digests exactly, the reports
//! half and the telemetry half alike (they are re-captured there, and
//! copied here, whenever the cluster dynamics or the event accounting
//! change on purpose).
//! If this file disagrees with `pin_per_user.rs`, the placement layer
//! is not free for single tenants any more.

use atom_cluster::{
    AppSpec, ClusterOptions, ClusterTelemetry, EndpointId, FaultKind, FaultSchedule, ScaleAction,
    ServiceId, WindowReport,
};
use atom_placement::{MultiTenantCluster, NodePool, TenantSpec};
use atom_workload::{BurstinessSpec, LoadProfile, RequestMix, WorkloadSpec};

/// FNV-1a over a stream of u64 words (f64s enter by their bit pattern).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
    fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

fn digest_report(d: &mut Digest, r: &WindowReport) {
    d.f64(r.start);
    d.f64(r.end);
    d.usize(r.feature_counts.len());
    for &c in &r.feature_counts {
        d.word(c);
    }
    d.f64s(&r.feature_tps);
    d.f64s(&r.feature_response);
    d.usize(r.endpoint_tps.len());
    for svc in &r.endpoint_tps {
        d.f64s(svc);
    }
    d.f64s(&r.service_utilization);
    d.f64s(&r.service_busy_cores);
    d.f64s(&r.service_alloc_cores);
    d.usize(r.service_replicas.len());
    for &n in &r.service_replicas {
        d.usize(n);
    }
    for &n in &r.service_ready_replicas {
        d.usize(n);
    }
    d.f64s(&r.service_shares);
    d.f64s(&r.service_availability);
    d.f64s(&r.server_utilization);
    d.f64(r.total_tps);
    d.f64(r.avg_users);
    d.usize(r.users_at_end);
    d.f64(r.peak_arrival_rate);
    d.f64(r.peak_in_system);
    d.f64(r.avg_in_system);
    d.f64(r.monitor_dropout_fraction);
    d.usize(r.failed_actuations);
    match r.scale_latency {
        None => d.word(0),
        Some(s) => {
            d.word(1);
            d.f64(s.mean);
            d.f64(s.p95);
            d.f64(s.max);
            d.usize(s.count);
        }
    }
}

/// One scenario's two pins. `reports` folds everything a run *computes*
/// (window reports, probe samples, trace spans) and moves only when the
/// trajectory does; `telemetry` folds the event counters, which also move
/// when the engine's bookkeeping of the same trajectory changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pins {
    reports: u64,
    telemetry: u64,
}

const fn pins(reports: u64, telemetry: u64) -> Pins {
    Pins { reports, telemetry }
}

fn digest_telemetry(t: &ClusterTelemetry) -> u64 {
    let mut d = Digest::new();
    d.word(t.user_ready_events);
    d.word(t.population_change_events);
    d.word(t.replica_ready_events);
    d.word(t.processor_check_events);
    d.word(t.apply_scaling_events);
    d.word(t.latency_done_events);
    d.word(t.fault_events);
    d.word(t.dropped_batches);
    d.f64s(&t.scale_latencies);
    d.0
}

/// The original pin scenarios' single server, as the shared pool.
fn pool() -> NodePool {
    let mut pool = NodePool::new();
    pool.add_node("node", 4, 1.0);
    pool
}

/// Runs one window, on a fork of the cluster when `fork` is set: the
/// fork (a clone) runs the window and then carries on in the original's
/// place, so a forked run must reproduce the pins too.
fn window(mtc: &mut MultiTenantCluster, fork: bool, duration: f64) -> WindowReport {
    if fork {
        let mut twin = mtc.clone();
        let report = twin.run_window(duration);
        *mtc = twin;
        report
    } else {
        mtc.run_window(duration)
    }
}

/// Deploys one tenant through the placement layer.
fn deploy(spec: &AppSpec, workload: WorkloadSpec, options: ClusterOptions) -> MultiTenantCluster {
    let tenant = TenantSpec::new("solo", spec.clone(), workload);
    MultiTenantCluster::new(&pool(), &[tenant], options).expect("one tenant fits the pool")
}

fn chain_spec() -> AppSpec {
    let mut spec = AppSpec::new();
    let node = spec.add_server("node", 4, 1.0);
    let web = spec.add_service("web", node, 32, 1, 1.0);
    let db = spec.add_service("db", node, 8, 1, 1.0);
    let page = spec.add_endpoint(web, "page", 0.002, 1.0);
    let query = spec.add_endpoint(db, "query", 0.004, 1.0);
    spec.add_call(web, page, db, query, 2.0);
    spec.add_feature("page", web, page);
    spec
}

fn one_service_spec(demand: f64, share: f64, threads: usize) -> AppSpec {
    let mut spec = AppSpec::new();
    let node = spec.add_server("node", 4, 1.0);
    let svc = spec.add_service("api", node, threads, 1, share);
    let ep = spec.add_endpoint(svc, "op", demand, 1.0);
    spec.add_feature("op", svc, ep);
    spec
}

fn scenario_chain_scaling(fork: bool) -> Pins {
    let spec = chain_spec();
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), 50, 1.0);
    let mut mtc = deploy(&spec, workload, ClusterOptions::new().with_seed(42));
    let mut d = Digest::new();
    digest_report(&mut d, &window(&mut mtc, fork, 120.0));
    // Straight onto the simulator, as the original scenario scaled —
    // admission is a layer above and must not perturb the run.
    mtc.cluster_mut().schedule_scaling(
        vec![
            ScaleAction {
                service: ServiceId(0),
                replicas: 2,
                share: 1.0,
            },
            ScaleAction {
                service: ServiceId(1),
                replicas: 2,
                share: 1.0,
            },
        ],
        30.0,
    );
    digest_report(&mut d, &window(&mut mtc, fork, 120.0));
    digest_report(&mut d, &window(&mut mtc, fork, 120.0));
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(mtc.cluster().telemetry()),
    }
}

fn scenario_faults(fork: bool) -> Pins {
    let spec = one_service_spec(0.01, 1.0, 16);
    let faults = FaultSchedule::new()
        .at(10.0, FaultKind::ReplicaCrash { service: 0 })
        .at(50.0, FaultKind::MonitorDropout { duration: 40.0 })
        .at(100.0, FaultKind::ActuationFailure { duration: 50.0 })
        .at(
            150.0,
            FaultKind::SlowStart {
                factor: 4.0,
                duration: 60.0,
            },
        )
        .at(
            200.0,
            FaultKind::ServerOutage {
                server: 0,
                duration: 15.0,
            },
        );
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), 30, 1.0);
    let mut mtc = deploy(
        &spec,
        workload,
        ClusterOptions::new().with_seed(7).with_faults(faults),
    );
    let mut d = Digest::new();
    for w in 0..6 {
        if w == 1 {
            mtc.cluster_mut().schedule_scaling(
                vec![ScaleAction {
                    service: ServiceId(0),
                    replicas: 3,
                    share: 1.0,
                }],
                50.0,
            );
        }
        if w == 2 {
            mtc.cluster_mut().schedule_scaling(
                vec![ScaleAction {
                    service: ServiceId(0),
                    replicas: 2,
                    share: 1.0,
                }],
                40.0,
            );
        }
        digest_report(&mut d, &window(&mut mtc, fork, 60.0));
    }
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(mtc.cluster().telemetry()),
    }
}

fn scenario_ramp_noise(fork: bool) -> Pins {
    let spec = one_service_spec(0.004, 2.0, 64);
    let workload = WorkloadSpec::new(
        RequestMix::uniform(1),
        1.0,
        LoadProfile::Ramp {
            from: 10,
            to: 200,
            start: 30.0,
            duration: 300.0,
        },
    );
    let mut mtc = deploy(
        &spec,
        workload,
        ClusterOptions::new().with_seed(9).with_monitor_noise(0.05),
    );
    let mut d = Digest::new();
    for _ in 0..3 {
        digest_report(&mut d, &window(&mut mtc, fork, 120.0));
    }
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(mtc.cluster().telemetry()),
    }
}

fn scenario_bursty(fork: bool) -> Pins {
    let spec = one_service_spec(0.001, 4.0, 64);
    let workload = WorkloadSpec::new(RequestMix::uniform(1), 1.0, LoadProfile::Constant(100))
        .with_burstiness(BurstinessSpec {
            index_of_dispersion: 2000.0,
            burst_fraction: 0.1,
            burst_multiplier: 8.0,
        });
    let mut mtc = deploy(&spec, workload, ClusterOptions::new().with_seed(3));
    let mut d = Digest::new();
    for _ in 0..2 {
        digest_report(&mut d, &window(&mut mtc, fork, 300.0));
    }
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(mtc.cluster().telemetry()),
    }
}

fn scenario_spike_probe_trace(fork: bool) -> Pins {
    let spec = chain_spec();
    let workload = WorkloadSpec::new(
        RequestMix::uniform(1),
        1.0,
        LoadProfile::Spike {
            baseline: 40,
            spike: 160,
            start: 60.0,
            duration: 60.0,
        },
    );
    let mut mtc = deploy(&spec, workload, ClusterOptions::new().with_seed(11));
    mtc.cluster_mut().set_probe(ServiceId(1), EndpointId(0));
    mtc.cluster_mut().arm_trace(Some(0));
    let mut d = Digest::new();
    digest_report(&mut d, &window(&mut mtc, fork, 120.0));
    digest_report(&mut d, &window(&mut mtc, fork, 120.0));
    let samples = mtc.cluster_mut().take_probe_samples();
    d.usize(samples.len());
    for (q, r) in samples {
        d.f64(q);
        d.f64(r);
    }
    let trace = mtc
        .cluster_mut()
        .take_trace()
        .expect("a traced request completed");
    d.usize(trace[0].feature);
    d.usize(trace.len());
    for s in trace {
        d.usize(s.service);
        d.usize(s.endpoint);
        d.usize(s.parent.map_or(usize::MAX, |p| p));
        d.f64(s.arrival);
        d.f64(s.start);
        d.f64(s.end);
    }
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(mtc.cluster().telemetry()),
    }
}

type Scenario = (&'static str, fn(bool) -> Pins, Pins);

/// The golden digests of `atom-cluster/tests/pin_per_user.rs`, verbatim.
const SCENARIOS: [Scenario; 5] = [
    (
        "chain_scaling",
        scenario_chain_scaling,
        pins(0x7770103f9de510e5, 0x1755ef1f28a91842),
    ),
    (
        "faults",
        scenario_faults,
        pins(0x38dcf722e53f322e, 0x4537dea3d9a41625),
    ),
    (
        "ramp_noise",
        scenario_ramp_noise,
        pins(0xc1e092aeb14f5eef, 0xaf0a52eb5ed75c01),
    ),
    (
        "bursty",
        scenario_bursty,
        pins(0xcc6d3a5183aa6cfb, 0xe922f795988cdac5),
    ),
    (
        "spike_probe_trace",
        scenario_spike_probe_trace,
        pins(0x502643ca44f8b728, 0xcb6d3fcc9b894954),
    ),
];

#[test]
fn one_tenant_through_placement_reproduces_the_cluster_pins_bitwise() {
    for (name, run, expected) in SCENARIOS {
        let got = run(false);
        assert_eq!(
            got, expected,
            "scenario `{name}`: {got:#018x?} != pinned {expected:#018x?} — \
             a single-tenant deployment through atom-placement no longer matches \
             the direct cluster run bitwise"
        );
    }
}

#[test]
fn a_fork_at_every_window_reproduces_the_cluster_pins() {
    for (name, run, expected) in SCENARIOS {
        let got = run(true);
        assert_eq!(
            got, expected,
            "scenario `{name}` run on forks: {got:#018x?} != pinned {expected:#018x?} — \
             a cloned multi-tenant cluster does not carry on as the original would"
        );
    }
}
