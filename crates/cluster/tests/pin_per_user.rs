//! Bitwise pins for the per-user DES backend.
//!
//! Each scenario has two FNV-1a digests. The *reports* digest folds
//! every field of every `WindowReport` — f64s by their exact bit
//! patterns — plus whatever else the scenario computes (probe samples,
//! trace spans). It pins the cluster dynamics as they stand: any change
//! to RNG draw order, event order, processor arithmetic or accumulator
//! arithmetic shows up here, so a refactor that claims to change no run
//! proves it by leaving it alone. The *telemetry* digest folds the event
//! counters of `ClusterTelemetry`; it moves with the trajectory too, but
//! also when the engine merely books the same trajectory differently
//! (fewer internal events for the same completions), which is why the
//! two are pinned apart.
//!
//! History: captured from the monolithic runtime that predated the
//! engine / population-backend split and carried unchanged through every
//! refactor since; re-captured once, when `atom_sim::PsProcessor` moved
//! to virtual-time processor sharing. That changed where job progress is
//! rounded (one rounding per finish tag instead of one per job per
//! event), so completion times moved in their last bits and three of the
//! five digests with them — `faults` and `ramp_noise` kept theirs.
//! `crates/sim/tests/processor_oracle.rs` bounds that change against the
//! old implementation. The single digest per scenario was then split in
//! two, on unchanged behaviour, and the telemetry halves re-captured
//! when processor completions left the calendar: a superseded or stale
//! due time stopped being an event, so `processor_check_events` fell
//! (by 14–47 %) with every reports half where it was. Both halves of
//! `chain_scaling` and `faults` were re-captured when the processor
//! table began publishing every cap change: a replica that retired or
//! became ready no longer dropped its server's pending completion, so
//! jobs running next to it stopped finishing late. The other three
//! scenarios retire and ready no replica and kept both digests.
//!
//! If a future PR changes the cluster dynamics *on purpose*, re-run
//! `print_golden_digests` (`--ignored --nocapture`) and update the
//! constants alongside an explanation in the PR.

use atom_cluster::{
    AppSpec, Cluster, ClusterOptions, ClusterTelemetry, EndpointId, FaultKind, FaultSchedule,
    ScaleAction, ServiceId, TopologySpec, WindowReport,
};
use atom_workload::{BurstinessSpec, LoadProfile, RequestMix, WorkloadSpec};

/// How a scenario is driven. Each variant must reproduce the same pins.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// Straight through.
    Plain,
    /// Under a zero-delay topology (every edge 0-latency with infinite
    /// bandwidth). Every cross-server round trip then prices at exactly
    /// 0.0 and takes the inline no-event path, so the run must stay
    /// bitwise identical to a topology-free one — the pinned digests
    /// double as the network fabric's inertness check.
    ZeroDelayTopology,
    /// Every window runs on a fork (a clone) of the cluster, which then
    /// carries on in its place: a fork holds the same users, queues,
    /// in-flight requests and pending timers, so fork-then-run must
    /// equal run.
    Fork,
}

impl Drive {
    fn options(self, options: ClusterOptions, spec: &AppSpec) -> ClusterOptions {
        if self == Drive::ZeroDelayTopology {
            options.with_topology(TopologySpec::zero_delay(spec.servers.len()))
        } else {
            options
        }
    }

    fn window(self, cluster: &mut Cluster, duration: f64) -> WindowReport {
        if self == Drive::Fork {
            let mut fork = cluster.clone();
            let report = fork.run_window(duration);
            *cluster = fork;
            report
        } else {
            cluster.run_window(duration)
        }
    }
}

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

/// Hashes the report fields that existed before the backend split, in a
/// fixed order, so later *additive* schema changes don't disturb pins.
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

/// Multi-service chain with a mid-run scale-up (the repro-style shape:
/// steady mix, controller actions landing between windows).
fn scenario_chain_scaling(drive: Drive) -> Pins {
    let spec = chain_spec();
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), 50, 1.0);
    let mut cluster = Cluster::new(
        &spec,
        workload,
        drive.options(ClusterOptions::new().with_seed(42), &spec),
    )
    .unwrap();
    let mut d = Digest::new();
    digest_report(&mut d, &drive.window(&mut cluster, 120.0));
    cluster.schedule_scaling(
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
    digest_report(&mut d, &drive.window(&mut cluster, 120.0));
    digest_report(&mut d, &drive.window(&mut cluster, 120.0));
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(cluster.telemetry()),
    }
}

/// The chaos-style shape: every fault kind fires, one batch is dropped
/// by an actuation failure, one lands during a slow-start episode.
fn scenario_faults(drive: Drive) -> Pins {
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
    let mut cluster = Cluster::new(
        &spec,
        workload,
        drive.options(
            ClusterOptions::new().with_seed(7).with_faults(faults),
            &spec,
        ),
    )
    .unwrap();
    let mut d = Digest::new();
    for w in 0..6 {
        if w == 1 {
            // Lands at t=110 inside the actuation blackout: dropped.
            cluster.schedule_scaling(
                vec![ScaleAction {
                    service: ServiceId(0),
                    replicas: 3,
                    share: 1.0,
                }],
                50.0,
            );
        }
        if w == 2 {
            // Lands at t=160 inside the slow-start episode.
            cluster.schedule_scaling(
                vec![ScaleAction {
                    service: ServiceId(0),
                    replicas: 2,
                    share: 1.0,
                }],
                40.0,
            );
        }
        digest_report(&mut d, &drive.window(&mut cluster, 60.0));
    }
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(cluster.telemetry()),
    }
}

/// The forecast-style shape: a ramp with noisy monitor readings.
fn scenario_ramp_noise(drive: Drive) -> Pins {
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
    let mut cluster = Cluster::new(
        &spec,
        workload,
        drive.options(
            ClusterOptions::new().with_seed(9).with_monitor_noise(0.05),
            &spec,
        ),
    )
    .unwrap();
    let mut d = Digest::new();
    for _ in 0..3 {
        digest_report(&mut d, &drive.window(&mut cluster, 120.0));
    }
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(cluster.telemetry()),
    }
}

/// MMPP-modulated think times (the burstiness path draws extra RNG).
fn scenario_bursty(drive: Drive) -> Pins {
    let spec = one_service_spec(0.001, 4.0, 64);
    let workload = WorkloadSpec::new(RequestMix::uniform(1), 1.0, LoadProfile::Constant(100))
        .with_burstiness(BurstinessSpec {
            index_of_dispersion: 2000.0,
            burst_fraction: 0.1,
            burst_multiplier: 8.0,
        });
    let options = drive.options(ClusterOptions::new().with_seed(3), &spec);
    let mut cluster = Cluster::new(&spec, workload, options).unwrap();
    let mut d = Digest::new();
    for _ in 0..2 {
        digest_report(&mut d, &drive.window(&mut cluster, 300.0));
    }
    Pins {
        reports: d.0,
        telemetry: digest_telemetry(cluster.telemetry()),
    }
}

/// Spike profile with the probe and tracing armed (both must stay
/// observational, and their sample streams are pinned too).
fn scenario_spike_probe_trace(drive: Drive) -> Pins {
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
    let options = drive.options(ClusterOptions::new().with_seed(11), &spec);
    let mut cluster = Cluster::new(&spec, workload, options).unwrap();
    cluster.set_probe(ServiceId(1), EndpointId(0));
    cluster.arm_trace(Some(0));
    let mut d = Digest::new();
    digest_report(&mut d, &drive.window(&mut cluster, 120.0));
    digest_report(&mut d, &drive.window(&mut cluster, 120.0));
    let samples = cluster.take_probe_samples();
    d.usize(samples.len());
    for (q, r) in samples {
        d.f64(q);
        d.f64(r);
    }
    let trace = cluster.take_trace().expect("a traced request completed");
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
        telemetry: digest_telemetry(cluster.telemetry()),
    }
}

type Scenario = (&'static str, fn(Drive) -> Pins, Pins);

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
fn per_user_backend_reproduces_the_pinned_digests() {
    for (name, run, expected) in SCENARIOS {
        let got = run(Drive::Plain);
        assert_eq!(
            got.reports, expected.reports,
            "scenario `{name}`: reports digest {:#018x} != pinned {:#018x} — \
             the per-user DES no longer reproduces its pinned trajectory bitwise",
            got.reports, expected.reports
        );
        assert_eq!(
            got.telemetry, expected.telemetry,
            "scenario `{name}`: telemetry digest {:#018x} != pinned {:#018x} — \
             same trajectory, but the engine counts its events differently",
            got.telemetry, expected.telemetry
        );
    }
}

#[test]
fn zero_delay_topology_reproduces_every_pinned_digest() {
    for (name, run, expected) in SCENARIOS {
        let got = run(Drive::ZeroDelayTopology);
        assert_eq!(
            got, expected,
            "scenario `{name}` with a zero-delay topology: {got:#018x?} != pinned \
             {expected:#018x?} — pricing 0.0-cost round trips perturbed the event stream"
        );
    }
}

#[test]
fn a_fork_at_every_window_reproduces_every_pinned_digest() {
    for (name, run, expected) in SCENARIOS {
        let got = run(Drive::Fork);
        assert_eq!(
            got, expected,
            "scenario `{name}` run on forks: {got:#018x?} != pinned {expected:#018x?} — \
             a cloned cluster does not carry on as the original would"
        );
    }
}

/// Prints the current digests; used once to capture the pins above.
#[test]
#[ignore = "golden capture helper, not a check"]
fn print_golden_digests() {
    for (name, run, _) in SCENARIOS {
        println!("(\"{name}\", ..., {:#018x?}),", run(Drive::Plain));
    }
}
