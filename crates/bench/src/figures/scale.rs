//! `scale` — the population-backend scaling experiment.
//!
//! Measures how fast each backend advances the same closed workload at
//! N = 1e3 / 1e5 / 1e6 users: the exact per-user DES (one think timer
//! per user), the fluid aggregate (per-step MVA steady states), and the
//! hybrid of the two (fluid in steady state, per-user around a
//! mid-run scaling transient). The headline metric is completed client
//! requests *simulated* per wall-clock second; DES events handled
//! (timers dispatched + processor completions fired) per wall second
//! ride along for the event-engine view.
//!
//! Artefact: `scale.csv` (one row per backend × population) in the
//! output directory, plus the multi-tenant wall-clock points on the
//! console and in `--trace-out` / `--metrics-out`. This is a trajectory
//! to read, not a measuring instrument: absolute wall clocks, overhead
//! percentages and per-layer costs are `benchmarks/`' job (medians over
//! repeats, interleaved A/B pairs). `--smoke` gates ratios and
//! function only: the top-population fluid run must beat the per-user
//! backend by ≥ 10× on requests per wall second, the hybrid run must
//! make the fluid → per-user → fluid round trip, the emitted CSV must
//! re-parse, and a cross-rack fabric must price transits.

use std::time::Instant;

use atom_cluster::spec::AppSpec;
use atom_cluster::{BackendMode, Cluster, ClusterOptions, ScaleAction, ServiceId};
use atom_core::workload::{RequestMix, WorkloadSpec};
use atom_placement::{MultiTenantCluster, NodePool, TenantSpec};
use atom_sockshop::{scenarios, SockShop};

use crate::output::{f, Table};
use crate::HarnessOptions;

/// Closed-workload think time (paper-style, seconds).
const THINK_TIME: f64 = 7.0;
/// Per-request CPU demand of the single endpoint (seconds).
const DEMAND: f64 = 0.005;
/// Target steady-state utilisation the spec is sized for.
const TARGET_UTIL: f64 = 0.65;
/// Replicas of the one service (the MVA multiserver count).
const REPLICAS: usize = 4;

/// Smoke gate: minimum requests-per-wall-second speedup of the fluid
/// backend over the per-user backend at the largest population.
const SMOKE_SPEEDUP_FLOOR: f64 = 10.0;

/// One backend × population measurement.
#[derive(Debug, Clone)]
pub(super) struct ScalePoint {
    /// Backend mode the cluster ran under.
    pub mode: BackendMode,
    /// Closed-workload population.
    pub users: usize,
    /// Simulated horizon (seconds).
    pub sim_seconds: f64,
    /// Wall-clock cost including cluster construction (seconds).
    pub wall_seconds: f64,
    /// Client requests completed over the horizon.
    pub requests: u64,
    /// DES events handled over the horizon (timers dispatched plus
    /// processor completions fired).
    pub events: u64,
    /// Backend handovers performed (hybrid only).
    pub switches: u64,
}

impl ScalePoint {
    /// Completed client requests simulated per wall-clock second — the
    /// cross-backend work rate (comparable even though the fluid
    /// backend dispatches almost no discrete events).
    pub(super) fn req_per_wall_s(&self) -> f64 {
        self.requests as f64 / self.wall_seconds.max(1e-9)
    }

    /// DES events handled per wall-clock second.
    pub(super) fn events_per_wall_s(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-9)
    }

    fn mode_name(&self) -> &'static str {
        match self.mode {
            BackendMode::PerUser => "per-user",
            BackendMode::Fluid => "fluid",
            BackendMode::Hybrid => "hybrid",
            _ => "unknown",
        }
    }
}

/// A one-service app sized so the given population loads it to
/// [`TARGET_UTIL`]: capacity (cores) = N/Z · D / target.
fn scale_spec(users: usize) -> AppSpec {
    let offered = users as f64 / THINK_TIME;
    let capacity = (offered * DEMAND / TARGET_UTIL).max(0.5);
    let mut spec = AppSpec::new();
    let node = spec.add_server("hub", capacity.ceil() as usize + 2, 1.0);
    // Generous thread pools: the backend comparison targets the CPU
    // plane, not thread-limit queueing (which the fluid model elides).
    let svc = spec.add_service("api", node, 1 << 14, REPLICAS, capacity / REPLICAS as f64);
    let ep = spec.add_endpoint(svc, "op", DEMAND, 1.0);
    spec.add_feature("op", svc, ep);
    spec.service_mut(svc).max_replicas = REPLICAS.max(16);
    spec
}

/// Simulated horizon per backend: the per-user DES at large N is the
/// thing being beaten, so it gets a horizon that keeps the measurement
/// honest but the run short; the aggregate backends run much longer.
fn horizon(mode: BackendMode, users: usize, smoke: bool) -> f64 {
    let (full, short) = match (mode, users) {
        (BackendMode::PerUser, 0..=10_000) => (600.0, 300.0),
        (BackendMode::PerUser, 10_001..=200_000) => (120.0, 30.0),
        (BackendMode::PerUser, _) => (30.0, 5.0),
        _ => (1800.0, 600.0),
    };
    if smoke {
        short
    } else {
        full
    }
}

/// Runs one backend × population point and measures it.
pub(super) fn run_point(mode: BackendMode, users: usize, smoke: bool, seed: u64) -> ScalePoint {
    let options = ClusterOptions::new().with_seed(seed).with_backend(mode);
    let spec = scale_spec(users);
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), users, THINK_TIME);
    let sim_seconds = horizon(mode, users, smoke);
    let started = Instant::now();
    let mut cluster = Cluster::new(&spec, workload, options).expect("scale cluster");
    // The hybrid point exercises a real handover: a (capacity-neutral)
    // scaling batch one third in forces the transient path, and the
    // hold-down expiry hands back to fluid.
    if mode == BackendMode::Hybrid {
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: REPLICAS,
                share: cluster.share(ServiceId(0)),
            }],
            sim_seconds / 3.0,
        );
    }
    let windows = 4usize;
    let mut requests = 0u64;
    let mut switches = 0u64;
    for _ in 0..windows {
        let r = cluster.run_window(sim_seconds / windows as f64);
        requests += r.feature_counts.iter().sum::<u64>();
        switches += r.backend_switches as u64;
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    ScalePoint {
        mode,
        users,
        sim_seconds,
        wall_seconds,
        requests,
        events: cluster.telemetry().total_events(),
        switches,
    }
}

/// Round trips a cross-rack fabric (0.1 ms uplinks, 0.5 ms
/// aggregation) prices over one simulated minute at N = 1000 on a
/// two-server chain — `api` on one server calls `backend` on the other
/// once per request. The smoke gate's check that the fabric is live.
fn fabric_transits(seed: u64) -> u64 {
    let mut spec = AppSpec::new();
    let a = spec.add_server("hub-a", 2, 1.0);
    let b = spec.add_server("hub-b", 2, 1.0);
    let api = spec.add_service("api", a, 1 << 14, 1, 1.0);
    let backend = spec.add_service("backend", b, 1 << 14, 1, 1.0);
    let op = spec.add_endpoint(api, "op", DEMAND / 2.0, 1.0);
    let work = spec.add_endpoint(backend, "work", DEMAND / 2.0, 1.0);
    spec.add_call(api, op, backend, work, 1.0);
    spec.add_feature("op", api, op);
    let topo = atom_cluster::TopologySpec::two_tier(
        vec![0, 1],
        atom_cluster::EdgeSpec::new(0.0001, 1.25e9),
        atom_cluster::EdgeSpec::new(0.0005, 1.25e10),
    );
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), 1_000, THINK_TIME);
    let options = ClusterOptions::new().with_seed(seed).with_topology(topo);
    let mut cluster = Cluster::new(&spec, workload, options).expect("fabric cluster");
    cluster.run_window(60.0);
    cluster.telemetry().net_transit_events
}

/// One multi-tenant wall-clock measurement: `tenants` full Sock Shop
/// deployments, phase-shifted workloads, one shared pool.
#[derive(Debug, Clone)]
pub(super) struct TenantPoint {
    /// Number of Sock Shop tenants sharing the pool.
    pub tenants: usize,
    /// Simulated horizon (seconds).
    pub sim_seconds: f64,
    /// Wall-clock cost including placement and construction (seconds).
    pub wall_seconds: f64,
    /// Client requests completed across all tenants.
    pub requests: u64,
}

impl TenantPoint {
    /// The headline multi-tenant metric: wall-clock seconds per
    /// simulated hour.
    pub(super) fn wall_s_per_sim_hour(&self) -> f64 {
        self.wall_seconds * 3600.0 / self.sim_seconds.max(1e-9)
    }
}

/// Runs `tenants` phase-shifted Sock Shop tenants on one ample pool
/// (12-core node per tenant) and measures the wall-clock cost of the
/// multi-tenant per-user simulation.
pub(super) fn run_tenant_point(tenants: usize, smoke: bool, seed: u64) -> TenantPoint {
    let shop = SockShop::default();
    let sim_seconds = if smoke { 600.0 } else { 3600.0 };
    let mut pool = NodePool::new();
    for i in 0..tenants {
        pool.add_node(format!("node-{i}"), 12, 1.0);
    }
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|ti| {
            TenantSpec::new(
                format!("tenant-{ti}"),
                shop.app_spec(),
                scenarios::contention_workload(ti, tenants, 300, 900, sim_seconds),
            )
        })
        .collect();
    let started = Instant::now();
    let mut mtc = MultiTenantCluster::new(&pool, &specs, ClusterOptions::new().with_seed(seed))
        .expect("the ample pool fits every tenant");
    let windows = 12usize;
    let mut requests = 0u64;
    for _ in 0..windows {
        let r = mtc.run_window(sim_seconds / windows as f64);
        requests += r.feature_counts.iter().sum::<u64>();
    }
    TenantPoint {
        tenants,
        sim_seconds,
        wall_seconds: started.elapsed().as_secs_f64(),
        requests,
    }
}

/// Exports the trajectory behind `--trace-out` / `--metrics-out`: one
/// journal note per measurement and labeled Prometheus gauges
/// (`scale_*{backend=...,users=...}`). A no-op when neither flag was
/// given — `scale` has no MAPE-K loop, so the journal carries notes,
/// not decision records.
pub(super) fn emit(opts: &HarnessOptions, points: &[ScalePoint], tenant_points: &[TenantPoint]) {
    use atom_obs::{with_labels, Journal, Record, Registry};
    if let Some(path) = &opts.trace_out {
        let mut journal = Journal::default();
        for p in points {
            journal.push(
                p.sim_seconds,
                Record::Note(format!(
                    "scale {} N={}: {} requests / {:.3}s wall ({:.0} req/wall-s, \
                     {} events, {} switches)",
                    p.mode_name(),
                    p.users,
                    p.requests,
                    p.wall_seconds,
                    p.req_per_wall_s(),
                    p.events,
                    p.switches
                )),
            );
        }
        for t in tenant_points {
            journal.push(
                t.sim_seconds,
                Record::Note(format!(
                    "scale {} tenants: {:.2}s wall per simulated hour ({} requests)",
                    t.tenants,
                    t.wall_s_per_sim_hour(),
                    t.requests
                )),
            );
        }
        crate::trace::write_artefact(path, &journal.to_jsonl());
        atom_obs::progress!("scale journal written to {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        let mut reg = Registry::new();
        for p in points {
            let users = p.users.to_string();
            let labels = [("backend", p.mode_name()), ("users", users.as_str())];
            reg.set_gauge(
                &with_labels("scale_req_per_wall_second", &labels),
                p.req_per_wall_s(),
            );
            reg.set_gauge(
                &with_labels("scale_events_per_wall_second", &labels),
                p.events_per_wall_s(),
            );
            reg.set_gauge(&with_labels("scale_wall_seconds", &labels), p.wall_seconds);
            reg.add(&with_labels("scale_requests_total", &labels), p.requests);
            reg.add(&with_labels("scale_events_total", &labels), p.events);
        }
        for t in tenant_points {
            let tenants = t.tenants.to_string();
            let labels = [("tenants", tenants.as_str())];
            reg.set_gauge(
                &with_labels("scale_tenant_wall_seconds_per_sim_hour", &labels),
                t.wall_s_per_sim_hour(),
            );
        }
        crate::trace::write_artefact(path, &reg.prometheus_text());
        atom_obs::progress!("scale metrics written to {}", path.display());
    }
}

fn speedup_vs_per_user(points: &[ScalePoint], p: &ScalePoint) -> Option<f64> {
    points
        .iter()
        .find(|q| q.users == p.users && q.mode == BackendMode::PerUser)
        .map(|base| p.req_per_wall_s() / base.req_per_wall_s().max(1e-9))
}

/// Re-parses the emitted CSV the way a consumer would: header plus one
/// numeric row per point. Returns the failures found.
fn reparse_csv(path: &std::path::Path, expected_rows: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read {}: {e}", path.display())],
    };
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let cols = header.split(',').count();
    if cols != 9 {
        failures.push(format!("expected 9 CSV columns, found {cols}"));
    }
    let mut rows = 0usize;
    for (i, line) in lines.enumerate() {
        rows += 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != cols {
            failures.push(format!("row {i}: {} fields, expected {cols}", fields.len()));
            continue;
        }
        // Every field after the backend name must parse as a number.
        for field in &fields[1..] {
            if field.parse::<f64>().is_err() {
                failures.push(format!("row {i}: non-numeric field `{field}`"));
            }
        }
    }
    if rows != expected_rows {
        failures.push(format!("expected {expected_rows} CSV rows, found {rows}"));
    }
    failures
}

/// Runs the backend × population trajectory up to `opts.users` and the
/// tenant points, prints them, writes `scale.csv` and exports the
/// telemetry. Returns the backend × population points.
fn trajectory(opts: &HarnessOptions, smoke: bool) -> Vec<ScalePoint> {
    atom_obs::info!("\n== scale: population-backend trajectory (per-user vs fluid vs hybrid) ==");
    let max_users = opts.users;
    // Smoke keeps CI fast: the full trio at the small population,
    // per-user + fluid at the top one (a hybrid run at 1e6 spends its
    // whole 120 s per-user hold simulating a million discrete users —
    // minutes of wall clock the gate doesn't need).
    let ladder: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    let mut populations: Vec<usize> = ladder.iter().copied().filter(|&n| n < max_users).collect();
    populations.push(max_users);
    let mut points = Vec::new();
    for &users in &populations {
        for mode in [
            BackendMode::PerUser,
            BackendMode::Fluid,
            BackendMode::Hybrid,
        ] {
            if smoke && mode == BackendMode::Hybrid && users > 1_000 {
                continue;
            }
            let p = run_point(mode, users, smoke, opts.seed);
            atom_obs::progress!(
                "scale: {} N={users}: {:.0} req/wall-s ({} requests / {:.2}s wall, {} switches)",
                p.mode_name(),
                p.req_per_wall_s(),
                p.requests,
                p.wall_seconds,
                p.switches
            );
            points.push(p);
        }
    }

    let mut table = Table::new(&[
        "backend",
        "users",
        "sim_s",
        "wall_s",
        "requests",
        "events",
        "req_per_wall_s",
        "events_per_wall_s",
        "switches",
    ]);
    for p in &points {
        table.row(vec![
            p.mode_name().to_string(),
            p.users.to_string(),
            f(p.sim_seconds, 0),
            f(p.wall_seconds, 3),
            p.requests.to_string(),
            p.events.to_string(),
            f(p.req_per_wall_s(), 1),
            f(p.events_per_wall_s(), 1),
            p.switches.to_string(),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir.join("scale.csv"));

    // The multi-tenant wall-clock points: 2 and 4 Sock Shop tenants
    // through the placement layer, reported as wall-time per simulated
    // hour.
    let mut tenant_points = Vec::new();
    for tenants in [2usize, 4] {
        let t = run_tenant_point(tenants, smoke, opts.seed);
        atom_obs::progress!(
            "scale: {} tenants: {:.2}s wall per simulated hour ({} requests / {:.2}s wall)",
            t.tenants,
            t.wall_s_per_sim_hour(),
            t.requests,
            t.wall_seconds
        );
        tenant_points.push(t);
    }
    emit(opts, &points, &tenant_points);

    for p in points.iter().filter(|p| p.mode != BackendMode::PerUser) {
        if let Some(s) = speedup_vs_per_user(&points, p) {
            atom_obs::info!(
                "scale: {} N={}: {:.0}x requests/wall-s vs per-user",
                p.mode_name(),
                p.users,
                s
            );
        }
    }
    points
}

/// `repro scale`: the full trajectory.
pub(super) fn run(opts: &HarnessOptions) {
    trajectory(opts, false);
}

/// The `--smoke` gate: the short trajectory, then the ratio and
/// functional checks of the [module docs](self).
pub(super) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let points = trajectory(opts, true);
    let mut failures = reparse_csv(&opts.out_dir.join("scale.csv"), points.len());
    let largest = opts.users;
    let fluid = points
        .iter()
        .find(|p| p.users == largest && p.mode == BackendMode::Fluid)
        .expect("fluid point at the top population");
    let hybrid = points
        .iter()
        .filter(|p| p.mode == BackendMode::Hybrid)
        .max_by_key(|p| p.users)
        .expect("a hybrid point");
    match speedup_vs_per_user(&points, fluid) {
        Some(s) if s < SMOKE_SPEEDUP_FLOOR => failures.push(format!(
            "fluid N={largest} speedup {s:.1}x below the {SMOKE_SPEEDUP_FLOOR}x floor"
        )),
        None => failures.push("no per-user baseline point for the speedup gate".into()),
        _ => {}
    }
    if hybrid.switches < 2 {
        failures.push(format!(
            "hybrid N={} performed {} backend switches, expected the \
             round trip (fluid -> per-user -> fluid)",
            hybrid.users, hybrid.switches
        ));
    }
    if fabric_transits(opts.seed) == 0 {
        failures.push("the cross-rack fabric priced no transit".into());
    }
    failures
}
