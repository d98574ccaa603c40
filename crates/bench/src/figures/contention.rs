//! `repro contention` — beyond the paper: 2–4 Sock Shop tenants with
//! phase-shifted workloads contending for one fixed node pool.
//!
//! Each tenant is a full Sock Shop deployment with its own autoscaler
//! (alternating UH / UV down the tenant list), placed onto the shared
//! pool by `atom-placement`'s first-fit-decreasing scheduler. Every
//! scale-up passes admission control: on the *ample* pools requests are
//! admitted, on the *tight* ("exhaustion") pools they queue and — once a
//! tenant's queue bound is hit or a target outgrows its node — are
//! rejected with a typed reason.
//!
//! Reported per tenant: SLO-violation-seconds (under-provisioned time of
//! the stateless services against the offered load, the paper's `T_u`
//! restricted to the tenant), granted core-seconds, and the admission
//! ledger (requests / admitted / queued / rejected / drained). Per
//! scenario: the Jain fairness index over granted capacity.
//!
//! The scenario matrix fans out across `ATOM_EVAL_WORKERS` threads
//! ([`fan_out`]): every cell is self-contained, so the CSV is bitwise
//! identical for any worker count.

use atom_core::{Autoscaler, UhScaler, UvScaler};
use atom_metrics::jain_fairness_index;
use atom_placement::{
    run_multi_tenant, AdmissionVerdict, MultiTenantCluster, NodePool, TenantSpec,
};
use atom_sockshop::{scenarios, SockShop};

use crate::figures::fan_out;
use crate::output::{f, Table};
use crate::HarnessOptions;

use atom_cluster::ClusterOptions;

/// Pool sizing of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PoolKind {
    /// Enough nodes that staggered peaks mostly fit.
    Ample,
    /// The exhaustion case: scale-ups queue and get rejected.
    Tight,
}

impl PoolKind {
    fn name(self) -> &'static str {
        match self {
            PoolKind::Ample => "ample",
            PoolKind::Tight => "tight",
        }
    }
}

/// One cell of the contention matrix.
#[derive(Debug, Clone, Copy)]
pub(super) struct Scenario {
    /// Number of Sock Shop tenants sharing the pool.
    pub tenants: usize,
    /// Pool sizing.
    pub pool: PoolKind,
}

impl Scenario {
    fn name(&self) -> String {
        format!("{}x-{}", self.tenants, self.pool.name())
    }

    /// The shared pool: one node per tenant either way. `Ample` nodes
    /// have 12 cores, so even after first-fit-decreasing consolidates
    /// the initial deployments onto the first nodes there is headroom
    /// for scaled-up peaks; `Tight` nodes have 4 cores — enough for
    /// every initial deployment, not for the peaks.
    fn pool_spec(&self) -> NodePool {
        let cores = match self.pool {
            PoolKind::Ample => 12,
            PoolKind::Tight => 4,
        };
        let mut pool = NodePool::new();
        for i in 0..self.tenants {
            pool.add_node(format!("node-{i}"), cores, 1.0);
        }
        pool
    }

    /// Tight pools also bound each tenant's admission queue hard, so
    /// exhaustion turns into *rejections*, not silent parking.
    fn queue_limit(&self) -> usize {
        match self.pool {
            PoolKind::Ample => atom_placement::AdmissionController::DEFAULT_QUEUE_LIMIT,
            PoolKind::Tight => 1,
        }
    }
}

/// The full matrix: {2, 4} tenants × {ample, tight} pools.
pub(super) fn matrix() -> Vec<Scenario> {
    let mut cells = Vec::new();
    for &tenants in &[2usize, 4] {
        for &pool in &[PoolKind::Ample, PoolKind::Tight] {
            cells.push(Scenario { tenants, pool });
        }
    }
    cells
}

/// One tenant's outcome in one scenario.
#[derive(Debug, Clone)]
pub(super) struct TenantOutcome {
    /// Tenant name.
    pub tenant: String,
    /// Its controller.
    pub scaler: String,
    /// Seconds a stateless service of this tenant was under-provisioned
    /// against its offered load.
    pub slo_violation_s: f64,
    /// Core-seconds actually granted to the tenant.
    pub granted_core_s: f64,
    /// Admission ledger for this tenant.
    pub stats: atom_placement::AdmissionStats,
    /// Rejections observed on this tenant's own verdicts (must agree
    /// with `stats.rejected`).
    pub rejected_seen: u64,
    /// Per-window decision records the tenant's controller journaled
    /// (`None` entries for windows without one).
    pub decisions: Vec<Option<atom_obs::DecisionRecord>>,
}

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub(super) struct ScenarioOutcome {
    /// The scenario.
    pub scenario: Scenario,
    /// Total pool capacity (cores).
    pub pool_cores: f64,
    /// Jain fairness index over granted core-seconds.
    pub jain: f64,
    /// Per-tenant rows.
    pub tenants: Vec<TenantOutcome>,
    /// Worst `committed − capacity` over nodes at the end (≤ 0 when the
    /// ledger never over-committed).
    pub worst_overcommit: f64,
}

fn populations(opts: &HarnessOptions) -> (usize, usize) {
    if opts.quick {
        (200, 1200)
    } else {
        (400, 2000)
    }
}

/// Runs one scenario cell: place the tenants, drive one autoscaler per
/// tenant through admission, and fold the per-tenant reports into the
/// contention metrics.
pub(super) fn run_scenario(scenario: &Scenario, opts: &HarnessOptions) -> ScenarioOutcome {
    let shop = SockShop::default();
    let (n_windows, window_secs) = opts.protocol(4);
    let (baseline, peak) = populations(opts);
    let run_secs = n_windows as f64 * window_secs;

    // Tenant i: UH on even, UV on odd (UH gets the paper's
    // stateful-full-core deployment, as everywhere else in the harness).
    let mut tenants = Vec::with_capacity(scenario.tenants);
    let mut scalers: Vec<Box<dyn Autoscaler>> = Vec::with_capacity(scenario.tenants);
    for ti in 0..scenario.tenants {
        let uses_uh = ti % 2 == 0;
        let app = if uses_uh {
            shop.app_spec_stateful_full_core()
        } else {
            shop.app_spec()
        };
        let workload =
            scenarios::contention_workload(ti, scenario.tenants, baseline, peak, run_secs);
        scalers.push(if uses_uh {
            Box::new(UhScaler::new(&app))
        } else {
            Box::new(UvScaler::new(&app))
        });
        tenants.push(TenantSpec::new(format!("tenant-{ti}"), app, workload));
    }

    let pool = scenario.pool_spec();
    let pool_cores = pool.capacity_cores();
    let mut mtc =
        MultiTenantCluster::new(&pool, &tenants, ClusterOptions::new().with_seed(opts.seed))
            .expect("every initial deployment fits its pool")
            .with_queue_limit(scenario.queue_limit());

    let runs = run_multi_tenant(&mut mtc, &mut scalers, n_windows, window_secs);

    let mut outcomes = Vec::with_capacity(runs.len());
    for (ti, (result, verdicts)) in runs.into_iter().enumerate() {
        let app = &tenants[ti].app;
        let think = tenants[ti].workload.think_time;
        let mix = tenants[ti].workload.mix.fractions();
        let (mut slo, mut granted) = (0.0f64, 0.0f64);
        for report in &result.reports {
            let dur = report.end - report.start;
            let offered = report.avg_users / think;
            let required = app.required_cores(mix, offered);
            let violated = crate::eval::STATELESS
                .iter()
                .any(|&si| report.service_alloc_cores[si] + 1e-9 < required[si]);
            if violated {
                slo += dur;
            }
            granted += report.service_alloc_cores.iter().sum::<f64>() * dur;
        }
        let rejected_seen = verdicts
            .iter()
            .filter(|v| matches!(v, AdmissionVerdict::Rejected { .. }))
            .count() as u64;
        outcomes.push(TenantOutcome {
            tenant: tenants[ti].name.clone(),
            scaler: result.scaler,
            slo_violation_s: slo,
            granted_core_s: granted,
            stats: mtc.admission_stats()[ti],
            rejected_seen,
            decisions: result.telemetry.decisions,
        });
    }

    let granted: Vec<f64> = outcomes.iter().map(|t| t.granted_core_s).collect();
    let worst_overcommit = (0..pool.len())
        .map(|n| mtc.committed_cores(n) - pool.servers[n].cores as f64)
        .fold(f64::NEG_INFINITY, f64::max);
    ScenarioOutcome {
        scenario: *scenario,
        pool_cores,
        jain: jain_fairness_index(&granted),
        tenants: outcomes,
        worst_overcommit,
    }
}

/// Runs the whole matrix through [`fan_out`], in matrix order.
pub(super) fn run_matrix(opts: &HarnessOptions) -> Vec<ScenarioOutcome> {
    fan_out(&matrix(), |cell| {
        atom_obs::progress!("  contention: {}", cell.name());
        run_scenario(cell, opts)
    })
}

/// Renders the matrix as a table and writes `contention.csv`.
pub(super) fn report(outcomes: &[ScenarioOutcome], opts: &HarnessOptions) {
    let mut table = Table::new(&[
        "scenario",
        "pool",
        "tenant",
        "scaler",
        "SLO-viol (s)",
        "granted (core-s)",
        "req",
        "admit",
        "queue",
        "reject",
        "jain",
    ]);
    for o in outcomes {
        for t in &o.tenants {
            table.row(vec![
                o.scenario.name(),
                format!("{} cores", f(o.pool_cores, 0)),
                t.tenant.clone(),
                t.scaler.clone(),
                f(t.slo_violation_s, 0),
                f(t.granted_core_s, 0),
                t.stats.requests.to_string(),
                t.stats.admitted.to_string(),
                t.stats.queued.to_string(),
                t.stats.rejected.to_string(),
                f(o.jain, 4),
            ]);
        }
    }
    table.print();
    table.write_csv(&opts.out_dir.join("contention.csv"));
}

/// Exports the matrix telemetry behind `--trace-out` / `--metrics-out`:
/// every tenant-controller decision record as a JSONL journal, and the
/// admission/fairness accounting as labeled Prometheus series
/// (`contention_*{scenario=...,tenant=...}`). A no-op when neither flag
/// was given.
pub(super) fn emit(opts: &HarnessOptions, outcomes: &[ScenarioOutcome]) {
    use atom_obs::{with_labels, Journal, Record, Registry};
    if let Some(path) = &opts.trace_out {
        let mut journal = Journal::default();
        for o in outcomes {
            for t in &o.tenants {
                for d in t.decisions.iter().flatten() {
                    journal.push(d.time, Record::Decision(d.clone()));
                }
                journal.push(
                    0.0,
                    Record::Note(format!(
                        "contention {} {} ({}): {} requests, {} admitted, {} queued, \
                         {} rejected, {:.0} granted core-s, {:.0}s SLO violation",
                        o.scenario.name(),
                        t.tenant,
                        t.scaler,
                        t.stats.requests,
                        t.stats.admitted,
                        t.stats.queued,
                        t.stats.rejected,
                        t.granted_core_s,
                        t.slo_violation_s
                    )),
                );
            }
        }
        crate::trace::write_artefact(path, &journal.to_jsonl());
        atom_obs::progress!("contention journal written to {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        let mut reg = Registry::new();
        for o in outcomes {
            let scenario = o.scenario.name();
            reg.set_gauge(
                &with_labels(
                    "contention_jain_fairness",
                    &[("scenario", scenario.as_str())],
                ),
                o.jain,
            );
            for t in &o.tenants {
                let labels = [
                    ("scenario", scenario.as_str()),
                    ("tenant", t.tenant.as_str()),
                ];
                reg.add(
                    &with_labels("contention_admitted_total", &labels),
                    t.stats.admitted,
                );
                reg.add(
                    &with_labels("contention_queued_total", &labels),
                    t.stats.queued,
                );
                reg.add(
                    &with_labels("contention_rejected_total", &labels),
                    t.stats.rejected,
                );
                reg.set_gauge(
                    &with_labels("contention_granted_core_seconds", &labels),
                    t.granted_core_s,
                );
                reg.set_gauge(
                    &with_labels("contention_slo_violation_seconds", &labels),
                    t.slo_violation_s,
                );
            }
        }
        crate::trace::write_artefact(path, &reg.prometheus_text());
        atom_obs::progress!("contention metrics written to {}", path.display());
    }
}

/// `repro contention`: run the matrix and emit the artefacts.
pub(super) fn run(opts: &HarnessOptions) -> Vec<ScenarioOutcome> {
    atom_obs::progress!(
        "running the contention matrix ({} scenarios)...",
        matrix().len()
    );
    let outcomes = run_matrix(opts);
    report(&outcomes, opts);
    emit(opts, &outcomes);
    outcomes
}

/// The `--smoke` gate. Quick matrix, then require that (1) every
/// scenario completed with a sane fairness index,
/// (2) per-tenant admission accounting reconciles (`requests ==
/// admitted + queued + rejected`, verdicts agree with the ledger),
/// (3) the ledger never over-committed a node, and (4) the exhaustion
/// scenarios produced at least one rejection.
pub(super) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let outcomes = run(opts);
    let mut failures: Vec<String> = Vec::new();
    let mut tight_rejections = 0u64;
    for o in &outcomes {
        let name = o.scenario.name();
        if !(o.jain > 0.0 && o.jain <= 1.0 + 1e-9) {
            failures.push(format!("{name}: Jain index {} outside (0, 1]", o.jain));
        }
        if o.worst_overcommit > 1e-9 {
            failures.push(format!(
                "{name}: admission over-committed a node by {:.3} cores",
                o.worst_overcommit
            ));
        }
        for t in &o.tenants {
            let s = t.stats;
            if s.requests != s.admitted + s.queued + s.rejected {
                failures.push(format!(
                    "{name}/{}: ledger does not reconcile ({} != {} + {} + {})",
                    t.tenant, s.requests, s.admitted, s.queued, s.rejected
                ));
            }
            if s.rejected != t.rejected_seen {
                failures.push(format!(
                    "{name}/{}: {} rejections in the ledger, {} in the verdicts",
                    t.tenant, s.rejected, t.rejected_seen
                ));
            }
            if o.scenario.pool == PoolKind::Tight {
                tight_rejections += s.rejected;
            }
        }
    }
    if tight_rejections == 0 {
        failures.push("no admission rejection in any exhaustion scenario".into());
    }
    atom_obs::info!(
        "contention: {} scenarios, {tight_rejections} rejections under exhaustion",
        outcomes.len()
    );
    failures
}
