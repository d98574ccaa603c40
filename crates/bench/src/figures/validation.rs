//! §III-C model validation: Table III (percent errors over the Table II
//! sweep), Fig. 5 (per-server utilisation), and Table IV (per-feature
//! detail at workload 1, N = 3000).

use std::sync::OnceLock;

use atom_cluster::{Cluster, ClusterOptions, WindowReport};
use atom_core::workload::{RequestMix, WorkloadSpec};
use atom_lqn::analytic::{solve, SolverOptions};
use atom_lqn::{LqnModel, LqnSolution, TaskId};
use atom_sockshop::{scenarios, SockShop};

use crate::output::{f, pct_err, Table};
use crate::HarnessOptions;

/// One validation run: the analytic solution and the measured window.
#[derive(Debug, Clone)]
pub(super) struct ValidationRun {
    /// The workload that was run.
    pub workload: scenarios::ValidationWorkload,
    /// Analytic model solution.
    pub model: LqnSolution,
    /// The LQN that was solved (for id lookups).
    pub lqn: LqnModel,
    /// Measured window from the cluster.
    pub measured: WindowReport,
}

/// Executes one Table II workload on both paths.
pub(super) fn run_workload(
    shop: &SockShop,
    w: &scenarios::ValidationWorkload,
    opts: &HarnessOptions,
) -> ValidationRun {
    let lqn = shop.validation_lqn_with(w.users, w.think_time, &w.mix, w.single_host);
    let model = solve(&lqn, SolverOptions::default()).expect("model solve");
    let spec = shop.validation_app_spec(w.single_host);
    let workload = WorkloadSpec::constant(
        RequestMix::new(w.mix.to_vec()).expect("mix"),
        w.users,
        w.think_time,
    );
    let mut cluster = Cluster::new(
        &spec,
        workload,
        ClusterOptions::new().with_seed(opts.seed ^ (w.pattern as u64) << 8 ^ w.users as u64),
    )
    .expect("cluster");
    cluster.run_window(if opts.quick { 120.0 } else { 300.0 });
    let measured = cluster.run_window(if opts.quick { 400.0 } else { 1200.0 });
    ValidationRun {
        workload: w.clone(),
        model,
        lqn,
        measured,
    }
}

/// Per-service model-vs-measured TPS and utilisation for one run. The
/// LQN is derived from the spec, so its server tasks are the spec's
/// services in the same order.
fn service_rows(run: &ValidationRun) -> Vec<(String, f64, f64, f64, f64)> {
    // (name, model_tps, measured_tps, model_util, measured_util)
    run.lqn
        .tasks()
        .iter()
        .enumerate()
        .filter(|(_, task)| !task.is_reference())
        .map(|(si, task)| {
            let model_tps: f64 = task
                .entries
                .iter()
                .map(|&e| run.model.entry_throughput(e))
                .sum();
            let measured_tps: f64 = run.measured.endpoint_tps[si].iter().sum();
            (
                task.name.clone(),
                model_tps,
                measured_tps,
                run.model.task_utilization(TaskId(si)),
                run.measured.service_utilization[si],
            )
        })
        .collect()
}

/// Runs the whole Table II sweep once (12 runs).
pub(super) fn sweep(opts: &HarnessOptions) -> Vec<ValidationRun> {
    let shop = SockShop::default();
    scenarios::validation_workloads()
        .iter()
        .map(|w| {
            atom_obs::progress!(
                "  validation pattern {} N={} ({})",
                w.pattern,
                w.users,
                if w.single_host {
                    "single host"
                } else {
                    "swarm"
                }
            );
            run_workload(&shop, w, opts)
        })
        .collect()
}

/// [`sweep`], run once per process (which runs under one set of
/// options): `table3`, `fig5` and `table4` read the same twelve runs.
pub(super) fn shared_sweep(opts: &HarnessOptions) -> &'static [ValidationRun] {
    static SWEEP: OnceLock<Vec<ValidationRun>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        atom_obs::progress!("running the Table II validation sweep (12 runs)...");
        sweep(opts)
    })
}

/// Table III: min/max/avg percent error per service across the sweep.
pub(super) fn table3(runs: &[ValidationRun], opts: &HarnessOptions) {
    atom_obs::info!("\n== Table III: % error between model and measurement ==");
    let mut table = Table::new(&[
        "service",
        "TPS err min",
        "TPS err max",
        "TPS err avg",
        "Util err min",
        "Util err max",
        "Util err avg",
    ]);
    let rows: Vec<_> = runs.iter().map(service_rows).collect();
    for (si, (name, ..)) in rows[0].iter().enumerate() {
        let mut tps_errors = Vec::new();
        let mut util_errors = Vec::new();
        for run in &rows {
            let (_, m_tps, s_tps, m_u, s_u) = &run[si];
            tps_errors.push(pct_err(*m_tps, *s_tps));
            util_errors.push(pct_err(*m_u, *s_u));
        }
        let stats = |v: &[f64]| {
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = v.iter().cloned().fold(0.0, f64::max);
            let avg = v.iter().sum::<f64>() / v.len() as f64;
            (min, max, avg)
        };
        let (tmin, tmax, tavg) = stats(&tps_errors);
        let (umin, umax, uavg) = stats(&util_errors);
        table.row(vec![
            name.to_string(),
            f(tmin, 2),
            f(tmax, 2),
            f(tavg, 2),
            f(umin, 2),
            f(umax, 2),
            f(uavg, 2),
        ]);
    }
    table.print();
    atom_obs::info!("paper: all average errors below 5.05%, max error 9.98%");
    table.write_csv(&opts.out_dir.join("table3.csv"));
}

/// Fig. 5: per-server utilisation, model vs measurement, for the swarm
/// placements (patterns 1 and 3).
pub(super) fn fig5(runs: &[ValidationRun], opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 5: server utilisation, model vs measurement ==");
    let mut table = Table::new(&[
        "pattern",
        "users",
        "server",
        "model util",
        "measured util",
        "% error",
    ]);
    for run in runs.iter().filter(|r| !r.workload.single_host) {
        for (pi, server) in ["server-1", "server-2"].iter().enumerate() {
            let model = run.model.processor_utilization[pi];
            let measured = run.measured.server_utilization[pi];
            table.row(vec![
                run.workload.pattern.to_string(),
                run.workload.users.to_string(),
                server.to_string(),
                f(model, 3),
                f(measured, 3),
                f(pct_err(model, measured), 2),
            ]);
        }
    }
    table.print();
    table.write_csv(&opts.out_dir.join("fig5.csv"));
}

/// Paper Table IV reference values: (label, model TPS, measured TPS).
const PAPER_TPS: [(&str, f64, f64); 10] = [
    ("front-end/home", 236.3, 221.3),
    ("front-end/catalogue", 120.2, 110.9),
    ("front-end/carts", 58.0, 55.6),
    ("carts/get", 19.1, 18.5),
    ("carts/add", 19.1, 18.5),
    ("carts/delete", 19.7, 18.5),
    ("catalogue/list", 60.2, 55.5),
    ("catalogue/item", 60.1, 55.5),
    ("catalogue-db/query", 120.2, 110.9),
    ("carts-db/query", 58.1, 55.6),
];

/// Paper Table IV utilisations: (service, model %, measured %).
const PAPER_UTIL: [(&str, f64, f64); 5] = [
    ("front-end", 75.2, 65.9),
    ("carts", 16.0, 14.2),
    ("catalogue", 19.2, 15.4),
    ("catalogue-db", 12.0, 12.6),
    ("carts-db", 48.2, 44.3),
];

/// Table IV: per-endpoint TPS and per-service utilisation at workload 1,
/// N = 3000.
pub(super) fn table4(runs: &[ValidationRun], opts: &HarnessOptions) {
    atom_obs::info!("\n== Table IV: workload 1, N = 3000 ==");
    let run = runs
        .iter()
        .find(|r| r.workload.pattern == 1 && r.workload.users == 3000)
        .expect("pattern 1 / 3000 present in sweep");

    let mut table = Table::new(&[
        "endpoint",
        "model TPS",
        "measured TPS",
        "% err",
        "paper model",
        "paper measured",
    ]);
    let spec = SockShop::default().validation_app_spec(run.workload.single_host);
    let endpoints = spec.services.iter().enumerate().flat_map(|(si, svc)| {
        let rows = svc.endpoints.iter().enumerate();
        rows.map(move |(ei, ep)| (si, ei, &svc.name, &ep.name))
    });
    for ((si, ei, service, endpoint), (label, paper_model, paper_measured)) in
        endpoints.zip(PAPER_TPS)
    {
        assert_eq!(
            label,
            format!("{service}/{endpoint}"),
            "paper rows follow the spec"
        );
        let entry = run
            .lqn
            .entry_by_name(&format!("{service}.{endpoint}"))
            .expect("derived entry");
        let model = run.model.entry_throughput(entry);
        let measured = run.measured.endpoint_tps[si][ei];
        table.row(vec![
            label.to_string(),
            f(model, 1),
            f(measured, 1),
            f(pct_err(model, measured), 1),
            f(paper_model, 1),
            f(paper_measured, 1),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir.join("table4_tps.csv"));

    let mut util = Table::new(&[
        "service",
        "model util%",
        "measured util%",
        "% err",
        "paper model",
        "paper measured",
    ]);
    for ((si, svc), (name, paper_model, paper_measured)) in
        spec.services.iter().enumerate().zip(PAPER_UTIL)
    {
        assert_eq!(name, svc.name, "paper rows follow the spec");
        let task = run.lqn.task_by_name(name).expect("derived task");
        let model = 100.0 * run.model.task_utilization(task);
        let measured = 100.0 * run.measured.service_utilization[si];
        util.row(vec![
            name.to_string(),
            f(model, 1),
            f(measured, 1),
            f(pct_err(model, measured), 1),
            f(paper_model, 1),
            f(paper_measured, 1),
        ]);
    }
    util.print();
    util.write_csv(&opts.out_dir.join("table4_util.csv"));
}
