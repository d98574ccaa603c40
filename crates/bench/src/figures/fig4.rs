//! Fig. 4 — service-demand estimation on a microservice (§III-B):
//! utilisation-law regression vs response-time (arrival theorem)
//! regression, both aimed at the cart database's query demand (a
//! leaf endpoint, so both methods estimate the same quantity).

use atom_cluster::{Cluster, ClusterOptions, EndpointId};
use atom_core::workload::{RequestMix, WorkloadSpec};
use atom_estimation::{ResponseTimeEstimator, UtilizationLawEstimator};
use atom_sockshop::SockShop;

use crate::output::{f, pct_err, Table};
use crate::HarnessOptions;

/// The estimates produced by both techniques.
#[derive(Debug, Clone)]
pub(super) struct Fig4Result {
    /// True mean demand at the probed station (CPU-seconds at its host's
    /// speed: what an ideal estimator should report).
    pub true_demand: f64,
    /// Utilisation-law estimate and its input correlation / R².
    pub util_estimate: f64,
    /// Pearson correlation between utilisation and throughput samples.
    pub util_correlation: f64,
    /// Spread (CV) of the throughput regressor.
    pub util_input_cv: f64,
    /// Response-time estimate.
    pub rt_estimate: f64,
    /// Pearson correlation between queue-at-arrival and response time.
    pub rt_correlation: f64,
    /// Spread (CV) of the `(1+A)` regressor.
    pub rt_input_cv: f64,
    /// Number of windows / request samples used.
    pub windows: usize,
    /// Request samples collected by the probe.
    pub samples: usize,
}

/// Runs the estimation experiment.
pub(super) fn compute(opts: &HarnessOptions) -> Fig4Result {
    let shop = SockShop::default();
    let spec = shop.validation_app_spec(false);
    let carts_db = spec.service_by_name("carts-db").expect("service");
    // Steady workload pattern 1 at N = 2000 (the paper samples the
    // running system, whose throughput barely varies between windows).
    let workload = WorkloadSpec::constant(
        RequestMix::new(vec![0.57, 0.29, 0.14]).expect("mix"),
        2000,
        7.0,
    );
    let mut cluster = Cluster::new(
        &spec,
        workload,
        ClusterOptions::new()
            .with_seed(opts.seed)
            // Real per-window CPU counters carry sampling error; this is
            // what defeats the utilisation-law regression in Fig. 4a.
            .with_monitor_noise(0.08),
    )
    .expect("cluster");
    cluster.set_probe(carts_db, EndpointId(0));
    cluster.run_window(300.0); // warm-up
    let _ = cluster.take_probe_samples();

    let windows = if opts.quick { 15 } else { 40 };
    let mut util_est = UtilizationLawEstimator::new(1);
    for _ in 0..windows {
        let report = cluster.run_window(60.0);
        util_est
            .push(
                report.service_busy_cores[carts_db.0],
                &[report.endpoint_tps[carts_db.0][0]],
            )
            .expect("sample");
    }
    let samples = cluster.take_probe_samples();
    let mut rt_est = ResponseTimeEstimator::new();
    rt_est.extend_from(&samples).expect("probe samples");

    // True demand at the db's host speed (server 2 runs at 0.8).
    let true_demand = shop.d_carts_db / 0.8;
    let util_fit = util_est.estimate().expect("utilisation fit");
    let rt_fit = rt_est.estimate().expect("response-time fit");
    Fig4Result {
        true_demand,
        util_estimate: util_fit.demands[0],
        util_correlation: util_est.input_correlation(),
        util_input_cv: util_est.input_cv(),
        rt_estimate: rt_fit.demands[0],
        rt_correlation: rt_est.input_correlation(),
        rt_input_cv: rt_est.input_cv(),
        windows,
        samples: samples.len(),
    }
}

/// Prints Fig. 4 and writes `fig4.csv`.
pub(super) fn run(opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 4: demand estimation for the carts-db query ==");
    let r = compute(opts);
    let mut table = Table::new(&[
        "method",
        "estimate [ms]",
        "true [ms]",
        "% error",
        "input corr",
        "input CV",
        "samples",
    ]);
    table.row(vec![
        "utilisation law (Fig 4a)".into(),
        f(r.util_estimate * 1e3, 3),
        f(r.true_demand * 1e3, 3),
        f(pct_err(r.util_estimate, r.true_demand), 1),
        f(r.util_correlation, 3),
        f(r.util_input_cv, 3),
        r.windows.to_string(),
    ]);
    table.row(vec![
        "response time (Fig 4b)".into(),
        f(r.rt_estimate * 1e3, 3),
        f(r.true_demand * 1e3, 3),
        f(pct_err(r.rt_estimate, r.true_demand), 1),
        f(r.rt_correlation, 3),
        f(r.rt_input_cv, 3),
        r.samples.to_string(),
    ]);
    table.print();
    atom_obs::info!(
        "shape check (paper §III-B): the utilisation-law regressor barely \
         varies (CV {:.3}) while per-request queue lengths vary widely \
         (CV {:.3}), which is why the response-time method is the \
         well-posed one for microservices",
        r.util_input_cv,
        r.rt_input_cv
    );
    table.write_csv(&opts.out_dir.join("fig4.csv"));
}
