//! Demand estimation walkthrough (paper §III-B / Fig. 4): estimate a
//! microservice's CPU demand from runtime observations with both
//! techniques and see why the response-time method is the right one for
//! microservices.
//!
//! Run with `cargo run --release --example demand_estimation`.

use atom::cluster::{Cluster, ClusterOptions, EndpointId};
use atom::estimation::{ResponseTimeEstimator, UtilizationLawEstimator};
use atom::sockshop::SockShop;
use atom::workload::{RequestMix, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shop = SockShop::default();
    let spec = shop.validation_app_spec(false);
    let carts_db = spec.service_by_name("carts-db").expect("service exists");
    let true_demand_ms = shop.d_carts_db / 0.8 * 1e3; // at its host's speed

    let workload = WorkloadSpec::constant(RequestMix::new(vec![0.57, 0.29, 0.14])?, 2000, 7.0);
    let mut cluster = Cluster::new(
        &spec,
        workload,
        ClusterOptions::new().with_seed(7).with_monitor_noise(0.08), // real CPU counters are noisy
    )?;
    cluster.set_probe(carts_db, EndpointId(0));
    cluster.run_window(300.0); // warm-up
    let _ = cluster.take_probe_samples();

    // Technique 1: utilisation-law regression over monitoring windows.
    let mut util_est = UtilizationLawEstimator::new(1);
    for _ in 0..30 {
        let report = cluster.run_window(60.0);
        util_est.push(
            report.service_busy_cores[carts_db.0],
            &[report.endpoint_tps[carts_db.0][0]],
        )?;
    }
    // Technique 2: per-request response time vs queue seen at arrival.
    let mut rt_est = ResponseTimeEstimator::new();
    rt_est.extend_from(&cluster.take_probe_samples())?;

    let util_fit = util_est.estimate()?;
    let rt_fit = rt_est.estimate()?;
    println!("true carts-db query demand: {true_demand_ms:.2} ms\n");
    println!(
        "utilisation law : {:.2} ms  (input correlation {:+.2}, regressor CV {:.3}, {} windows)",
        util_fit.demands[0] * 1e3,
        util_est.input_correlation(),
        util_est.input_cv(),
        util_fit.samples
    );
    println!(
        "response time   : {:.2} ms  (input correlation {:+.2}, regressor CV {:.3}, {} requests)",
        rt_fit.demands[0] * 1e3,
        rt_est.input_correlation(),
        rt_est.input_cv(),
        rt_fit.samples
    );
    println!(
        "robust (median) : {:.2} ms",
        rt_est.estimate_robust()? * 1e3
    );
    println!(
        "\nThe utilisation-law regressor (windowed throughput) spans a {:.1}% band — too\n\
         flat to regress on reliably in production, which is the paper's Fig. 4 argument\n\
         for the arrival-theorem method whose regressor spans queue lengths 0..10+.",
        100.0 * util_est.input_cv()
    );
    Ok(())
}
