//! Model validation (paper §III-C): solve the Sock Shop LQN analytically
//! and compare against the discrete-event "measurement" — the
//! reproduction of Table IV.
//!
//! Run with `cargo run --release --example model_validation`.

use atom::cluster::{Cluster, ClusterOptions};
use atom::lqn::analytic::{solve, SolverOptions};
use atom::sockshop::SockShop;
use atom::workload::{RequestMix, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shop = SockShop::default();
    let users = 3000;
    let think = 7.0;
    let mix = [0.57, 0.29, 0.14]; // Table II workload pattern 1

    // Model: the analytic LQN solve.
    let model = shop.validation_lqn(users, think, &mix);
    let analytic = solve(&model, SolverOptions::default())?;

    // Measurement: the simulated testbed.
    let spec = shop.validation_app_spec(false);
    let workload = WorkloadSpec::constant(RequestMix::new(mix.to_vec())?, users, think);
    let mut cluster = Cluster::new(&spec, workload, ClusterOptions::default())?;
    cluster.run_window(300.0); // warm-up
    let measured = cluster.run_window(1200.0);

    println!("metric                     model   measured   % error");
    let row = |name: &str, model: f64, meas: f64| {
        let err = if meas.abs() > 1e-9 {
            100.0 * (model - meas).abs() / meas
        } else {
            0.0
        };
        println!("{name:<24} {model:>8.1} {meas:>10.1} {err:>8.1}");
    };

    row("total TPS", analytic.total_throughput(), measured.total_tps);
    // The model is derived from the spec: entries are `service.endpoint`,
    // server tasks are the spec's services in the same order.
    for (f, feature) in spec.features.iter().enumerate() {
        let service = &spec.services[feature.service.0];
        let endpoint = &service.endpoints[feature.endpoint.0];
        let entry = model
            .entry_by_name(&format!("{}.{}", service.name, endpoint.name))
            .expect("feature entry");
        row(
            &format!("TPS {}", feature.name),
            analytic.entry_throughput(entry),
            measured.feature_tps[f],
        );
    }
    for (si, service) in spec.services.iter().enumerate() {
        let task = model.task_by_name(&service.name).expect("task");
        row(
            &format!("util% {}", service.name),
            100.0 * analytic.task_utilization(task),
            100.0 * measured.service_utilization[si],
        );
    }
    Ok(())
}
