//! Quickstart: deploy the Sock Shop, let ATOM manage it through a
//! workload surge, and watch the MAPE-K loop act.
//!
//! Run with `cargo run --release --example quickstart`.

use atom::core::{run_experiment, Atom, AtomConfig, ExperimentConfig};
use atom::sockshop::{scenarios, SockShop};
use atom_cluster::ClusterOptions;
use atom_ga::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shop = SockShop::default();
    let spec = shop.app_spec();

    // Workload: the paper's ordering mix ramping 500 -> 2000 users over
    // 25 minutes (Table VI protocol).
    let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000);

    // The ATOM controller: LQN knowledge base + objective (eq. 1-5).
    let binding = shop.binding(
        scenarios::INITIAL_USERS,
        scenarios::THINK_TIME,
        workload.mix.fractions(),
    );
    let mut config = AtomConfig::new(shop.objective());
    config.ga.budget = Budget::Evaluations(400);
    let mut atom = Atom::new(binding, config);

    println!("window  users   TPS    actions");
    let result = run_experiment(
        &spec,
        workload,
        &mut atom,
        ExperimentConfig {
            windows: 8,
            window_secs: scenarios::WINDOW_SECS,
            cluster: ClusterOptions::default(),
        },
    )?;

    for (i, report) in result.reports.iter().enumerate() {
        let acts: Vec<String> = result
            .window_actions(i)
            .map(|a| {
                let service = &spec.services[a.service.0].name;
                format!(
                    "{}: {service} -> {} x {:.2}",
                    result.scaler, a.replicas, a.share
                )
            })
            .collect();
        println!(
            "{:>6}  {:>5}  {:>6.1}  {}",
            i + 1,
            report.users_at_end,
            report.total_tps,
            if acts.is_empty() {
                "-".to_string()
            } else {
                acts.join("; ")
            }
        );
    }
    println!(
        "\nT_u = {:.0} s,  A_u = {:.0} core-s,  mean TPS (last 3 windows) = {:.1}",
        result.underprovision_time(None),
        result.underprovision_area(None),
        result.mean_tps(5, 8),
    );
    Ok(())
}
