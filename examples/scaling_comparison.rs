//! ATOM vs the rule-based baselines (UH, UV) on a heavy ordering-mix
//! surge — a miniature of the paper's Fig. 8/9/10 evaluation.
//!
//! Run with `cargo run --release --example scaling_comparison`.

use atom::core::{
    run_experiment, Atom, AtomConfig, Autoscaler, ExperimentConfig, UhScaler, UvScaler,
};
use atom::sockshop::{scenarios, SockShop, SVC_CARTS, SVC_CATALOGUE, SVC_FRONT_END};
use atom_cluster::ClusterOptions;
use atom_ga::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shop = SockShop::default();
    let target_users: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3000);
    println!("ordering mix, ramp 500 -> {target_users} users\n");
    let config = ExperimentConfig {
        windows: 8,
        window_secs: scenarios::WINDOW_SECS,
        cluster: ClusterOptions::default(),
    };
    // T_u/A_u over the three stateless services only, as in Fig. 9/10.
    let stateless = [SVC_FRONT_END, SVC_CATALOGUE, SVC_CARTS];

    println!("scaler  mean-TPS(whole run)  mean-TPS(last 15m)   T_u [s]   A_u [core-s]   #actions");

    for which in ["UH", "UV", "ATOM"] {
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), target_users);
        // UH gets the paper's special deployment: stateful services are
        // pre-allocated a full core since UH cannot scale them.
        let spec = if which == "UH" {
            shop.app_spec_stateful_full_core()
        } else {
            shop.app_spec()
        };
        let mut uh;
        let mut uv;
        let mut atom;
        let scaler: &mut dyn Autoscaler = match which {
            "UH" => {
                uh = UhScaler::new(&spec);
                &mut uh
            }
            "UV" => {
                uv = UvScaler::new(&spec);
                &mut uv
            }
            _ => {
                let binding = shop.binding(
                    scenarios::INITIAL_USERS,
                    scenarios::THINK_TIME,
                    workload.mix.fractions(),
                );
                let mut cfg = AtomConfig::new(shop.objective());
                cfg.ga.budget = Budget::Evaluations(400);
                atom = Atom::new(binding, cfg);
                &mut atom
            }
        };
        let result = run_experiment(&spec, workload, scaler, config.clone())?;
        println!(
            "{:<6}  {:>19.1}  {:>18.1}  {:>8.0}  {:>12.0}  {:>9}",
            result.scaler,
            result.mean_tps(0, 8),
            result.mean_tps(5, 8),
            result.underprovision_time(Some(&stateless)),
            result.underprovision_area(Some(&stateless)),
            result.actions.len(),
        );
    }
    Ok(())
}
