//! Bursty workloads (paper Fig. 13): inject a high index of dispersion
//! (I = 4000) into the ordering mix and compare how UV and ATOM track the
//! surges.
//!
//! Run with `cargo run --release --example burstiness`.

use atom::core::{run_experiment, Atom, AtomConfig, Autoscaler, ExperimentConfig, UvScaler};
use atom::sockshop::{scenarios, SockShop};
use atom_cluster::ClusterOptions;
use atom_ga::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shop = SockShop::default();
    let config = ExperimentConfig {
        windows: 8,
        window_secs: scenarios::WINDOW_SECS,
        cluster: ClusterOptions::default(),
    };

    let mut results = Vec::new();
    for which in ["UV", "ATOM"] {
        let spec = shop.app_spec();
        let workload = scenarios::bursty_workload(4000.0);
        let mut uv;
        let mut atom;
        let scaler: &mut dyn Autoscaler = if which == "UV" {
            uv = UvScaler::new(&spec);
            &mut uv
        } else {
            let binding = shop.binding(500, scenarios::THINK_TIME, workload.mix.fractions());
            let mut cfg = AtomConfig::new(shop.objective());
            cfg.ga.budget = Budget::Evaluations(400);
            atom = Atom::new(binding, cfg);
            &mut atom
        };
        results.push(run_experiment(&spec, workload, scaler, config.clone())?);
    }

    println!("window      UV TPS    ATOM TPS");
    for i in 0..config.windows {
        println!(
            "{:>6}  {:>10.1}  {:>10.1}",
            i + 1,
            results[0].reports[i].total_tps,
            results[1].reports[i].total_tps
        );
    }
    let horizon = config.windows as f64 * config.window_secs;
    let cum_uv = results[0].cumulative_tps(0.0, horizon);
    let cum_atom = results[1].cumulative_tps(0.0, horizon);
    println!(
        "\ncumulative transactions:  UV {:.0}   ATOM {:.0}   (ATOM +{:.0}%)",
        cum_uv,
        cum_atom,
        100.0 * (cum_atom - cum_uv) / cum_uv
    );
    Ok(())
}
