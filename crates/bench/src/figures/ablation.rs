//! Ablation studies beyond the paper's figures: quantify each of ATOM's
//! design choices by switching it off.
//!
//! * **GA vs random search** — §IV-C argues for a meta-heuristic; same
//!   evaluation budget, same model, compare the best feasible objective.
//! * **Planner quick fixes** — §IV-C's two fixes should save CPU at equal
//!   TPS.
//! * **Peak-rate monitoring** — the §IV-A sub-interval sampling is what
//!   wins Fig. 13; disabling it should erase the gain.
//! * **Online demand calibration** — the §VII future-work extension:
//!   start ATOM with demands mis-profiled at 50% and compare against the
//!   calibrating variant.

use atom_cluster::ClusterOptions;
use atom_core::optimizer::{random_search, search};
use atom_core::{run_experiment, Atom, AtomConfig, ExperimentConfig};
use atom_ga::{Budget, GaOptions};
use atom_sockshop::{scenarios, SockShop};

use crate::eval::STATELESS;
use crate::output::{f, Table};
use crate::HarnessOptions;

fn experiment_config(opts: &HarnessOptions) -> ExperimentConfig {
    ExperimentConfig {
        windows: opts.windows(),
        window_secs: opts.window_secs(),
        cluster: ClusterOptions::new().with_seed(opts.seed),
    }
}

fn atom_with(
    shop: &SockShop,
    mix: &[f64],
    opts: &HarnessOptions,
    tweak: impl FnOnce(&mut AtomConfig),
) -> Atom {
    let binding = shop.binding(scenarios::INITIAL_USERS, scenarios::THINK_TIME, mix);
    let mut cfg = AtomConfig::new(shop.objective());
    cfg.ga.budget = Budget::Evaluations(opts.ga_budget());
    cfg.ga.seed = opts.seed;
    tweak(&mut cfg);
    Atom::new(binding, cfg)
}

/// GA vs random search on the analyzed heavy-ordering model.
pub(super) fn optimizer_ablation(opts: &HarnessOptions) {
    atom_obs::info!("\n== Ablation: GA vs random search (ordering, N = 3000) ==");
    let shop = SockShop::default();
    let binding = shop.binding(3000, scenarios::THINK_TIME, &[0.33, 0.17, 0.50]);
    let objective = shop.objective();
    let mut table = Table::new(&["budget", "GA objective", "random objective", "GA wins by"]);
    for budget in [100usize, 300, 600] {
        let ga = search(
            &binding,
            &binding.model,
            &objective,
            GaOptions {
                budget: Budget::Evaluations(budget),
                seed: opts.seed,
                ..Default::default()
            },
        );
        let random = random_search(&binding, &binding.model, &objective, budget, opts.seed);
        let delta = if random.eval.violation == 0.0 && random.eval.objective.is_finite() {
            format!(
                "{:+.1}%",
                100.0 * (ga.eval.objective - random.eval.objective)
                    / random.eval.objective.abs().max(1e-9)
            )
        } else {
            "random infeasible".to_string()
        };
        table.row(vec![
            budget.to_string(),
            format!("{:.4} (viol {:.3})", ga.eval.objective, ga.eval.violation),
            format!(
                "{:.4} (viol {:.3})",
                random.eval.objective, random.eval.violation
            ),
            delta,
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir.join("ablation_optimizer.csv"));
}

/// Quick fixes on vs off: CPU allocated and TPS.
pub(super) fn quickfix_ablation(opts: &HarnessOptions) {
    atom_obs::info!("\n== Ablation: planner quick fixes (ordering, N = 2000) ==");
    let shop = SockShop::default();
    let mut table = Table::new(&["variant", "TPS", "mean allocated cores", "T_u [s]"]);
    for (label, fixes) in [("with quick fixes", true), ("without quick fixes", false)] {
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000);
        let mut atom = atom_with(&shop, workload.mix.fractions(), opts, |c| {
            c.quick_fixes = fixes;
        });
        let result = run_experiment(
            &shop.app_spec(),
            workload,
            &mut atom,
            experiment_config(opts),
        )
        .expect("experiment");
        let mean_alloc: f64 = result
            .reports
            .iter()
            .map(|r| r.service_alloc_cores.iter().sum::<f64>())
            .sum::<f64>()
            / result.reports.len() as f64;
        table.row(vec![
            label.to_string(),
            f(result.mean_tps(0, opts.windows()), 1),
            f(mean_alloc, 2),
            f(result.underprovision_time(Some(&STATELESS)), 0),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir.join("ablation_quickfix.csv"));
}

/// Peak-rate monitoring on vs off under high burstiness.
pub(super) fn peak_monitoring_ablation(opts: &HarnessOptions) {
    atom_obs::info!("\n== Ablation: peak-rate monitoring under burstiness (I = 4000) ==");
    let shop = SockShop::default();
    let mut table = Table::new(&["variant", "cumulative transactions"]);
    let horizon = opts.windows() as f64 * opts.window_secs();
    let mut values = Vec::new();
    for (label, peak) in [
        ("with peak monitoring", true),
        ("window averages only", false),
    ] {
        let workload = scenarios::bursty_workload(4000.0);
        let mut atom = atom_with(&shop, workload.mix.fractions(), opts, |c| {
            c.peak_monitoring = peak;
        });
        let result = run_experiment(
            &shop.app_spec(),
            workload,
            &mut atom,
            experiment_config(opts),
        )
        .expect("experiment");
        let cum = result.cumulative_tps(0.0, horizon);
        values.push(cum);
        table.row(vec![label.to_string(), f(cum, 0)]);
    }
    table.print();
    atom_obs::info!(
        "peak monitoring contributes {:+.1}% cumulative TPS under burstiness",
        100.0 * (values[0] - values[1]) / values[1]
    );
    table.write_csv(&opts.out_dir.join("ablation_peak.csv"));
}

/// Online demand calibration with a mis-profiled model (§VII).
pub(super) fn online_demands_ablation(opts: &HarnessOptions) {
    atom_obs::info!("\n== Extension: online demand calibration with 50% mis-profiled demands ==");
    let shop = SockShop::default();
    // A shop whose *model* demands are half the truth: the cluster runs
    // the true demands; only ATOM's LQN template is wrong.
    let mut half = shop.clone();
    half.d_router *= 0.5;
    half.d_home *= 0.5;
    half.d_catalogue *= 0.5;
    half.d_carts *= 0.5;
    half.d_catalogue_svc *= 0.5;
    half.d_carts_svc *= 0.5;
    half.d_catalogue_db *= 0.5;
    half.d_carts_db *= 0.5;

    let mut table = Table::new(&["variant", "TPS", "T_u [s]", "A_u [core-s]"]);
    let cases: [(&str, &SockShop, bool); 3] = [
        ("correct demands (reference)", &shop, false),
        ("50% demands, offline (paper)", &half, false),
        ("50% demands, online calibration", &half, true),
    ];
    for (label, model_shop, online) in cases {
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000);
        let binding = model_shop.binding(
            scenarios::INITIAL_USERS,
            scenarios::THINK_TIME,
            workload.mix.fractions(),
        );
        let mut cfg = AtomConfig::new(model_shop.objective());
        cfg.ga.budget = Budget::Evaluations(opts.ga_budget());
        cfg.ga.seed = opts.seed;
        cfg.online_demands = online;
        let mut atom = Atom::new(binding, cfg);
        // The *cluster* always runs the true demands.
        let result = run_experiment(
            &shop.app_spec(),
            workload,
            &mut atom,
            experiment_config(opts),
        )
        .expect("experiment");
        table.row(vec![
            label.to_string(),
            f(result.mean_tps(0, opts.windows()), 1),
            f(result.underprovision_time(Some(&STATELESS)), 0),
            f(result.underprovision_area(Some(&STATELESS)), 0),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir.join("ablation_online_demands.csv"));
}

/// Runs all ablations.
pub(super) fn run(opts: &HarnessOptions) {
    optimizer_ablation(opts);
    quickfix_ablation(opts);
    peak_monitoring_ablation(opts);
    online_demands_ablation(opts);
}
