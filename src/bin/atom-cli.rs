//! `atom-cli` — run ATOM (or a baseline) against any application
//! described in a JSON scenario, solve standalone `.lqn` model files, and
//! export derived models.
//!
//! ```text
//! atom-cli example-scenario > scenario.json   # a ready-made Sock Shop scenario
//! atom-cli run scenario.json                  # simulate it
//! atom-cli export-lqn scenario.json           # print the derived LQN (.lqn text)
//! atom-cli solve model.lqn                    # solve an LQN file analytically
//! ```

use std::fs;
use std::process::ExitCode;

use serde::{Deserialize, Serialize};

use atom::cluster::{AppSpec, ClusterOptions};
use atom::core::autoscaler::NoopScaler;
use atom::core::{
    run_experiment, Atom, AtomConfig, Autoscaler, ExperimentConfig, ModelBinding, ObjectiveSpec,
    UhScaler, UvScaler,
};
use atom::lqn::analytic::{solve, SolverOptions};
use atom::lqn::{from_lqn_text, to_lqn_text};
use atom::sockshop::{scenarios, SockShop};
use atom::workload::WorkloadSpec;
use atom_ga::Budget;

/// A complete experiment description, loadable from JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Scenario {
    /// The deployed application.
    app: AppSpec,
    /// The closed workload to subject it to.
    workload: WorkloadSpec,
    /// `"atom"`, `"uh"`, `"uv"`, or `"none"`.
    #[serde(default = "default_scaler")]
    scaler: String,
    /// Number of monitoring windows.
    #[serde(default = "default_windows")]
    windows: usize,
    /// Window length in seconds.
    #[serde(default = "default_window_secs")]
    window_secs: f64,
    /// RNG seed.
    #[serde(default = "default_seed")]
    seed: u64,
    /// GA evaluation budget per ATOM decision.
    #[serde(default = "default_budget")]
    ga_evaluations: usize,
}

fn default_scaler() -> String {
    "atom".into()
}
fn default_windows() -> usize {
    8
}
fn default_window_secs() -> f64 {
    300.0
}
fn default_seed() -> u64 {
    42
}
fn default_budget() -> usize {
    600
}

fn example_scenario() -> Scenario {
    let shop = SockShop::default();
    Scenario {
        app: shop.app_spec(),
        workload: scenarios::evaluation_workload(scenarios::ordering_mix(), 2000),
        scaler: "atom".into(),
        windows: 8,
        window_secs: 300.0,
        seed: 42,
        ga_evaluations: 600,
    }
}

/// Reads a scenario and checks it where it enters the program: the spec
/// must validate, the mix must have one entry per feature, the think
/// time must be a duration and the run must have a length, so that
/// nothing downstream meets an id or a number it cannot handle.
fn load_scenario(path: &str) -> Result<Scenario, Box<dyn std::error::Error>> {
    let scenario: Scenario = serde_json::from_str(&fs::read_to_string(path)?)?;
    scenario.app.validate()?;
    let (mix, features) = (scenario.workload.mix.len(), scenario.app.features.len());
    if mix != features {
        return Err(format!("the workload mix has {mix} entries for {features} features").into());
    }
    let think_time = scenario.workload.think_time;
    if !(think_time.is_finite() && think_time >= 0.0) {
        return Err(format!("the think time must be >= 0, got {think_time}").into());
    }
    let window_secs = scenario.window_secs;
    if !(window_secs.is_finite() && window_secs > 0.0) {
        return Err(
            format!("the window length must be finite and > 0 s, got {window_secs}").into(),
        );
    }
    if scenario.windows == 0 {
        return Err("the run needs at least one window, got windows = 0".into());
    }
    Ok(scenario)
}

fn binding_for(scenario: &Scenario) -> ModelBinding {
    ModelBinding::from_app_spec(
        &scenario.app,
        scenario.workload.source.population_at(0.0),
        scenario.workload.think_time,
        scenario.workload.mix.fractions(),
    )
}

fn run_scenario_result(
    scenario: &Scenario,
) -> Result<atom::core::ExperimentResult, Box<dyn std::error::Error>> {
    let config = ExperimentConfig {
        windows: scenario.windows,
        window_secs: scenario.window_secs,
        cluster: ClusterOptions::new().with_seed(scenario.seed),
    };
    let mut atom_scaler;
    let mut uh;
    let mut uv;
    let mut noop;
    let scaler: &mut dyn Autoscaler = match scenario.scaler.as_str() {
        "atom" => {
            let binding = binding_for(scenario);
            let mut objective = ObjectiveSpec::balanced(scenario.app.features.len());
            objective.server_capacity = scenario
                .app
                .servers
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.cores as f64))
                .collect();
            let mut cfg = AtomConfig::new(objective);
            cfg.ga.budget = Budget::Evaluations(scenario.ga_evaluations);
            cfg.ga.seed = scenario.seed;
            atom_scaler = Atom::new(binding, cfg);
            &mut atom_scaler
        }
        "uh" => {
            uh = UhScaler::new(&scenario.app);
            &mut uh
        }
        "uv" => {
            uv = UvScaler::new(&scenario.app);
            &mut uv
        }
        "none" => {
            noop = NoopScaler;
            &mut noop
        }
        other => return Err(format!("unknown scaler `{other}`").into()),
    };

    Ok(run_experiment(
        &scenario.app,
        scenario.workload.clone(),
        scaler,
        config,
    )?)
}

fn run_scenario(scenario: &Scenario) -> Result<(), Box<dyn std::error::Error>> {
    let result = run_scenario_result(scenario)?;
    println!("window  users    TPS    resp[ms]  actions");
    for (i, r) in result.reports.iter().enumerate() {
        let total: u64 = r.feature_counts.iter().sum();
        let resp = if total > 0 {
            r.feature_response
                .iter()
                .zip(&r.feature_counts)
                .map(|(t, &c)| t * c as f64)
                .sum::<f64>()
                / total as f64
        } else {
            0.0
        };
        let acts: Vec<String> = result
            .window_actions(i)
            .map(|a| {
                let service = &scenario.app.services[a.service.0].name;
                format!(
                    "{}: {service} -> {} x {:.2}",
                    result.scaler, a.replicas, a.share
                )
            })
            .collect();
        println!(
            "{:>6}  {:>5}  {:>6.1}  {:>8.1}  {}",
            i + 1,
            r.users_at_end,
            r.total_tps,
            resp * 1e3,
            if acts.is_empty() {
                "-".to_string()
            } else {
                acts.join("; ")
            }
        );
    }
    println!(
        "\n{}: mean TPS {:.1}, T_u {:.0} s, A_u {:.0} core-s, {} scaling actions",
        result.scaler,
        result.mean_tps(0, scenario.windows),
        result.underprovision_time(None),
        result.underprovision_area(None),
        result.actions.len()
    );
    let last = result.telemetry.decisions.last().and_then(Option::as_ref);
    if let Some(explanation) = last.and_then(|d| d.explanation()) {
        println!("last decision: {explanation}");
    }
    Ok(())
}

fn compare_scenario(scenario: &Scenario) -> Result<(), Box<dyn std::error::Error>> {
    println!("scaler  mean TPS   T_u [s]   A_u [core-s]   actions");
    for which in ["none", "uh", "uv", "atom"] {
        let mut s = scenario.clone();
        s.scaler = which.into();
        let result = run_scenario_result(&s)?;
        println!(
            "{:<6}  {:>8.1}  {:>8.0}  {:>12.0}  {:>7}",
            result.scaler,
            result.mean_tps(0, s.windows),
            result.underprovision_time(None),
            result.underprovision_area(None),
            result.actions.len()
        );
    }
    Ok(())
}

fn trace_scenario(scenario: &Scenario) -> Result<(), Box<dyn std::error::Error>> {
    use atom::cluster::Cluster;
    let mut cluster = Cluster::new(
        &scenario.app,
        scenario.workload.clone(),
        ClusterOptions::new().with_seed(scenario.seed),
    )?;
    cluster.run_window(60.0); // settle
    cluster.arm_trace(None);
    cluster.run_window(60.0);
    let trace = cluster
        .take_trace()
        .ok_or("no request completed in the trace window")?;
    let feature = &scenario.app.features[trace[0].feature];
    println!(
        "trace of one `{}` request ({} spans):\n",
        feature.name,
        trace.len()
    );
    let t0 = trace[0].arrival;
    let total = (trace[0].end - t0).max(1e-9);
    for (i, span) in trace.iter().enumerate() {
        let svc = &scenario.app.services[span.service];
        let ep = &svc.endpoints[span.endpoint];
        let depth = {
            let mut d = 0;
            let mut cur = span.parent;
            while let Some(p) = cur {
                d += 1;
                cur = trace[p].parent;
            }
            d
        };
        let offset = ((span.arrival - t0) / total * 40.0) as usize;
        let width = (((span.end - span.arrival) / total * 40.0) as usize).max(1);
        println!(
            "{:>3} {:indent$}{}/{:<12} {:>7.1}ms  |{}{}|",
            i,
            "",
            svc.name,
            ep.name,
            (span.end - span.arrival) * 1e3,
            " ".repeat(offset),
            "=".repeat(width.min(40 - offset.min(39))),
            indent = depth * 2,
        );
    }
    Ok(())
}

fn solve_lqn_file(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let text = fs::read_to_string(path)?;
    let model = from_lqn_text(&text)?;
    let sol = solve(&model, SolverOptions::default())?;
    println!("system throughput: {:.3}/s", sol.total_throughput());
    println!("cycle response   : {:.4}s", sol.client_response_time);
    println!("\ntask               util   thread-wait[ms]");
    for (ti, t) in model.tasks().iter().enumerate() {
        if t.is_reference() {
            continue;
        }
        println!(
            "{:<18} {:>5.3}  {:>10.2}",
            t.name,
            sol.task_utilization[ti],
            sol.task_wait[ti] * 1e3
        );
    }
    println!("\nentry              X/s      residence[ms]");
    for (ei, e) in model.entries().iter().enumerate() {
        if model.task(e.task).is_reference() {
            continue;
        }
        println!(
            "{:<18} {:>7.2}  {:>10.2}",
            e.name,
            sol.entry_throughput[ei],
            sol.entry_residence[ei] * 1e3
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    // Piping output into `head` (or any consumer that closes early) must
    // not panic: exit quietly when stdout goes away.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), Box<dyn std::error::Error>> = match args.first().map(String::as_str) {
        Some("example-scenario") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&example_scenario()).expect("serialise")
            );
            Ok(())
        }
        Some("run") if args.len() == 2 => load_scenario(&args[1]).and_then(|s| run_scenario(&s)),
        Some("export-lqn") if args.len() == 2 => {
            load_scenario(&args[1]).map(|s| print!("{}", to_lqn_text(&binding_for(&s).model)))
        }
        Some("solve") if args.len() == 2 => solve_lqn_file(&args[1]),
        Some("trace") if args.len() == 2 => {
            load_scenario(&args[1]).and_then(|s| trace_scenario(&s))
        }
        Some("compare") if args.len() == 2 => {
            load_scenario(&args[1]).and_then(|s| compare_scenario(&s))
        }
        _ => {
            eprintln!(
                "usage:\n  atom-cli example-scenario\n  atom-cli run <scenario.json>\n  \
                 atom-cli export-lqn <scenario.json>\n  atom-cli solve <model.lqn>\n  \
                 atom-cli trace <scenario.json>\n  \
                 atom-cli compare <scenario.json>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_scenario_roundtrips_through_json() {
        let scenario = example_scenario();
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scaler, "atom");
        assert_eq!(back.windows, 8);
        assert_eq!(back.app.services.len(), scenario.app.services.len());
    }

    #[test]
    fn missing_fields_take_defaults() {
        let scenario = example_scenario();
        let mut value: serde_json::Value = serde_json::to_value(&scenario).unwrap();
        let obj = value.as_object_mut().unwrap();
        obj.remove("scaler");
        obj.remove("windows");
        obj.remove("window_secs");
        obj.remove("seed");
        obj.remove("ga_evaluations");
        let back: Scenario = serde_json::from_value(value).unwrap();
        assert_eq!(back.scaler, "atom");
        assert_eq!(back.windows, 8);
        assert_eq!(back.window_secs, 300.0);
        assert_eq!(back.seed, 42);
        assert_eq!(back.ga_evaluations, 600);
    }

    #[test]
    fn derived_binding_covers_all_services() {
        let scenario = example_scenario();
        let binding = binding_for(&scenario);
        assert_eq!(binding.services.len(), scenario.app.services.len());
    }

    #[test]
    fn exported_lqn_parses_and_solves() {
        let scenario = example_scenario();
        let text = to_lqn_text(&binding_for(&scenario).model);
        let model = from_lqn_text(&text).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        assert!(sol.total_throughput() > 0.0);
    }
}
