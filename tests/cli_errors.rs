//! A scenario file is outside input: `atom-cli` must answer a bad one
//! with `error: …` and a non-zero exit, never with a panic. Each
//! corruption here used to reach an `unwrap`/`assert!`/`expect` (one
//! inside `AppSpec::validate`, the others inside
//! `ModelBinding::from_app_spec`); a run length of no windows or of a
//! window that is not a positive finite duration used to panic in the
//! cluster, never return, or print a run of no time.

use std::path::PathBuf;
use std::process::{Command, Output};

use atom::cluster::{AppSpec, ServiceId};
use atom::sockshop::{scenarios, SockShop};
use atom::workload::{RequestMix, WorkloadSpec};

fn example() -> (AppSpec, WorkloadSpec) {
    let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000);
    (SockShop::default().app_spec(), workload)
}

/// Writes the scenario to a file of its own and runs `atom-cli <command>`
/// on it. `fields` are top-level `(name, JSON text)` pairs; each replaces
/// the one-window, 50-evaluation default of that name or adds a field.
fn atom_cli(
    command: &str,
    name: &str,
    app: &AppSpec,
    workload: &WorkloadSpec,
    fields: &[(&str, &str)],
) -> Output {
    let mut top = vec![("windows", "1"), ("ga_evaluations", "50")];
    for &(key, value) in fields {
        top.retain(|&(k, _)| k != key);
        top.push((key, value));
    }
    let top: String = top.iter().map(|(k, v)| format!(", \"{k}\": {v}")).collect();
    let json = format!(
        "{{\"app\": {}, \"workload\": {}{top}}}",
        serde_json::to_string(app).unwrap(),
        serde_json::to_string(workload).unwrap()
    );
    let path: PathBuf = std::env::temp_dir().join(format!(
        "atom-cli-errors-{}-{name}-{command}.json",
        std::process::id()
    ));
    std::fs::write(&path, json).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_atom-cli"))
        .arg(command)
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    output
}

fn assert_typed_error(
    name: &str,
    app: &AppSpec,
    workload: &WorkloadSpec,
    fields: &[(&str, &str)],
    expected: &str,
) {
    for command in ["run", "compare", "export-lqn"] {
        let output = atom_cli(command, name, app, workload, fields);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command} {name}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(expected),
            "{command} {name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command} {name}: {stderr}");
    }
}

#[test]
fn the_example_scenario_itself_is_accepted() {
    let (app, workload) = example();
    let output = atom_cli("export-lqn", "valid", &app, &workload, &[]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("e carts-db.query t carts-db"), "{text}");
}

#[test]
fn a_call_to_a_service_that_does_not_exist_is_a_typed_error() {
    let (mut app, workload) = example();
    app.services[0].endpoints[0].calls[0].service = ServiceId(99);
    assert_typed_error("call", &app, &workload, &[], "service 99");
}

#[test]
fn a_mix_shorter_than_the_feature_list_is_a_typed_error() {
    let (app, mut workload) = example();
    workload.mix = RequestMix::new(vec![0.5, 0.5]).unwrap();
    assert_typed_error("mix", &app, &workload, &[], "2 entries for 3 features");
}

#[test]
fn a_negative_demand_is_a_typed_error() {
    let (mut app, workload) = example();
    app.services[1].endpoints[0].demand = -1.0;
    assert_typed_error("demand", &app, &workload, &[], "front-end.home");
}

#[test]
fn a_negative_think_time_is_a_typed_error() {
    let (app, mut workload) = example();
    workload.think_time = -3.0;
    assert_typed_error("think", &app, &workload, &[], "think time");
}

#[test]
fn an_unusable_run_length_is_a_typed_error() {
    let (app, workload) = example();
    for (name, window_secs) in [("zero", "0"), ("negative", "-300"), ("infinite", "1e400")] {
        let fields = [("window_secs", window_secs)];
        assert_typed_error(name, &app, &workload, &fields, "window length");
    }
    let fields = [("windows", "0")];
    assert_typed_error("windows", &app, &workload, &fields, "at least one window");
}
