//! Command-line flags are outside input: `repro` must answer a bad one
//! with `error: …` and the usage exit code 2, never with a panic. Each
//! input here used to reach an `expect`/`panic!` in the flag parser or
//! in the trace experiment's file reader.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn a_trace_file_that_does_not_exist_is_a_usage_error() {
    assert_usage_error(&["--quick", "--trace-file", "/nonexistent.csv", "trace"]);
}

#[test]
fn a_trace_file_that_does_not_parse_is_a_usage_error() {
    let path = std::env::temp_dir().join(format!("repro-errors-{}.csv", std::process::id()));
    std::fs::write(&path, "garbage\n").unwrap();
    assert_usage_error(&["--quick", "--trace-file", path.to_str().unwrap(), "trace"]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_seed_that_is_not_a_number_is_a_usage_error() {
    assert_usage_error(&["--seed", "x", "fig4"]);
}

#[test]
fn an_unknown_trace_format_is_a_usage_error() {
    assert_usage_error(&["--format", "csv", "fig4"]);
}
