//! The repo benchmark. See `benchmarks/README.md`; run through
//! `benchmarks/run.sh`.
//!
//! ```text
//! atom-benchmarks run --workload W --seed S --seconds T --trace 0|1 [--out DIR]
//! atom-benchmarks all [--seed S] [--seconds T] [--out DIR]
//! atom-benchmarks compare A.json B.json
//! atom-benchmarks manifest [RUN_SECONDS]
//! ```

mod checks;
mod inputs;
mod json;
mod layers;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::Value;

use json::{obj, text, uint};
use report::WORKLOADS;
use runner::{Outcome, RunArgs};
use workloads::{DecideSweep, DesSockshop, DesWide, MapekRamp, Workload};

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u64 = 20;
/// Where runs write their detail and trace files unless told otherwise.
const DEFAULT_OUT: &str = "benchmarks/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--seed S] [--seconds T] [--out DIR]      all four workloads, one results.json\n\
         \x20      run.sh --workload W --seed S --seconds T --trace 0|1 [--out DIR]\n\
         \x20      run.sh --compare A.json B.json\n\
         \x20      run.sh --smoke\n\
         workloads: {}",
        WORKLOADS.map(|(name, _)| name).join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` options of a subcommand.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String]) -> Option<Self> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key.strip_prefix("--")?;
            out.push((key.to_string(), it.next()?.clone()));
        }
        Some(Options(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Option<T> {
        match self.get(key) {
            Some(v) => v.parse().ok(),
            None => Some(default),
        }
    }
}

fn run_workload(name: &str, args: RunArgs) -> Option<Outcome> {
    Some(match name {
        DesSockshop::NAME => runner::run::<DesSockshop>(args),
        DesWide::NAME => runner::run::<DesWide>(args),
        DecideSweep::NAME => runner::run::<DecideSweep>(args),
        MapekRamp::NAME => runner::run::<MapekRamp>(args),
        _ => return None,
    })
}

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// One workload, one process: measures, prints every metric, writes the
/// detail file (and the Chrome trace of a traced run), and ends with
/// the one-line result.
fn cmd_run(options: &Options) -> ExitCode {
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        options.get("workload"),
        options.number("seed", 1u64),
        options.number("seconds", RUN_SECONDS as f64),
        options.number("trace", 0u8),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds.is_finite()) || trace > 1 {
        return usage();
    }
    let out = PathBuf::from(options.get("out").unwrap_or(DEFAULT_OUT));
    let args = RunArgs {
        seed,
        seconds,
        trace: trace == 1,
    };
    let Some(outcome) = run_workload(workload, args) else {
        return usage();
    };
    report::print_metrics(&outcome);
    let detail = serde_json::to_string_pretty(&report::detail(&outcome))
        .expect("a value tree always serialises");
    let mut written = write(&detail_path(&out, workload, outcome.args.trace), &detail);
    if let (Ok(()), Some(t)) = (&written, &outcome.trace) {
        let path = out.join(format!("trace-{workload}.json"));
        written = write(&path, &trace::chrome_json(&t.spans, workload));
    }
    if let Err(e) = written {
        eprintln!("error: cannot write under {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What machine and what code the numbers belong to.
fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("nproc", uint(nproc as u64)),
        ("cpu_model", text(&cpu)),
        ("rustc", text(&first_line("rustc", &["-V"]))),
        (
            "git_commit",
            text(&first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("threads_per_child", uint(1)),
    ])
}

/// All four workloads, each run in child processes of its own — an
/// untraced run for the end-to-end metrics, then a traced one for the
/// per-layer metrics — one after the other, and one results file.
fn cmd_all(options: &Options) -> ExitCode {
    let (Some(seed), Some(seconds)) = (
        options.number("seed", 1u64),
        options.number("seconds", RUN_SECONDS as f64),
    ) else {
        return usage();
    };
    let out = PathBuf::from(options.get("out").unwrap_or(DEFAULT_OUT));
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut workloads = serde_json::Map::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let mut runs = serde_json::Map::new();
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["run", "--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                // The program runs with its defaults: one evaluator worker.
                .env_remove("ATOM_EVAL_WORKERS")
                .status();
            all_correct &= matches!(&status, Ok(s) if s.success());
            let detail = std::fs::read_to_string(detail_path(&out, workload, trace))
                .ok()
                .and_then(|text| serde_json::from_str::<Value>(&text).ok());
            let Some(detail) = detail else {
                eprintln!("error: {workload} (trace {trace}) left no detail file");
                return ExitCode::FAILURE;
            };
            runs.insert(
                if trace { "traced" } else { "untraced" }.to_string(),
                detail,
            );
        }
        workloads.insert(workload.to_string(), Value::Object(runs));
    }
    let results = obj([
        ("fingerprint", fingerprint()),
        ("seed", uint(seed)),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = out.join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("a value tree always serialises");
    if let Err(e) = write(&path, &text) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# results: {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed (see the FAILED lines above)");
        ExitCode::FAILURE
    }
}

fn cmd_compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else { return usage() };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<Value>(&text).map_err(|e| e.to_string()))
            .map_err(|e| eprintln!("error: {path}: {e}"))
            .ok()
    };
    let (Some(a), Some(b)) = (load(a), load(b)) else {
        return ExitCode::from(2);
    };
    let (table, worse) = report::compare(&a, &b);
    print!("{table}");
    println!("# {worse} row(s) worse");
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match (command.as_str(), Options::parse(rest)) {
        ("run", Some(options)) => cmd_run(&options),
        ("all", Some(options)) => cmd_all(&options),
        ("compare", _) => cmd_compare(rest),
        ("manifest", _) => {
            let seconds = rest
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(RUN_SECONDS);
            let text = serde_json::to_string_pretty(&report::manifest(seconds))
                .expect("a value tree always serialises");
            println!("{text}");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
