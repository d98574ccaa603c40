//! `repro` — regenerate every table and figure of the ATOM paper.
//!
//! ```text
//! repro [--quick] [--smoke] [--seed N] [--out DIR]
//!       [--trace-out FILE] [--metrics-out FILE] [--spans-out FILE]
//!       [--trace-file FILE] [--format alibaba|google]
//!       [--quiet] [--verbose] [command...]
//! ```
//!
//! The commands are the rows of [`atom_bench::figures::EXPERIMENTS`]
//! (`--help` prints them) plus `all`, the default. `--smoke` runs the
//! named rows' CI gates instead of the experiments — `--smoke all`
//! every gate, the bare `--smoke` the journal-schema gate — and exits 1
//! after listing every violated check. A bad flag (an unparsable
//! number, an unknown format, a missing value, a `--trace-file` that
//! does not read) or an unknown command prints `error: …` and exits 2.

use std::str::FromStr;

use atom_bench::figures::{run_commands, RunError, EXPERIMENTS};
use atom_bench::HarnessOptions;
use atom_core::workload::{read_trace_file, TraceFormat, TraceOptions};

fn print_help() {
    println!(
        "usage: repro [--quick] [--smoke] [--seed N] [--out DIR] \
         [--trace-out FILE] [--metrics-out FILE] [--spans-out FILE] \
         [--trace-file FILE] [--format alibaba|google] [--quiet] [--verbose] [command...]\n\n\
         commands (default: all):"
    );
    for e in EXPERIMENTS {
        let tag = if e.in_all { "" } else { " [only when named]" };
        println!("  {:<11} {}{tag}", e.name, e.about);
    }
    println!(
        "  {:<11} every command above not marked [only when named]\n\n\
         --smoke runs the named commands' gates (quick mode) instead: `--smoke all` every \
         gate, the bare `--smoke` the journal gate. --trace-out / --metrics-out / --spans-out \
         hold the export of the last command that wrote them.",
        "all"
    );
}

/// Reports `err` on stderr and exits with its code.
fn exit_with(err: RunError) -> ! {
    match &err {
        RunError::Usage(msg) => atom_obs::error!("error: {msg}"),
        RunError::Gates(failures) => {
            for msg in failures {
                atom_obs::error!("smoke FAILED: {msg}");
            }
        }
    }
    std::process::exit(err.exit_code());
}

fn usage_error(msg: String) -> ! {
    exit_with(RunError::Usage(msg))
}

/// Parses `flag`'s value, or exits with a usage error naming it.
fn parse<T: FromStr>(flag: &str, value: String, what: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format!("{flag} needs {what}, got `{value}`")))
}

fn main() {
    let mut opts = HarnessOptions::default();
    let mut commands: Vec<String> = Vec::new();
    let (mut smoke, mut quiet, mut verbose) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--quiet" => quiet = true,
            "--verbose" => verbose = true,
            "--smoke" => smoke = true,
            "--seed" => opts.seed = parse(&a, value("an integer"), "an integer"),
            "--out" => opts.out_dir = value("a directory").into(),
            "--trace-out" => opts.trace_out = Some(value("a file path").into()),
            "--metrics-out" => opts.metrics_out = Some(value("a file path").into()),
            "--spans-out" => opts.spans_out = Some(value("a file path").into()),
            "--trace-file" => opts.trace_file = Some(value("a file path").into()),
            "--format" => {
                let what = "`alibaba` or `google`";
                opts.trace_format = Some(parse(&a, value(what), what));
            }
            "--help" | "-h" => return print_help(),
            _ => commands.push(a),
        }
    }
    // A trace that does not read is a bad flag, not a failed experiment.
    if let Some(path) = &opts.trace_file {
        let format = opts.trace_format.unwrap_or(TraceFormat::Alibaba);
        if let Err(e) = read_trace_file(path, format, &TraceOptions::new()) {
            usage_error(format!("--trace-file {}: {e}", path.display()));
        }
    }
    atom_obs::log::configure(quiet, verbose);
    if commands.is_empty() {
        commands.push(if smoke { "journal" } else { "all" }.into());
    }
    match run_commands(EXPERIMENTS, &opts, &commands, smoke) {
        Ok(()) if smoke => {}
        Ok(()) => atom_obs::info!("\nartefacts written to {}", opts.out_dir.display()),
        Err(err) => exit_with(err),
    }
}
