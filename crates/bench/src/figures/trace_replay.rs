//! Trace replay (beyond the paper): production cluster traces driving
//! the Sock Shop.
//!
//! A replayed trace answers the question the synthetic profiles cannot:
//! does the controller hold up under arrival dynamics nobody scripted?
//! The streaming readers in `atom_core::workload::trace` bin the
//! arrival records of an Alibaba `batch_task` or Google `task_events`
//! CSV, map the per-bin weight onto a §V-style population ramp
//! (`floor` = the 500 users the deployment is sized for, busiest bin =
//! `target_peak`), and derive the request mix from the per-record
//! class column. The resulting [`TraceSource`] is one of the two kinds
//! of [`Population`]: the experiment wiring below is exactly the
//! forecast experiment's, with the hand-written profiles swapped out.
//!
//! Reported per trace × scaler: SLO-violation-seconds and
//! under-provisioned area over the stateless trio, time-to-stable, mean
//! TPS, and the forecast ensemble's accounting (`trace.csv`); plus the
//! proactive controller's window-by-window model selection and rolling
//! sMAPE (`trace_windows.csv`) and the trace's own per-bin request-mix
//! shifts (`trace_mix.csv`). `repro --smoke trace` gates CI: the journal
//! must re-parse, neither controller may wedge, and proactive ATOM must
//! meet or beat reactive ATOM on SLO-violation-seconds on the bundled
//! Alibaba fixture.
//!
//! [`TraceSource`]: atom_core::workload::TraceSource
//! [`Population`]: atom_core::workload::Population

use std::path::{Path, PathBuf};

use atom_core::workload::{
    read_trace_file, RequestMix, TraceFormat, TraceOptions, TraceReplay, WorkloadSpec,
};
use atom_core::ExperimentResult;
use atom_obs::{Journal, Record};
use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one, ScalerKind};
use crate::figures::forecast;
use crate::output::{f, Table};
use crate::{trace, HarnessOptions};

/// Bin width for trace aggregation (seconds). 30 s keeps ten bins per
/// monitoring window in quick mode — enough resolution for the hybrid
/// backend's spike hints without drowning the step list.
const BIN_SECS: f64 = 30.0;

/// Population the busiest trace bin maps to (the §V mid-range target).
const TARGET_PEAK: usize = 2000;

/// Mix floor: every request class keeps at least 5% so a trace that is
/// all batch work still exercises carts and catalogue.
const MIX_FLOOR: f64 = 0.05;

/// The committed sample fixture for a format, resolved relative to the
/// working directory when present (the CI case) and to the workspace
/// root otherwise.
pub(super) fn fixture_path(format: TraceFormat) -> PathBuf {
    let name = match format {
        TraceFormat::Alibaba => "alibaba_sample.csv",
        TraceFormat::Google => "google_sample.csv",
    };
    let relative = Path::new("assets/traces").join(name);
    if relative.exists() {
        relative
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../assets/traces")
            .join(name)
    }
}

/// Reads `path`, rescaling the trace span onto a `windows ×
/// window_secs` run with the experiment's standard mapping options.
///
/// # Panics
///
/// If the file does not read: `repro` reads `--trace-file` once where
/// it parses the flag, and the bundled fixtures are known-good.
pub(super) fn load(
    path: &Path,
    format: TraceFormat,
    windows: usize,
    window_secs: f64,
) -> TraceReplay {
    let opts = TraceOptions::new()
        .with_bin_secs(BIN_SECS)
        .with_floor_users(scenarios::INITIAL_USERS)
        .with_target_peak(TARGET_PEAK)
        .with_duration(windows as f64 * window_secs)
        .with_mix_floor(MIX_FLOOR);
    let replay = read_trace_file(path, format, &opts)
        .unwrap_or_else(|e| panic!("reading trace {}: {e}", path.display()));
    let s = &replay.stats;
    atom_obs::info!(
        "  trace {}: {} records over {} bins ({} lines skipped), span {:.0} s, \
         peak weight {:.0} -> {} users, mix {:.2}/{:.2}/{:.2}",
        replay.source.name(),
        s.records,
        s.bins,
        s.skipped,
        s.span_secs,
        s.peak_weight,
        TARGET_PEAK,
        replay.mix[0],
        replay.mix[1],
        replay.mix[2],
    );
    replay
}

/// The workload a replay drives: trace mix, paper think time, and the
/// trace itself as the population source.
pub(super) fn workload_of(replay: &TraceReplay) -> WorkloadSpec {
    WorkloadSpec::new(
        RequestMix::new(replay.mix.clone()).expect("trace mix is normalised"),
        scenarios::THINK_TIME,
        replay.source.clone(),
    )
}

/// Runs one replay under reactive and proactive ATOM (quick mode), plus
/// the UH/UV baselines on the full protocol.
pub(super) fn run_replay(
    opts: &HarnessOptions,
    replay: &TraceReplay,
    windows: usize,
    window_secs: f64,
) -> Vec<ExperimentResult> {
    let shop = SockShop::default();
    let kinds: Vec<ScalerKind> = if opts.quick {
        vec![ScalerKind::Atom, ScalerKind::AtomP { season_windows: 0 }]
    } else {
        vec![
            ScalerKind::Uh,
            ScalerKind::Uv,
            ScalerKind::Atom,
            ScalerKind::AtomP { season_windows: 0 },
        ]
    };
    kinds
        .into_iter()
        .map(|kind| {
            atom_obs::progress!("  running trace {} {}", replay.source.name(), kind.name());
            run_one(&shop, workload_of(replay), kind, windows, window_secs, opts)
        })
        .collect()
}

/// The full artefact: every bundled fixture (or the one file
/// `--trace-file` pointed at) under each scaler, as a table plus
/// `trace.csv`, `trace_windows.csv`, and `trace_mix.csv`. Returns the
/// results so callers can export the decision journal.
pub(super) fn run(opts: &HarnessOptions) -> Vec<ExperimentResult> {
    atom_obs::info!("\n== Trace replay: production arrival traces vs the autoscalers ==");
    let (windows, window_secs) = opts.protocol(6);
    let replays: Vec<TraceReplay> = match &opts.trace_file {
        Some(path) => {
            let format = opts.trace_format.unwrap_or(TraceFormat::Alibaba);
            vec![load(path, format, windows, window_secs)]
        }
        None => [TraceFormat::Alibaba, TraceFormat::Google]
            .into_iter()
            .map(|fmt| load(&fixture_path(fmt), fmt, windows, window_secs))
            .collect(),
    };

    let mut table = forecast::summary_table("trace");
    let mut windows_table = Table::new(&[
        "trace", "scaler", "window", "t [s]", "observed", "planned", "model", "sMAPE", "fallback",
        "clamped",
    ]);
    let mut mix_table = Table::new(&["trace", "t [s]", "browsing", "catalogue", "carts"]);
    let mut all = Vec::new();
    for replay in &replays {
        for (t, mix) in &replay.mix_shifts {
            mix_table.row(vec![
                replay.source.name().to_string(),
                f(*t, 0),
                f(mix[0], 3),
                f(mix[1], 3),
                f(mix[2], 3),
            ]);
        }
        for r in run_replay(opts, replay, windows, window_secs) {
            table.row(forecast::summary_row(replay.source.name(), &r, windows));
            for (w, d) in r.telemetry.decisions.iter().flatten().enumerate() {
                if let Some(fc) = &d.forecast {
                    windows_table.row(vec![
                        replay.source.name().to_string(),
                        r.scaler.clone(),
                        w.to_string(),
                        f(d.time, 0),
                        f(fc.observed, 0),
                        f(fc.planned, 0),
                        fc.model.clone(),
                        fc.rolling_smape
                            .map_or("n/a".to_string(), |e| format!("{e:.3}")),
                        fc.fallback.to_string(),
                        fc.clamped.to_string(),
                    ]);
                }
            }
            all.push(r);
        }
    }
    table.print();
    table.write_csv(&opts.out_dir.join("trace.csv"));
    windows_table.write_csv(&opts.out_dir.join("trace_windows.csv"));
    mix_table.write_csv(&opts.out_dir.join("trace_mix.csv"));
    all
}

/// The `--smoke` gate, on the bundled Alibaba fixture: the decision
/// journal must re-parse through the `atom-obs` schema with one
/// decision per scaler-window, plus [`forecast::proactive_gate`].
pub(super) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let (windows, window_secs) = opts.protocol(6);
    let path = fixture_path(TraceFormat::Alibaba);
    let replay = load(&path, TraceFormat::Alibaba, windows, window_secs);
    let results = run_replay(opts, &replay, windows, window_secs);
    trace::emit(opts, &results);

    let mut failures = Vec::new();
    match Journal::parse_jsonl(&trace::emitted_journal(opts, &results)) {
        Ok(events) => {
            let decisions = events
                .iter()
                .filter(|e| matches!(e.record, Record::Decision(_)))
                .count();
            if decisions != results.len() * windows {
                failures.push(format!(
                    "expected {} decision records, found {decisions}",
                    results.len() * windows
                ));
            }
        }
        Err(e) => failures.push(format!("emitted journal does not re-parse: {e}")),
    }
    failures.extend(forecast::proactive_gate(&results, windows, "trace"));
    failures
}
