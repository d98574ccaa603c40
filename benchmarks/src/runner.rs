//! One run of one workload: set up, repeat, optionally trace, check.
//!
//! Protocol. Set-up runs [`SETUPS`] times (its median is `setup_s`; the
//! last state is kept). Then whole repetitions run in the same process
//! until `--seconds` have been measured. End-to-end metrics come from
//! these untraced repetitions only. With `--trace 1` the timed part is
//! shorter, and it is followed by one more set-up and repetition with
//! the span recorder on and by the per-layer suite; the traced
//! repetition simulates exactly what the first untraced one did (same
//! seed, fresh set-up), which is checked.

use std::time::Instant;

use crate::checks::Tally;
use crate::layers::{self, Layer};
use crate::stats::{mean, median, quantile, Summary};
use crate::trace::{breakdown, Breakdown, Span, Tracer};
use crate::workloads::{Rep, Workload};

/// Set-ups per run.
pub const SETUPS: usize = 3;
/// Share of `--seconds` a traced run spends on untraced repetitions
/// (the rest of the run is the traced repetition and the layer suite).
pub const TRACED_REP_SHARE: f64 = 0.4;
/// Largest residual (run time no span accounts for) a trace may have,
/// in percent.
pub const MAX_RESIDUAL_PCT: f64 = 2.0;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether to add the traced repetition and the layer suite.
    pub trace: bool,
}

/// A metric value with its unit and, where it has repetitions, spread.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Spread over repetitions, when there are any.
    pub spread: Option<Summary>,
}

/// The traced repetition's account of itself.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Per-name self times.
    pub breakdown: Breakdown,
    /// Traced repetition against the untraced median, percent.
    pub overhead_pct: f64,
    /// The traced repetition's counters.
    pub rep: Rep,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// The arguments.
    pub args: RunArgs,
    /// End-to-end metrics (always measured, from untraced repetitions).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The trace (traced runs only).
    pub trace: Option<TraceReport>,
    /// Checked operations.
    pub tally: Tally,
    /// Whether every check passed, the trace's residual bound included.
    pub correct: bool,
    /// Untraced repetitions made.
    pub reps: usize,
    /// Window steps and decisions those repetitions timed (what the
    /// percentiles are taken over).
    pub samples: (usize, usize),
    /// Digest of the first repetition's windows and actions: exact for a
    /// seed, so a host-time-only change leaves it identical.
    pub sim_digest: u64,
}

/// Peak resident set of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pooled(reps: &[Rep], f: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn end_to_end(setup_s: &[f64], reps: &[Rep], rss_mb: f64) -> Vec<Metric> {
    let wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    let sim: f64 = reps.iter().map(|r| r.sim_s).sum();
    let per_rep_hour: Vec<f64> = reps.iter().map(|r| 3600.0 * r.wall_s / r.sim_s).collect();
    let m = |name, value, unit, samples: &[f64]| Metric {
        name,
        value,
        unit,
        spread: Some(Summary::of(samples)),
    };
    vec![
        m("setup_s", median(setup_s), "s", setup_s),
        m(
            "wall_s_per_sim_hour",
            3600.0 * wall / sim,
            "s",
            &per_rep_hour,
        ),
        m("peak_rss_mb", rss_mb, "MB", &[rss_mb]),
    ]
}

/// The workload-side per-layer metrics: what the untraced repetitions
/// counted and what the traced one attributes.
fn workload_layers(
    reps: &[Rep],
    trace: &TraceReport,
    model_tps_err_pct: f64,
) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    let decide_ms = pooled(reps, |r| &r.decide_ms);
    let run_window_ms = pooled(reps, |r| &r.run_window_ms);
    let windows = run_window_ms.len() as f64;
    let first = &reps[0];
    let b = &trace.breakdown;
    let mean_us = |name: &str| {
        let s = b.get(name);
        ratio(s.total as f64 / 1e3, s.count as f64)
    };
    let mut out = vec![
        (
            "window_wall_ms_p50",
            median(&pooled(reps, |r| &r.window_wall_ms)),
        ),
        ("events_per_wall_s", ratio(sum(|r| r.events), wall)),
        (
            "evals_per_wall_s",
            ratio(sum(|r| r.evaluations), decide_ms.iter().sum::<f64>() / 1e3),
        ),
        ("decide_wall_ms_p50", median_or_zero(&decide_ms)),
        (
            "decide_wall_ms_p90",
            if decide_ms.is_empty() {
                0.0
            } else {
                quantile(&decide_ms, 0.9)
            },
        ),
        ("tu_s", first.tu_s),
        ("au_core_s", first.au_core_s),
        ("model_tps_err_pct", model_tps_err_pct),
        ("model_residence_smape", mean(&first.residence_smape)),
        (
            "cluster.run_window.wall_ms_p50",
            median_or_zero(&run_window_ms),
        ),
        (
            "cluster.run_window.events",
            ratio(sum(|r| r.events), windows),
        ),
        (
            "cluster.run_window.requests",
            ratio(sum(|r| r.requests), windows),
        ),
        ("cluster.take_spans_us", mean_us("cluster.take_spans")),
        (
            "cluster.schedule_scaling_us",
            mean_us("cluster.schedule_scaling"),
        ),
        (
            "core.decide.actions",
            ratio(sum(|r| r.actions), decide_ms.len() as f64),
        ),
        ("trace.spans", trace.spans.len() as f64),
        ("trace.overhead_pct", trace.overhead_pct),
        ("trace.residual_pct", b.residual_pct()),
    ];
    for (span, metric) in crate::workloads::SPAN_SHARES {
        out.push((metric, b.share_pct(span)));
    }
    out
}

/// Runs workload `W`.
pub fn run<W: Workload>(args: RunArgs) -> Outcome {
    let mut off = Tracer::off();
    let mut tally = Tally::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_digests = Vec::with_capacity(SETUPS);
    let mut state: Option<W> = None;
    for _ in 0..SETUPS {
        // Drop the previous state first: peak memory is one state's.
        drop(state.take());
        let started = Instant::now();
        let fresh = W::set_up(args.seed, &mut off);
        setup_s.push(started.elapsed().as_secs_f64());
        setup_digests.push(fresh.setup_digest());
        state = Some(fresh);
    }
    let mut state = state.expect("at least one set-up ran");

    let (budget, min_reps) = if args.trace {
        (args.seconds * TRACED_REP_SHARE, 1)
    } else {
        (args.seconds, W::MIN_REPS)
    };
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        reps.push(state.repeat(&mut off));
        let elapsed = started.elapsed().as_secs_f64();
        // Whole repetitions only; stop once the next one would overshoot
        // the budget by more than half of itself.
        if reps.len() >= min_reps && elapsed + 0.5 * elapsed / reps.len() as f64 > budget {
            break;
        }
    }
    let rss_mb = peak_rss_mb();

    let trace = if args.trace {
        let mut tracer = Tracer::on();
        let root = tracer.begin("run", 0);
        let setting_up = tracer.begin("setup", 0);
        drop(state);
        state = W::set_up(args.seed, &mut tracer);
        tracer.end(setting_up);
        setup_digests.push(state.setup_digest());
        let rep = state.repeat(&mut tracer);
        tracer.end(root);
        let spans = tracer.spans().to_vec();
        let untraced: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        Some(TraceReport {
            breakdown: breakdown(&spans),
            overhead_pct: 100.0 * (rep.wall_s / median(&untraced) - 1.0),
            spans,
            rep,
        })
    } else {
        None
    };

    tally.record(if setup_digests.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err("set-ups of one seed simulated different warm-ups".to_string())
    });
    let mut all: Vec<Rep> = reps.clone();
    if let Some(t) = &trace {
        tally.record(if t.rep.digests == reps[0].digests {
            Ok(())
        } else {
            Err("the traced repetition simulated something else than the first untraced one".into())
        });
        all.push(t.rep.clone());
    }
    tally.absorb(state.cross_check(&all));
    for rep in &all {
        tally.absorb(rep.tally.clone());
    }

    let mut per_layer = Vec::new();
    if let Some(t) = &trace {
        let err = state.model_tps_err_pct(&reps);
        for (name, value) in workload_layers(&reps, t, err) {
            per_layer.push(Metric {
                unit: crate::report::unit_of(name),
                name,
                value,
                spread: None,
            });
        }
        for Layer {
            name,
            value,
            spread,
        } in layers::run_suite()
        {
            per_layer.push(Metric {
                name,
                value,
                unit: crate::report::unit_of(name),
                spread,
            });
        }
        // A traced run reports the catalogue's per-layer metrics: all of
        // them, nothing else.
        assert!(
            per_layer
                .iter()
                .map(|m| m.name)
                .eq(crate::report::per_layer().map(|(name, _, _)| name)),
            "the per-layer metrics reported differ from the catalogue"
        );
    }
    let residual_ok = trace
        .as_ref()
        .is_none_or(|t| t.breakdown.residual_pct() <= MAX_RESIDUAL_PCT);
    if !residual_ok {
        tally
            .messages
            .push(format!("trace residual above {MAX_RESIDUAL_PCT} %"));
    }

    Outcome {
        workload: W::NAME,
        end_to_end: end_to_end(&setup_s, &reps, rss_mb),
        per_layer,
        correct: tally.failed == 0 && residual_ok,
        tally,
        reps: reps.len(),
        samples: (
            reps.iter().map(|r| r.window_wall_ms.len()).sum(),
            reps.iter().map(|r| r.decide_ms.len()).sum(),
        ),
        sim_digest: reps[0].digest(),
        trace,
        args,
    }
}
