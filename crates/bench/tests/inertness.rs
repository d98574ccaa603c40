//! The telemetry layer's hard requirement, as a property test: running
//! an experiment with tracing enabled (journal + metrics emitted and
//! re-parsed) yields bitwise-identical experiment outputs to running it
//! with tracing disabled. Telemetry is derived from the run; it never
//! feeds back into it.

use atom_bench::eval::{run_one_with_cluster, ScalerKind};
use atom_bench::figures::chaos;
use atom_bench::{trace, HarnessOptions};
use atom_cluster::ClusterOptions;
use atom_core::{run_experiment, Atom, AtomConfig, ExperimentConfig, ExperimentResult};
use atom_obs::{Journal, Record};
use atom_sockshop::{scenarios, SockShop};

/// Renders everything an `ExperimentResult` feeds into CSV artefacts —
/// full-precision floats (`{:?}` round-trips f64 exactly), so any
/// perturbation anywhere in the dynamics shows up as a byte diff.
fn canonical_csv(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    for r in results {
        for w in &r.reports {
            out.push_str(&format!(
                "{},{:?},{:?},{:?},{:?},{:?},{:?}\n",
                r.scaler,
                w.start,
                w.end,
                w.total_tps,
                w.avg_users,
                w.service_alloc_cores,
                w.service_availability,
            ));
        }
        for (t, a) in &r.actions {
            out.push_str(&format!("{},{t:?},{a:?}\n", r.scaler));
        }
        for d in r.telemetry.decisions.iter().flatten() {
            if let Some(e) = d.explanation() {
                out.push_str(&format!("{},{e}\n", r.scaler));
            }
        }
    }
    out
}

#[test]
fn tracing_on_vs_off_is_bitwise_identical() {
    let windows = 3usize;
    let window_secs = 60.0;
    let plain = HarnessOptions {
        quick: true,
        ..Default::default()
    };
    let untraced = chaos::run_matrix(&plain, windows, window_secs);

    let dir = std::env::temp_dir().join("atom-bench-inertness");
    let traced_opts = HarnessOptions {
        quick: true,
        trace_out: Some(dir.join("trace.jsonl")),
        metrics_out: Some(dir.join("metrics.prom")),
        ..Default::default()
    };
    let traced = chaos::run_matrix(&traced_opts, windows, window_secs);
    trace::emit(&traced_opts, &traced);

    assert_eq!(
        canonical_csv(&untraced),
        canonical_csv(&traced),
        "exporting the journal and metrics must not change any output byte"
    );

    // And the emitted journal is a faithful, parseable account: every
    // ATOM window carries the MAPE-K decision with live solver counters.
    let jsonl = std::fs::read_to_string(dir.join("trace.jsonl")).expect("journal written");
    let events = Journal::parse_jsonl(&jsonl).expect("journal re-parses through serde");
    let atom_decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.record {
            Record::Decision(d) if d.scaler == "ATOM" => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(atom_decisions.len(), windows);
    let searched = atom_decisions
        .iter()
        .filter_map(|d| d.evaluator.as_ref())
        .filter(|ev| ev.solves > 0 && ev.solver_iterations > 0)
        .count();
    assert!(
        searched > 0,
        "at least one chaos window must journal a live candidate search"
    );
    let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics written");
    assert!(metrics.contains("# TYPE atom_solves_total counter"));
}

/// Span sampling is observational: enabling it (even at rate 1.0, with
/// the model audit running every window) leaves every experiment output
/// byte identical, and a zero rate is inert no matter what seed the
/// sampler was handed.
#[test]
fn span_sampling_on_vs_off_is_bitwise_identical() {
    let windows = 3usize;
    let window_secs = 60.0;
    let opts = HarnessOptions {
        quick: true,
        ..Default::default()
    };
    let shop = SockShop::default();
    let workload = || scenarios::evaluation_workload(scenarios::ordering_mix(), 1500);
    let run = |cluster: ClusterOptions| {
        run_one_with_cluster(
            &shop,
            workload(),
            ScalerKind::Atom,
            windows,
            window_secs,
            &opts,
            cluster,
        )
    };

    let base = run(ClusterOptions::new().with_seed(opts.seed));
    let sampled = run(ClusterOptions::new()
        .with_seed(opts.seed)
        .with_span_sampling(1.0, opts.seed));
    let zero_rate = run(ClusterOptions::new()
        .with_seed(opts.seed)
        .with_span_sampling(0.0, 0xDEAD_BEEF));

    assert_eq!(
        canonical_csv(std::slice::from_ref(&base)),
        canonical_csv(std::slice::from_ref(&sampled)),
        "span sampling must not change any output byte"
    );
    // A zero rate is fully disabled: even the journal (solver counters
    // included) matches the unsampled run byte for byte.
    assert_eq!(
        canonical_csv(std::slice::from_ref(&base)),
        canonical_csv(std::slice::from_ref(&zero_rate)),
    );
    assert_eq!(
        trace::journal_of(std::slice::from_ref(&base)).to_jsonl(),
        trace::journal_of(std::slice::from_ref(&zero_rate)).to_jsonl(),
        "a zero-rate sampler must leave the journal bitwise identical"
    );
    assert!(zero_rate.telemetry.spans.is_empty());

    // Tail bias is equally observational: a zero rate with the tail
    // keeper armed records exactly the slowest root per window and still
    // changes no output byte.
    let tail = run(ClusterOptions::new()
        .with_seed(opts.seed)
        .with_span_sampling(0.0, opts.seed)
        .with_span_tail(true));
    assert_eq!(
        canonical_csv(std::slice::from_ref(&base)),
        canonical_csv(std::slice::from_ref(&tail)),
        "tail-biased sampling must not change any output byte"
    );
    assert!(tail.reports.iter().all(|w| w.span_stats.is_some()));
    assert_eq!(
        tail.telemetry
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .count(),
        windows,
        "rate 0 + tail keeps exactly one root request per window"
    );

    // The sampled run actually produced the observability artefacts the
    // inert runs lack: spans, per-window aggregates, and drift audits.
    assert!(!sampled.telemetry.spans.is_empty());
    assert!(sampled.reports.iter().all(|w| w.span_stats.is_some()));
    let audited = sampled
        .telemetry
        .decisions
        .iter()
        .flatten()
        .filter(|d| d.drift.is_some())
        .count();
    assert!(
        audited > 0,
        "span-sampled ATOM windows must audit the model"
    );
    assert!(base.telemetry.spans.is_empty());
    assert!(base
        .telemetry
        .decisions
        .iter()
        .flatten()
        .all(|d| d.drift.is_none()));
}

/// A `ForecastConfig` with `enabled: false` must be inert whatever its
/// seasonal period: the seed path (default config) and a disabled config
/// with a period set produce bitwise-identical experiment outputs.
#[test]
fn disabled_forecast_config_is_bitwise_inert() {
    let windows = 3usize;
    let window_secs = 60.0;
    let opts = HarnessOptions {
        quick: true,
        ..Default::default()
    };
    let shop = SockShop::default();
    let workload = || scenarios::evaluation_workload(scenarios::ordering_mix(), 1500);

    // Seed path: the standard harness wiring, forecast left at default.
    let seed_path = run_one_with_cluster(
        &shop,
        workload(),
        ScalerKind::Atom,
        windows,
        window_secs,
        &opts,
        ClusterOptions::new().with_seed(opts.seed),
    );

    // Same experiment, wired by hand with a disabled forecast that names
    // a seasonal period.
    let w = workload();
    let binding = shop.binding(scenarios::INITIAL_USERS, w.think_time, w.mix.fractions());
    let mut cfg = AtomConfig::new(shop.objective());
    cfg.ga.budget = atom_ga::Budget::Evaluations(opts.ga_budget());
    cfg.ga.seed = opts.seed;
    cfg.forecast = atom_core::ForecastConfig {
        enabled: false,
        season_windows: 13,
    };
    let mut atom = Atom::new(binding, cfg);
    let scrambled = run_experiment(
        &shop.app_spec(),
        w,
        &mut atom,
        ExperimentConfig {
            windows,
            window_secs,
            cluster: ClusterOptions::new().with_seed(opts.seed),
        },
    )
    .expect("experiment must run");

    assert_eq!(
        canonical_csv(std::slice::from_ref(&seed_path)),
        canonical_csv(std::slice::from_ref(&scrambled)),
        "a disabled ForecastConfig must not perturb any output byte"
    );
}

/// The proactive journal round-trips: every warm ATOM-P window carries a
/// forecast record whose fields honour the guardrail invariants, and the
/// JSONL re-parses through the `atom-obs` schema.
#[test]
fn proactive_journal_round_trips_with_forecast_fields() {
    let windows = 5usize;
    let opts = HarnessOptions {
        quick: true,
        ..Default::default()
    };
    let shop = SockShop::default();
    let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 1500);
    let result = run_one_with_cluster(
        &shop,
        workload,
        ScalerKind::AtomP { season_windows: 0 },
        windows,
        60.0,
        &opts,
        ClusterOptions::new().with_seed(opts.seed),
    );
    assert_eq!(result.scaler, "ATOM-P");

    let jsonl = trace::journal_of(std::slice::from_ref(&result)).to_jsonl();
    let events = Journal::parse_jsonl(&jsonl).expect("journal re-parses through serde");
    let forecasts: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.record {
            Record::Decision(d) if d.scaler == "ATOM-P" => d.forecast.as_ref(),
            _ => None,
        })
        .collect();
    assert!(
        !forecasts.is_empty(),
        "warm ATOM-P windows must journal forecast records"
    );
    for fc in forecasts {
        assert!(fc.predicted.is_finite() && fc.predicted >= 0.0, "{fc:?}");
        assert!(fc.planned.is_finite(), "{fc:?}");
        assert!(
            fc.planned >= fc.observed,
            "never plan below the observation: {fc:?}"
        );
        assert!(fc.horizon > 0.0, "{fc:?}");
        assert!(!fc.model.is_empty(), "{fc:?}");
    }
}
