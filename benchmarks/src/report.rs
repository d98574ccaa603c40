//! The metric catalogue, the output formats and the compare rule.

use serde_json::{Map, Value};

use crate::json::{num, obj, text, uint};
use crate::runner::{Metric, Outcome};
use crate::stats::{high_percentile, mean, Summary};

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// The four workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "des-sockshop",
        "Sock Shop DES, N=250, no scaler: many groups with few jobs each, so calendar, request-chain and window-accumulator cost dominate and the decide path does nothing",
    ),
    (
        "des-wide",
        "one-service DES at N=1e6: a million pending think timers and hundreds of jobs per group, the regime where events/s falls; same layers as des-sockshop used the opposite way",
    ),
    (
        "decide-sweep",
        "controller only, on recorded windows from light to saturated: LQN solve, evaluator memo, GA and planner do all the work and the DES none",
    ),
    (
        "mapek-ramp",
        "the paper's closed loop end to end on three mixes with span sampling and a two-rack fabric on: both hot paths at their real ratio, and the only source of T_u, A_u and drift sMAPE",
    ),
];

/// End-to-end metrics: name, unit, better direction, regression bound
/// (share of the parent's median). Every workload reports every one.
pub const END_TO_END: [(&str, &str, Better, f64); 3] = [
    ("setup_s", "s", Lower, 0.25),
    ("wall_s_per_sim_hour", "s", Lower, 0.15),
    ("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics: name, unit, better direction. Unbounded: they say
/// where an end-to-end change comes from.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // What the workload's untraced repetitions counted.
    ("window_wall_ms_p50", "ms", Lower),
    ("events_per_wall_s", "1/s", Higher),
    ("evals_per_wall_s", "1/s", Higher),
    ("decide_wall_ms_p50", "ms", Lower),
    ("decide_wall_ms_p90", "ms", Lower),
    ("tu_s", "s", Lower),
    ("au_core_s", "core-s", Lower),
    ("model_tps_err_pct", "%", Lower),
    ("model_residence_smape", "ratio", Lower),
    ("cluster.run_window.wall_ms_p50", "ms", Lower),
    ("cluster.run_window.events", "count", Lower),
    ("cluster.run_window.requests", "count", Higher),
    ("cluster.take_spans_us", "us", Lower),
    ("cluster.schedule_scaling_us", "us", Lower),
    ("core.decide.actions", "count", Lower),
    // The traced repetition.
    ("trace.spans", "count", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("trace.residual_pct", "%", Lower),
    ("trace.share_pct.setup", "%", Lower),
    ("trace.share_pct.cluster.new", "%", Lower),
    ("trace.share_pct.cluster.run_window", "%", Lower),
    ("trace.share_pct.cluster.take_spans", "%", Lower),
    ("trace.share_pct.scaler.decide", "%", Lower),
    ("trace.share_pct.cluster.schedule_scaling", "%", Lower),
    ("trace.share_pct.fold", "%", Lower),
    // The layer suite.
    ("sim.wheel.push_ns.p1e3", "ns", Lower),
    ("sim.wheel.pop_ns.p1e3", "ns", Lower),
    ("sim.wheel.push_ns.p1e6", "ns", Lower),
    ("sim.wheel.pop_ns.p1e6", "ns", Lower),
    ("sim.calendar.push_pop_ns.p1e3", "ns", Lower),
    ("sim.processor.add_ns.j16", "ns", Lower),
    ("sim.processor.complete_ns.j16", "ns", Lower),
    ("sim.processor.add_ns.j1024", "ns", Lower),
    ("sim.processor.complete_ns.j1024", "ns", Lower),
    ("sim.processor.set_cap_ns.j1024", "ns", Lower),
    ("net.fabric.round_trip_ns", "ns", Lower),
    ("net.delay.round_trip_ns", "ns", Lower),
    ("cluster.new_ms.n1e6", "ms", Lower),
    ("cluster.run_window.ns_per_event.n1e3", "ns", Lower),
    ("cluster.run_window.ns_per_event.n1e5", "ns", Lower),
    ("cluster.run_window.ns_per_event.n1e6", "ns", Lower),
    ("cluster.spans.overhead_pct", "%", Lower),
    ("cluster.spans.recorded", "count", Higher),
    ("cluster.net.overhead_pct", "%", Lower),
    ("cluster.net.transits", "count", Higher),
    ("cluster.backend.fluid_step_us", "us", Lower),
    (
        "cluster.backend.hybrid_wall_s_per_sim_hour.n1e4",
        "s",
        Lower,
    ),
    ("cluster.backend.switches", "count", Lower),
    ("mva.exact_us.n1024", "us", Lower),
    ("mva.amva_us.n1e6", "us", Lower),
    ("lqn.solve_cold_us", "us", Lower),
    ("lqn.solve_warm_us", "us", Lower),
    ("lqn.solve_cold_iterations", "count", Lower),
    ("lqn.solve_warm_iterations", "count", Lower),
    ("lqn.sim.requests_per_wall_s", "1/s", Higher),
    ("core.binding.build_us", "us", Lower),
    ("ga.generation_us", "us", Lower),
    ("core.evaluator.hit_ns", "ns", Lower),
    ("core.evaluator.miss_us", "us", Lower),
    ("core.evaluator.batch16_us", "us", Lower),
    ("core.optimizer.search_ms", "ms", Lower),
    ("core.evaluator.hit_rate", "ratio", Higher),
    ("core.evaluator.solves", "count", Lower),
    ("core.evaluator.hits", "count", Higher),
    ("ga.generations", "count", Lower),
    ("forecast.ensemble.step_us", "us", Lower),
    ("obs.journal.push_ns", "ns", Lower),
    ("obs.registry.render_us", "us", Lower),
];

/// All per-layer metrics in reporting order.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    PER_LAYER.iter().copied()
}

/// The catalogue's unit of `name`.
///
/// # Panics
///
/// Panics on a name the catalogue does not hold: a metric is reported
/// under a catalogued name or not at all.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(per_layer().map(|(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn manifest(run_seconds: u64) -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|&(name, why)| obj([("name", text(name)), ("why", text(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            obj([
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.as_str())),
                ("bound", num(bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .map(|(name, unit, better)| {
            obj([
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.as_str())),
            ])
        })
        .collect();
    obj([
        (
            "command",
            Value::Array(vec![text("bash"), text("benchmarks/run.sh")]),
        ),
        ("paths", Value::Array(vec![text("benchmarks")])),
        ("run_seconds", uint(run_seconds)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(layers)),
    ])
}

fn metric_map(metrics: &[Metric], with_spread: bool) -> Value {
    let mut m = Map::new();
    for metric in metrics {
        let mut entry = Map::new();
        entry.insert("value".into(), num(metric.value));
        entry.insert("unit".into(), text(metric.unit));
        if let (true, Some(s)) = (with_spread, &metric.spread) {
            entry.insert("spread".into(), s.to_json());
        }
        m.insert(metric.name.to_string(), Value::Object(entry));
    }
    Value::Object(m)
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run,
/// the per-layer metrics of a traced one.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = if outcome.args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let line = obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", uint(outcome.tally.attempted)),
        ("failed", uint(outcome.tally.failed)),
        ("metrics", metric_map(metrics, false)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serialises")
}

/// The detail file of one run: everything [`result_line`] says plus
/// spreads, the digest, the trace's breakdown and the failure messages.
pub fn detail(outcome: &Outcome) -> Value {
    let mut doc = Map::new();
    doc.insert("workload".into(), text(outcome.workload));
    doc.insert("seed".into(), uint(outcome.args.seed));
    doc.insert("seconds".into(), num(outcome.args.seconds));
    doc.insert("traced".into(), Value::Bool(outcome.args.trace));
    doc.insert("correct".into(), Value::Bool(outcome.correct));
    doc.insert("attempted".into(), uint(outcome.tally.attempted));
    doc.insert("failed".into(), uint(outcome.tally.failed));
    doc.insert(
        "failed_ops_share".into(),
        num(outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64),
    );
    doc.insert(
        "messages".into(),
        Value::Array(outcome.tally.messages.iter().map(|m| text(m)).collect()),
    );
    doc.insert("repetitions".into(), uint(outcome.reps as u64));
    doc.insert("window_samples".into(), uint(outcome.samples.0 as u64));
    doc.insert("decide_samples".into(), uint(outcome.samples.1 as u64));
    doc.insert(
        "sim_digest".into(),
        text(&format!("{:016x}", outcome.sim_digest)),
    );
    doc.insert("end_to_end".into(), metric_map(&outcome.end_to_end, true));
    if let Some(trace) = &outcome.trace {
        doc.insert("per_layer".into(), metric_map(&outcome.per_layer, true));
        let run = trace.breakdown.run.max(1) as f64;
        let names = trace
            .breakdown
            .names
            .iter()
            .map(|(name, s)| {
                (
                    name.to_string(),
                    obj([
                        ("count", uint(s.count)),
                        ("total_ms", num(s.total as f64 / 1e6)),
                        ("self_ms", num(s.self_time as f64 / 1e6)),
                        ("share_pct", num(100.0 * s.self_time as f64 / run)),
                    ]),
                )
            })
            .collect();
        doc.insert("trace".into(), Value::Object(names));
        if let Some(shares) = attribution(outcome) {
            let shares = shares
                .into_iter()
                .map(|(label, pct)| (label.to_string(), num(pct)))
                .collect();
            doc.insert("run_window_estimate_pct".into(), Value::Object(shares));
        }
    }
    Value::Object(doc)
}

/// Linear interpolation of a cost measured at two operating points
/// `(x0, y0)` and `(x1, y1)`, clamped to that range.
fn interpolate(x: f64, (x0, y0): (f64, f64), (x1, y1): (f64, f64)) -> f64 {
    y0 + ((x - x0) / (x1 - x0)).clamp(0.0, 1.0) * (y1 - y0)
}

/// An *estimate*, from outside the program, of where the traced
/// repetition's `cluster.run_window` wall time went: the cluster's event
/// and job counters times the layer suite's cost per operation at the
/// run's operating point (pending think timers for the calendar, jobs
/// per processor for the processors). Each entry is a share of the
/// `run_window` wall time in percent; `unattributed` is the remainder —
/// request chains, RNG draws, window accumulators, the span layer. Not a
/// measurement: the counters are exact, the costs come from synthetic
/// loops. Only for the DES-only workloads (`None` once a controller
/// decides, or without a trace): under a saturating ramp most requests
/// in the system queue for a thread, not for a processor.
pub fn attribution(outcome: &Outcome) -> Option<Vec<(&'static str, f64)>> {
    let rep = &outcome.trace.as_ref()?.rep;
    let wall_ns = rep.run_window_ms.iter().sum::<f64>() * 1e6;
    if rep.events == 0 || wall_ns <= 0.0 || !rep.decide_ms.is_empty() {
        return None;
    }
    let layer = |name: &str| {
        outcome
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let pending = mean(&rep.avg_users) - mean(&rep.avg_in_system);
    let per_processor = mean(&rep.avg_in_system) / rep.servers.max(1) as f64;
    let wheel = |op: &str| {
        interpolate(
            pending,
            (1e3, layer(&format!("sim.wheel.{op}_ns.p1e3"))),
            (1e6, layer(&format!("sim.wheel.{op}_ns.p1e6"))),
        )
    };
    let processor = |op: &str| {
        interpolate(
            per_processor,
            (16.0, layer(&format!("sim.processor.{op}_ns.j16"))),
            (1024.0, layer(&format!("sim.processor.{op}_ns.j1024"))),
        )
    };
    let calendar = rep.events as f64 * (wheel("push") + wheel("pop"));
    let processors = rep.jobs * (processor("add") + processor("complete"));
    let fabric = rep.net_transits as f64 * layer("net.fabric.round_trip_ns");
    let pct = |ns: f64| 100.0 * ns / wall_ns;
    Some(vec![
        ("calendar (TimerWheel push + pop)", pct(calendar)),
        ("processors (PsProcessor add + complete)", pct(processors)),
        ("link fabric (round trips)", pct(fabric)),
        (
            "unattributed",
            pct(wall_ns - calendar - processors - fabric),
        ),
    ])
}

/// Prints every metric of `outcome` by name with its unit.
pub fn print_metrics(outcome: &Outcome) {
    println!(
        "# {} seed {} — {} repetitions, {} of {} operations failed, digest {:016x}",
        outcome.workload,
        outcome.args.seed,
        outcome.reps,
        outcome.tally.failed,
        outcome.tally.attempted,
        outcome.sim_digest
    );
    let tail = |n: usize| match high_percentile(n) {
        Some(p) => format!("{n} samples, ten or more beyond p{p}"),
        None => format!("{n} samples, fewer than ten beyond the median"),
    };
    println!("# window steps timed: {}", tail(outcome.samples.0));
    if outcome.samples.1 > 0 {
        println!("# decisions timed: {}", tail(outcome.samples.1));
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        match &m.spread {
            Some(s) if s.n > 1 => println!(
                "{:<48} {:>16.4} {:<7} mad {:.4} min {:.4} max {:.4} n {}",
                m.name, m.value, m.unit, s.mad, s.min, s.max, s.n
            ),
            _ => println!("{:<48} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    if let Some(trace) = &outcome.trace {
        println!("# trace: self time per span name (run = set-up + one repetition)");
        let run = trace.breakdown.run.max(1) as f64;
        for (name, s) in &trace.breakdown.names {
            println!(
                "#   {:<28} count {:>6}  self {:>10.3} ms  {:>6.2} %",
                name,
                s.count,
                s.self_time as f64 / 1e6,
                100.0 * s.self_time as f64 / run
            );
        }
    }
    if let Some(shares) = attribution(outcome) {
        println!("# estimate (counters x layer costs, not a measurement) of cluster.run_window wall time:");
        for (label, pct) in shares {
            println!("#   {label:<44} {pct:>6.1} %");
        }
    }
    for message in &outcome.tally.messages {
        println!("# FAILED: {message}");
    }
}

/// Verdict of comparing one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The spread exceeds the bound and the two sides' ranges overlap:
    /// the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The compare rule. `a` is the parent side, `b` the change. The change
/// is *worse* when its median is worse than the parent's by more than
/// `bound` (a share of the parent's median), *better* when it is better
/// by more than that. When either side's interquartile spread is wider
/// than the bound and the two sides' ranges overlap, the runs cannot
/// resolve a difference of that size and the row is *unresolved*.
pub fn compare_rule(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worsening = match better {
        Lower => (b.median - a.median) / base,
        Higher => (a.median - b.median) / base,
    };
    let noisy = a.spread().max(b.spread()) > bound;
    let overlap = a.min <= b.max && b.min <= a.max;
    if noisy && overlap {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// A metric of a results file: `workloads.<w>.<run>.<group>.<metric>`,
/// where the end-to-end metrics are the untraced run's and the per-layer
/// metrics the traced run's.
fn spread_of(results: &Value, workload: &str, group: &str, metric: &str) -> Option<Summary> {
    let run = if group == "per_layer" {
        "traced"
    } else {
        "untraced"
    };
    let m = results
        .get("workloads")?
        .get(workload)?
        .get(run)?
        .get(group)?
        .get(metric)?;
    match m.get("spread") {
        Some(s) => Summary::from_json(s),
        None => m
            .get("value")
            .and_then(Value::as_f64)
            .map(|v| Summary::of(&[v])),
    }
}

/// Compares two results files row by row; returns the printed table and
/// the number of *worse* rows.
pub fn compare(a: &Value, b: &Value) -> (String, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "{:<14} {:<44} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (workload, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let (Some(sa), Some(sb)) = (
                spread_of(a, workload, "end_to_end", metric),
                spread_of(b, workload, "end_to_end", metric),
            ) else {
                let _ = writeln!(out, "{workload:<14} {metric:<44} missing on one side");
                continue;
            };
            let verdict = compare_rule(&sa, &sb, better, bound);
            worse += usize::from(verdict == Verdict::Worse);
            let _ = writeln!(
                out,
                "{workload:<14} {metric:<44} {:>14.4} {:>14.4} {:>+7.1}%  {} (bound {:.0}%, spread A {:.1}% B {:.1}%)",
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE),
                verdict.as_str(),
                100.0 * bound,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
            );
        }
        let digest = |r: &Value| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("untraced"))
                .and_then(|w| w.get("sim_digest"))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let _ = writeln!(
            out,
            "{workload:<14} {:<44} {}",
            "sim_digest",
            match (digest(a), digest(b)) {
                (Some(x), Some(y)) if x == y => "identical".to_string(),
                (Some(x), Some(y)) => format!("differs ({x} vs {y}): simulated behaviour moved"),
                _ => "missing on one side".to_string(),
            }
        );
        for (metric, _, _) in per_layer() {
            let (Some(sa), Some(sb)) = (
                spread_of(a, workload, "per_layer", metric),
                spread_of(b, workload, "per_layer", metric),
            ) else {
                continue;
            };
            let change = if sa.median == 0.0 {
                0.0
            } else {
                100.0 * (sb.median - sa.median) / sa.median.abs()
            };
            let _ = writeln!(
                out,
                "{workload:<14} {metric:<44} {:>14.4} {:>14.4} {:>+7.1}%  (per layer, unbounded)",
                sa.median, sb.median, change
            );
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn the_compare_rule_uses_the_bound_and_both_spreads() {
        let a = summary(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // +3 % on a lower-is-better metric with a 10 % bound: unchanged.
        let b = summary(&[103.0, 104.0, 102.0, 103.5, 102.5]);
        assert_eq!(compare_rule(&a, &b, Lower, 0.10), Verdict::Unchanged);
        // +20 %: worse; the same numbers on a higher-is-better metric: better.
        let c = summary(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(compare_rule(&a, &c, Lower, 0.10), Verdict::Worse);
        assert_eq!(compare_rule(&a, &c, Higher, 0.10), Verdict::Better);
        assert_eq!(compare_rule(&c, &a, Lower, 0.10), Verdict::Better);
        // A side whose spread exceeds the bound, ranges overlapping:
        // unresolved, whatever the medians say.
        let noisy = summary(&[80.0, 100.0, 125.0, 90.0, 140.0]);
        assert_eq!(compare_rule(&a, &noisy, Lower, 0.10), Verdict::Unresolved);
        assert_eq!(compare_rule(&noisy, &a, Lower, 0.10), Verdict::Unresolved);
        // Noisy but disjoint: every run of B beats every run of A.
        let far = summary(&[40.0, 50.0, 60.0, 45.0, 55.0]);
        assert_eq!(compare_rule(&a, &far, Lower, 0.10), Verdict::Better);
        // Single samples fall back to the plain bound.
        assert_eq!(
            compare_rule(&summary(&[10.0]), &summary(&[10.5]), Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            compare_rule(&summary(&[10.0]), &summary(&[12.0]), Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        for (name, unit, _, bound) in END_TO_END {
            assert!(
                name_ok(name) && unit_ok(unit) && seen.insert(name),
                "{name}"
            );
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (name, unit, _) in per_layer() {
            assert!(
                name_ok(name) && unit_ok(unit) && seen.insert(name),
                "{name}"
            );
        }
        assert!(per_layer().count() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, b, _)| (n, u, b) == ("setup_s", "s", Lower)));
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&committed).expect("valid JSON");
        let seconds = committed
            .get("run_seconds")
            .and_then(Value::as_u64)
            .unwrap();
        assert_eq!(committed, manifest(seconds));
    }

    #[test]
    fn compare_reads_results_files() {
        let side = |wall: f64| {
            let metric = obj([
                ("value", num(wall)),
                ("unit", text("s")),
                (
                    "spread",
                    summary(&[wall, wall * 1.01, wall * 0.99]).to_json(),
                ),
            ]);
            let run = obj([
                ("end_to_end", obj([("wall_s_per_sim_hour", metric)])),
                ("sim_digest", text("00ff")),
            ]);
            obj([("workloads", obj([("des-wide", obj([("untraced", run)]))]))])
        };
        let (table, worse) = compare(&side(10.0), &side(13.0));
        assert_eq!(worse, 1);
        assert!(
            table.contains("worse") && table.contains("identical"),
            "{table}"
        );
        let (_, worse) = compare(&side(10.0), &side(10.2));
        assert_eq!(worse, 0);
    }
}
