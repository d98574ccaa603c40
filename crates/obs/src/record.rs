//! The journal's record types: what one line of the JSONL trace says.
//!
//! The head of the taxonomy is the per-window MAPE-K [`DecisionRecord`]:
//! everything ATOM (or a baseline) knew, computed, chose, and actuated
//! in one monitoring window. Records are plain data — service names are
//! strings, not ids — so the journal is readable without the model that
//! produced it and the schema is stable against internal refactors
//! (CI's `repro --smoke --trace-out` step re-parses every emitted line
//! through these types).

use std::fmt::Write;

use serde::{Deserialize, Serialize};

/// One journal line. Externally tagged: `{"Decision": {...}}`,
/// `{"Run": {...}}`, or `{"Note": "..."}`.
// Nearly every journal entry is a `Decision`, so boxing the large
// variant would add an allocation per record while saving memory only
// on the rare `Run`/`Note` lines.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// A per-window MAPE-K decision.
    Decision(DecisionRecord),
    /// A per-experiment summary emitted once at the end of a run.
    Run(RunRecord),
    /// A free-form annotation.
    Note(String),
}

/// What the controller observed, estimated, evaluated, chose, and
/// actuated in one monitoring window — the full MAPE-K loop, journaled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Monitoring-window index (0-based) within the experiment.
    pub window: u64,
    /// Simulated time at which the decision was taken (window end, s).
    pub time: f64,
    /// Controller name ("ATOM", "UH", "UV", ...).
    pub scaler: String,
    /// Monitor: the telemetry snapshot the decision was based on.
    pub snapshot: TelemetrySnapshot,
    /// Analyze: per-service demand estimates fed to the model (empty for
    /// rule-based baselines, which do not estimate demands).
    pub demands: Vec<ServiceDemand>,
    /// Plan: candidate-evaluation counters for this window's search
    /// (`None` for baselines — they evaluate no candidates).
    pub evaluator: Option<SolveCounters>,
    /// Plan: GA convergence statistics (`None` when no search ran).
    pub ga: Option<GaGenerations>,
    /// The chosen configuration per touched service.
    pub chosen: Vec<ChosenAction>,
    /// Execute: what was actually issued to the cluster, and why.
    pub actuation: ActuationOutcome,
    /// Analyze: the workload forecast the plan was built against
    /// (`None` for reactive controllers or before forecasting warms up).
    #[serde(default)]
    pub forecast: Option<ForecastRecord>,
    /// Knowledge: the model audit for this window — LQN predictions made
    /// for the previously actuated configuration compared against the
    /// span aggregates observed under it (`None` unless span sampling is
    /// enabled and a prediction exists to score).
    #[serde(default)]
    pub drift: Option<DriftRecord>,
    /// Monitor: the configuration in force when the window closed, per
    /// scalable service (what a plan is diffed against).
    #[serde(default)]
    pub incumbent: Vec<ChosenAction>,
    /// Analyze: the layered-bottleneck diagnosis of the incumbent (paper
    /// §V-B, Fig. 11), one entry per root bottleneck. `None` when there
    /// is no diagnosis (a hold, a failed solve, a rule-based scaler);
    /// empty when no service is saturated.
    #[serde(default)]
    pub bottlenecks: Option<Vec<BottleneckRecord>>,
}

impl DecisionRecord {
    /// The record as the monitor phase opens it: identity and snapshot
    /// set, every later phase empty, and an actuation that holds as
    /// `"unreached"` until the execute phase overwrites it.
    pub fn new(window: u64, time: f64, scaler: &str, snapshot: TelemetrySnapshot) -> Self {
        DecisionRecord {
            window,
            time,
            scaler: scaler.into(),
            snapshot,
            demands: Vec::new(),
            evaluator: None,
            ga: None,
            chosen: Vec::new(),
            actuation: ActuationOutcome::hold("unreached"),
            forecast: None,
            drift: None,
            incumbent: Vec::new(),
            bottlenecks: None,
        }
    }

    /// The operator's one-line account of the window: the diagnosis of
    /// the incumbent (when it has one), what the plan changes in it and
    /// the evaluator's counters (when the window planned), then ` | ` and
    /// the actuation reason; either half alone when the other is missing.
    /// For example `root bottleneck: carts (util 97%), starving front-end;
    /// plan: carts: 1x0.50 -> 2x0.50 [410 candidates, 112 solves, 298 cache
    /// hits (72.7% hit-rate), 0 failures]`.
    pub fn explanation(&self) -> Option<String> {
        let planned = self.bottlenecks.is_some() || self.evaluator.is_some();
        let diagnosis = planned.then(|| self.diagnosis());
        match (diagnosis, &self.actuation.reason) {
            (Some(d), Some(reason)) => Some(format!("{d} | {reason}")),
            (d, reason) => d.or_else(|| reason.clone()),
        }
    }

    /// The first half of [`DecisionRecord::explanation`]: the incumbent's
    /// root bottlenecks, the plan against the incumbent, the evaluator
    /// counters.
    fn diagnosis(&self) -> String {
        let mut text = String::new();
        let roots = self.bottlenecks.as_deref().unwrap_or_default();
        for b in roots {
            let util = b.utilization * 100.0;
            let _ = write!(text, "root bottleneck: {} (util {util:.0}%)", b.service);
            if !b.starving.is_empty() {
                let _ = write!(text, ", starving {}", b.starving.join(", "));
            }
            text.push_str("; ");
        }
        if self.bottlenecks.as_ref().is_some_and(Vec::is_empty) {
            text.push_str("no saturated service; ");
        }
        let plan: Vec<String> = self
            .chosen
            .iter()
            .filter_map(|new| {
                let old = self.incumbent.iter().find(|o| o.service == new.service)?;
                let ((r, s), (r2, s2)) = ((old.replicas, old.share), (new.replicas, new.share));
                (old != new).then(|| format!("{}: {r}x{s:.2} -> {r2}x{s2:.2}", new.service))
            })
            .collect();
        if plan.is_empty() {
            text.push_str("keeping the current configuration");
        } else {
            let _ = write!(text, "plan: {}", plan.join(", "));
        }
        if let Some(ev) = &self.evaluator {
            let hit_rate = 100.0 * (ev.cache_hits as f64 / ev.candidates.max(1) as f64);
            let (n, solves, hits, failures) =
                (ev.candidates, ev.solves, ev.cache_hits, ev.failures);
            let _ = write!(text, " [{n} candidates, {solves} solves, {hits} cache hits");
            let _ = write!(text, " ({hit_rate:.1}% hit-rate), {failures} failures]");
        }
        text
    }
}

/// The monitor-phase snapshot a decision was based on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Concurrent users at window end.
    pub users: u64,
    /// Completed client requests/second over the window.
    pub observed_tps: f64,
    /// Peak sub-interval client request issue rate (requests/second).
    pub peak_arrival_rate: f64,
    /// Fraction of the window the monitoring plane was dark (0–1).
    pub monitor_dropout: f64,
    /// Whether the controller classified the window as degraded (the
    /// scrape-based counters were untrustworthy).
    pub degraded: bool,
    /// Population backend the window ran on ("per-user" or "fluid";
    /// empty in journals written before the hybrid backend existed).
    #[serde(default)]
    pub backend: String,
    /// Backend handovers the hybrid policy performed within the window.
    #[serde(default)]
    pub backend_switches: u64,
}

/// The analyze-phase workload forecast a proactive decision planned
/// against — observed vs predicted load and which guardrails fired.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForecastRecord {
    /// Name of the forecasting model that answered ("naive", "trend",
    /// "holt", "seasonal", "burst").
    pub model: String,
    /// Actuation horizon the forecast targeted (seconds ahead of the
    /// window end).
    pub horizon: f64,
    /// Concurrent users observed at window end.
    pub observed: f64,
    /// Raw model prediction for `observed` at `time + horizon`.
    pub predicted: f64,
    /// The load the plan was actually built for, after the envelope
    /// clamp and the never-scale-down-on-forecast floor.
    pub planned: f64,
    /// Rolling one-step-ahead sMAPE of the answering model (`None`
    /// until it has been scored against at least one observation).
    pub rolling_smape: Option<f64>,
    /// Whether the accuracy guardrail discarded the forecast and the
    /// window was planned reactively.
    pub fallback: bool,
    /// Whether the envelope clamp changed the prediction.
    pub clamped: bool,
}

/// The knowledge-phase model audit for one window: how far the LQN's
/// per-station predictions drifted from what sampled spans observed.
///
/// The prediction is the one made when the scored configuration was
/// *actuated* (one or more windows earlier), so each record compares a
/// genuine forecast against its own outcome — not a postdiction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftRecord {
    /// Monitoring window the *prediction* was made in (the observation
    /// window is the enclosing [`DecisionRecord`]'s).
    pub predicted_window: u64,
    /// Per-service prediction-vs-observation rows.
    pub services: Vec<ServiceDrift>,
    /// Rolling mean sMAPE of per-service residence predictions over the
    /// last few audited windows (`None` until the first audit).
    pub rolling_smape: Option<f64>,
    /// Rolling mean sMAPE of per-service *network* residence predictions
    /// over the last few audited windows. `None` unless a network
    /// topology gives the model a network term to be wrong about, so
    /// topology-free journals are unchanged.
    #[serde(default)]
    pub network_rolling_smape: Option<f64>,
}

/// One service's model-vs-measurement drift in one audited window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDrift {
    /// Service name.
    pub service: String,
    /// LQN-predicted mean residence (queue wait + service) per visit (s).
    pub predicted_residence: f64,
    /// Span-observed mean residence per visit (s).
    pub observed_residence: f64,
    /// Signed relative residence error `(predicted - observed) /
    /// observed` (positive = model overestimates).
    pub residence_error: f64,
    /// LQN-predicted station utilisation (0–1 per replica-thread pool).
    pub predicted_utilization: f64,
    /// Monitor-observed service utilisation over the window.
    pub observed_utilization: f64,
    /// Signed utilisation error `predicted - observed`.
    pub utilization_error: f64,
    /// Sampled spans the observation is based on.
    pub samples: u64,
    /// LQN-predicted mean network transit into this service per visit
    /// (s) — the analytic `net_delay` term, no link queueing. `None`
    /// when neither side has a network figure (no topology configured).
    #[serde(default)]
    pub predicted_network: Option<f64>,
    /// Span-observed mean network transit into this service per visit
    /// (s), link queueing included. `None` alongside
    /// [`ServiceDrift::predicted_network`].
    #[serde(default)]
    pub observed_network: Option<f64>,
}

/// One service's estimated CPU demand (seconds per request).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDemand {
    /// Service name.
    pub service: String,
    /// Estimated demand (s).
    pub demand: f64,
}

/// Candidate-evaluation counters for one planning window (the delta of
/// `atom-core`'s `EvaluatorStats` over the window's search).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveCounters {
    /// Candidates submitted for evaluation.
    pub candidates: u64,
    /// LQN solves actually performed.
    pub solves: u64,
    /// Candidates answered from the memo table.
    pub cache_hits: u64,
    /// Candidates whose solve failed (infeasible/invalid model).
    pub failures: u64,
    /// Total layered sweeps of the LQN solver across the window's
    /// solves.
    pub solver_iterations: u64,
}

/// GA convergence statistics for one planning window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaGenerations {
    /// Generations the GA ran.
    pub generations: u64,
    /// Fitness evaluations consumed.
    pub evaluations: u64,
    /// Best feasible objective per generation (`None` until the first
    /// feasible individual appears — avoids NaN in JSON).
    pub best: Vec<Option<f64>>,
    /// Mean finite objective per generation (`None` when no individual
    /// had a finite objective).
    pub mean: Vec<Option<f64>>,
    /// Children replaced by the niching pass (duplicate-genome
    /// re-mutations plus random immigrants).
    pub niche_dedup: u64,
}

/// One service's chosen configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChosenAction {
    /// Service name.
    pub service: String,
    /// Target replica count.
    pub replicas: u64,
    /// Target per-replica CPU share (cores).
    pub share: f64,
}

/// One root bottleneck: a saturated service whose own callees are not
/// saturated, and the services waiting on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BottleneckRecord {
    /// Service name.
    pub service: String,
    /// Predicted utilisation (0–1 per replica-thread pool).
    pub utilization: f64,
    /// Services starved by this one, in model order.
    pub starving: Vec<String>,
}

/// The execute-phase outcome: what reached the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActuationOutcome {
    /// Actions issued to the orchestrator this window.
    pub issued: Vec<ChosenAction>,
    /// Services whose dropped actions were re-issued (degraded mode).
    pub reissued: Vec<String>,
    /// Services whose actions were abandoned after repeated actuation
    /// failures.
    pub abandoned: Vec<String>,
    /// Whether the controller held the current configuration.
    pub held: bool,
    /// Human-readable reason for the outcome (the controller's notes,
    /// which end [`DecisionRecord::explanation`]), if any.
    pub reason: Option<String>,
}

impl ActuationOutcome {
    /// An outcome that holds the current configuration for `reason`.
    pub(crate) fn hold(reason: impl Into<String>) -> Self {
        ActuationOutcome {
            issued: Vec::new(),
            reissued: Vec::new(),
            abandoned: Vec::new(),
            held: true,
            reason: Some(reason.into()),
        }
    }
}

/// Per-experiment summary record (one per run, after the last window).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Controller name.
    pub scaler: String,
    /// Monitoring windows simulated.
    pub windows: u64,
    /// Mean completed requests/second across windows.
    pub mean_tps: f64,
    /// Mean availability across windows.
    pub mean_availability: f64,
    /// Scale actions issued over the run.
    pub actions: u64,
    /// Total discrete-event-simulator events dispatched.
    pub cluster_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_decision() -> DecisionRecord {
        DecisionRecord {
            window: 3,
            time: 1200.0,
            scaler: "ATOM".into(),
            snapshot: TelemetrySnapshot {
                users: 2000,
                observed_tps: 61.5,
                peak_arrival_rate: 80.25,
                monitor_dropout: 0.0,
                degraded: false,
                backend: "per-user".into(),
                backend_switches: 0,
            },
            demands: vec![ServiceDemand {
                service: "front-end".into(),
                demand: 0.0125,
            }],
            evaluator: Some(SolveCounters {
                candidates: 300,
                solves: 180,
                cache_hits: 120,
                failures: 0,
                solver_iterations: 5400,
            }),
            ga: Some(GaGenerations {
                generations: 5,
                evaluations: 300,
                best: vec![None, Some(-50.0), Some(-61.0)],
                mean: vec![Some(-10.0), Some(-40.0), Some(-55.5)],
                niche_dedup: 7,
            }),
            chosen: vec![ChosenAction {
                service: "front-end".into(),
                replicas: 4,
                share: 0.5,
            }],
            actuation: ActuationOutcome {
                issued: vec![ChosenAction {
                    service: "front-end".into(),
                    replicas: 4,
                    share: 0.5,
                }],
                reissued: vec![],
                abandoned: vec![],
                held: false,
                reason: None,
            },
            forecast: Some(ForecastRecord {
                model: "holt".into(),
                horizon: 180.0,
                observed: 2000.0,
                predicted: 2300.0,
                planned: 2300.0,
                rolling_smape: Some(0.08),
                fallback: false,
                clamped: false,
            }),
            drift: Some(DriftRecord {
                predicted_window: 2,
                services: vec![ServiceDrift {
                    service: "front-end".into(),
                    predicted_residence: 0.020,
                    observed_residence: 0.025,
                    residence_error: -0.2,
                    predicted_utilization: 0.55,
                    observed_utilization: 0.61,
                    utilization_error: -0.06,
                    samples: 42,
                    predicted_network: Some(0.004),
                    observed_network: Some(0.005),
                }],
                rolling_smape: Some(0.18),
                network_rolling_smape: Some(0.22),
            }),
            incumbent: vec![ChosenAction {
                service: "front-end".into(),
                replicas: 2,
                share: 0.5,
            }],
            bottlenecks: Some(vec![BottleneckRecord {
                service: "front-end".into(),
                utilization: 0.97,
                starving: vec!["carts".into()],
            }]),
        }
    }

    #[test]
    fn decision_record_round_trips_through_json() {
        // A diagnosis that found no saturated service stays distinct
        // from no diagnosis at all.
        let mut unsaturated = sample_decision();
        unsaturated.bottlenecks = Some(Vec::new());
        for rec in [sample_decision(), unsaturated] {
            let rec = Record::Decision(rec);
            let line = serde_json::to_string(&rec).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn run_record_round_trips_through_json() {
        let rec = Record::Run(RunRecord {
            scaler: "UH".into(),
            windows: 8,
            mean_tps: 40.0,
            mean_availability: 0.999,
            actions: 3,
            cluster_events: 123456,
        });
        let line = serde_json::to_string(&rec).unwrap();
        let back: Record = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn forecastless_lines_still_parse() {
        // Journals written before the forecast field existed (or by
        // reactive controllers) must keep parsing: the field defaults.
        let mut rec = sample_decision();
        rec.forecast = None;
        let mut line = serde_json::to_string(&Record::Decision(rec.clone())).unwrap();
        assert!(line.contains("\"forecast\":null"));
        line = line.replace(",\"forecast\":null", "");
        let back: Record = serde_json::from_str(&line).unwrap();
        assert_eq!(back, Record::Decision(rec));
    }

    #[test]
    fn incumbentless_lines_still_parse() {
        // Journals written before the incumbent and its diagnosis were
        // journaled (or by a hold, which diagnoses nothing) must keep
        // parsing: both sections default.
        let mut rec = sample_decision();
        rec.incumbent.clear();
        rec.bottlenecks = None;
        let mut line = serde_json::to_string(&Record::Decision(rec.clone())).unwrap();
        for field in ["\"incumbent\":[]", "\"bottlenecks\":null"] {
            assert!(line.contains(field), "missing {field}");
            line = line.replace(&format!(",{field}"), "");
        }
        let back: Record = serde_json::from_str(&line).unwrap();
        assert_eq!(back, Record::Decision(rec));
    }

    #[test]
    fn driftless_lines_still_parse() {
        // Journals written before the model audit existed (or with span
        // sampling disabled) must keep parsing: the field defaults.
        let mut rec = sample_decision();
        rec.drift = None;
        let mut line = serde_json::to_string(&Record::Decision(rec.clone())).unwrap();
        assert!(line.contains("\"drift\":null"));
        line = line.replace(",\"drift\":null", "");
        let back: Record = serde_json::from_str(&line).unwrap();
        assert_eq!(back, Record::Decision(rec));
    }

    #[test]
    fn networkless_drift_lines_still_parse() {
        // Journals written before the network term existed must keep
        // parsing: every network field defaults to `None`.
        let mut rec = sample_decision();
        let drift = rec.drift.as_mut().unwrap();
        drift.network_rolling_smape = None;
        drift.services[0].predicted_network = None;
        drift.services[0].observed_network = None;
        let mut line = serde_json::to_string(&Record::Decision(rec.clone())).unwrap();
        for field in [
            "\"network_rolling_smape\":null",
            "\"predicted_network\":null",
            "\"observed_network\":null",
        ] {
            assert!(line.contains(field), "missing {field}");
            line = line.replace(&format!(",{field}"), "");
        }
        let back: Record = serde_json::from_str(&line).unwrap();
        assert_eq!(back, Record::Decision(rec));
    }

    #[test]
    fn hold_outcome_captures_reason() {
        let o = ActuationOutcome::hold("monitor dark");
        assert!(o.held);
        assert_eq!(o.reason.as_deref(), Some("monitor dark"));
        assert!(o.issued.is_empty());
    }
}
