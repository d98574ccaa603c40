//! Telemetry export: the JSONL decision journal and the Prometheus-text
//! metrics snapshot behind `--trace-out` / `--metrics-out`.
//!
//! Both artefacts are derived *after the fact* from the
//! [`atom_core::TelemetrySummary`] riding along each [`ExperimentResult`] — no
//! global state, no clocks, and nothing here feeds back into the
//! experiments, so enabling the export leaves every other output
//! bitwise identical.

use std::path::Path;

use atom_cluster::spec::AppSpec;
use atom_cluster::SampledSpan;
use atom_core::ExperimentResult;
use atom_obs::{Journal, Record, Registry};

use crate::HarnessOptions;

/// One Chrome trace-event ("Trace Event Format") complete event, the
/// `ph: "X"` shape Perfetto and `chrome://tracing` load directly. Sim
/// seconds become microseconds; the tenant is the `pid` lane and the
/// sampled request the `tid` lane, so one request's hops stack on one
/// track.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct ChromeEvent {
    /// `service.endpoint`, resolved against the app spec.
    pub name: String,
    /// The scaler slug of the run the span came from.
    pub cat: String,
    /// Event phase — always `"X"` (complete event).
    pub ph: String,
    /// Arrival at the service, microseconds of sim time.
    pub ts: f64,
    /// Residence (queue wait + occupancy), microseconds.
    pub dur: f64,
    /// Tenant index (0 for single-tenant runs).
    pub pid: u64,
    /// Sampled-request id: every hop of one request shares it.
    pub tid: u64,
    /// Placement and timing detail for the Perfetto args pane.
    pub args: ChromeEventArgs,
}

/// The `args` payload of a [`ChromeEvent`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct ChromeEventArgs {
    /// Replica the hop executed on.
    pub replica: u64,
    /// Server hosting that replica.
    pub server: u64,
    /// Population backend live at arrival (`per-user` / `fluid`).
    pub backend: String,
    /// Seconds spent queued before a thread picked the call up.
    pub queue_wait_s: f64,
    /// Occupancy after the thread was acquired, seconds.
    pub service_time_s: f64,
}

fn chrome_event(span: &SampledSpan, spec: &AppSpec, slug: &str) -> ChromeEvent {
    let service = spec
        .services
        .get(span.service)
        .map(|s| s.name.as_str())
        .unwrap_or("svc");
    let endpoint = spec
        .services
        .get(span.service)
        .and_then(|s| s.endpoints.get(span.endpoint))
        .map(|e| e.name.as_str())
        .unwrap_or("ep");
    ChromeEvent {
        name: format!("{service}.{endpoint}"),
        cat: slug.to_string(),
        ph: "X".to_string(),
        ts: span.arrival * 1e6,
        dur: span.residence() * 1e6,
        pid: span.tenant as u64,
        tid: span.request,
        args: ChromeEventArgs {
            replica: span.replica as u64,
            server: span.server as u64,
            backend: span.backend.as_str().to_string(),
            queue_wait_s: span.queue_wait(),
            service_time_s: span.service_time(),
        },
    }
}

/// Converts every sampled span riding along `results` into a Chrome
/// trace-event JSON array (the format Perfetto's "Open trace file"
/// accepts), resolving service/endpoint names against `spec`.
pub(crate) fn chrome_trace_json(results: &[ExperimentResult], spec: &AppSpec) -> String {
    let mut events = Vec::new();
    for r in results {
        let slug = r.scaler.to_lowercase().replace('-', "_");
        for span in &r.telemetry.spans {
            events.push(chrome_event(span, spec, &slug));
        }
    }
    serde_json::to_string(&events).expect("chrome trace events serialize")
}

/// Assembles the decision journal of a set of runs: every per-window
/// [`atom_obs::DecisionRecord`] the scalers kept, each followed by the
/// run-level summary record.
pub fn journal_of(results: &[ExperimentResult]) -> Journal {
    let mut journal = Journal::default();
    for r in results {
        for d in r.telemetry.decisions.iter().flatten() {
            journal.push(d.time, Record::Decision(d.clone()));
        }
        let end = r.reports.last().map_or(0.0, |w| w.end);
        journal.push(end, Record::Run(r.run_record()));
    }
    journal
}

/// Aggregates the runs into a metrics registry, one name prefix per
/// scaler (`atom_`, `uh_`, ... — lowercased, `-` → `_`).
pub(crate) fn registry_for(results: &[ExperimentResult]) -> Registry {
    let mut reg = Registry::new();
    for r in results {
        let slug = r.scaler.to_lowercase().replace('-', "_");
        let c = &r.telemetry.cluster;
        reg.add(&format!("{slug}_cluster_events_total"), c.total_events());
        reg.add(
            &format!("{slug}_cluster_dropped_batches_total"),
            c.dropped_batches,
        );
        reg.add(&format!("{slug}_actions_total"), r.actions.len() as u64);
        // Backend series exist only for runs that used the fluid/hybrid
        // machinery: pure per-user runs predate it and must keep their
        // metrics snapshots byte-identical.
        if c.fluid_step_events + c.backend_check_events + c.backend_switches > 0 {
            reg.add(
                &format!("{slug}_backend_switches_total"),
                c.backend_switches,
            );
            reg.add(
                &format!("{slug}_fluid_step_events_total"),
                c.fluid_step_events,
            );
            reg.add(
                &format!("{slug}_backend_check_events_total"),
                c.backend_check_events,
            );
        }
        for &latency in &c.scale_latencies {
            reg.observe(&format!("{slug}_scale_latency_seconds"), latency);
        }
        // Span accounting exists only for runs with sampling enabled:
        // every other run keeps its snapshot byte-identical.
        if c.span_requests_sampled + c.spans_recorded + c.span_requests_dropped > 0 {
            reg.add(
                &format!("{slug}_span_requests_sampled_total"),
                c.span_requests_sampled,
            );
            reg.add(&format!("{slug}_spans_recorded_total"), c.spans_recorded);
            reg.add(
                &format!("{slug}_span_requests_dropped_total"),
                c.span_requests_dropped,
            );
        }
        // Network fabric series exist only for topology-priced runs:
        // topology-free runs keep their snapshots byte-identical.
        let net_windows: Vec<_> = r
            .reports
            .iter()
            .filter_map(|w| w.network.as_ref())
            .collect();
        if !net_windows.is_empty() {
            reg.add(
                &format!("{slug}_net_transit_events_total"),
                c.net_transit_events,
            );
            for e in 0..net_windows[0].len() {
                let name = net_windows[0][e].edge.as_str();
                let util = net_windows.iter().map(|w| w[e].utilisation).sum::<f64>()
                    / net_windows.len() as f64;
                let depth = net_windows
                    .iter()
                    .map(|w| w[e].max_queue_depth)
                    .max()
                    .unwrap_or(0);
                reg.set_gauge(
                    &atom_obs::with_labels(
                        &format!("{slug}_net_edge_utilisation"),
                        &[("edge", name)],
                    ),
                    util,
                );
                reg.set_gauge(
                    &atom_obs::with_labels(&format!("{slug}_net_queue_depth"), &[("edge", name)]),
                    depth as f64,
                );
            }
        }
        // Journal evictions: only surfaced when the ring actually
        // dropped records.
        let dropped = r.telemetry.journal_dropped();
        if dropped > 0 {
            reg.add(&format!("{slug}_journal_dropped_total"), dropped);
        }
        let (mut held, mut reissued, mut abandoned) = (0u64, 0u64, 0u64);
        let (mut fc_windows, mut fc_fallbacks, mut fc_clamped) = (0u64, 0u64, 0u64);
        let mut fc_last_smape = None;
        let mut drift_windows = 0u64;
        let mut drift_last_smape = None;
        for d in r.telemetry.decisions.iter().flatten() {
            held += d.actuation.held as u64;
            reissued += d.actuation.reissued.len() as u64;
            abandoned += d.actuation.abandoned.len() as u64;
            if let Some(fc) = &d.forecast {
                fc_windows += 1;
                fc_fallbacks += fc.fallback as u64;
                fc_clamped += fc.clamped as u64;
                reg.observe(&format!("{slug}_forecast_horizon_seconds"), fc.horizon);
                if let Some(e) = fc.rolling_smape {
                    reg.observe(&format!("{slug}_forecast_smape"), e);
                    fc_last_smape = Some(e);
                }
            }
            if let Some(drift) = &d.drift {
                drift_windows += 1;
                for s in &drift.services {
                    reg.observe(
                        &format!("{slug}_drift_abs_residence_error"),
                        s.residence_error.abs(),
                    );
                    reg.observe(
                        &format!("{slug}_drift_abs_utilization_error"),
                        s.utilization_error.abs(),
                    );
                }
                if let Some(e) = drift.rolling_smape {
                    drift_last_smape = Some(e);
                }
            }
            if let Some(ev) = &d.evaluator {
                reg.add(&format!("{slug}_candidates_total"), ev.candidates);
                reg.add(&format!("{slug}_solves_total"), ev.solves);
                reg.add(&format!("{slug}_cache_hits_total"), ev.cache_hits);
                reg.add(
                    &format!("{slug}_solver_iterations_total"),
                    ev.solver_iterations,
                );
            }
            if let Some(ga) = &d.ga {
                reg.add(&format!("{slug}_ga_evaluations_total"), ga.evaluations);
                reg.add(&format!("{slug}_ga_niche_dedup_total"), ga.niche_dedup);
            }
        }
        reg.add(&format!("{slug}_held_windows_total"), held);
        reg.add(&format!("{slug}_reissued_actions_total"), reissued);
        reg.add(&format!("{slug}_abandoned_actions_total"), abandoned);
        // Forecast accounting exists only for proactive runs: emitting
        // zeroed series for every reactive scaler would change the
        // snapshot of runs that never forecast.
        if fc_windows > 0 {
            reg.add(&format!("{slug}_forecast_windows_total"), fc_windows);
            reg.add(
                &format!("{slug}_forecast_fallback_windows_total"),
                fc_fallbacks,
            );
            reg.add(
                &format!("{slug}_forecast_clamped_windows_total"),
                fc_clamped,
            );
            if let Some(e) = fc_last_smape {
                reg.set_gauge(&format!("{slug}_forecast_rolling_smape"), e);
            }
        }
        // Drift accounting exists only for audited runs (span sampling
        // on): reactive runs without spans journal no drift records.
        if drift_windows > 0 {
            reg.add(&format!("{slug}_drift_windows_total"), drift_windows);
            if let Some(e) = drift_last_smape {
                reg.set_gauge(&format!("{slug}_drift_rolling_smape"), e);
            }
        }
        let windows = r.reports.len();
        reg.set_gauge(&format!("{slug}_mean_tps"), r.mean_tps(0, windows.max(1)));
        reg.set_gauge(&format!("{slug}_mean_availability"), r.mean_availability());
        let candidates = reg.counter(&format!("{slug}_candidates_total"));
        if candidates > 0 {
            let hits = reg.counter(&format!("{slug}_cache_hits_total"));
            reg.set_gauge(
                &format!("{slug}_cache_hit_rate"),
                hits as f64 / candidates as f64,
            );
        }
    }
    reg
}

/// Writes the artefacts requested by `--trace-out` / `--metrics-out`;
/// a no-op when neither flag was given.
///
/// # Panics
///
/// Panics on I/O errors — artefact writing is not a recoverable
/// condition for the harness (same policy as the CSV writer).
pub fn emit(opts: &HarnessOptions, results: &[ExperimentResult]) {
    if let Some(path) = &opts.trace_out {
        write_artefact(path, &journal_of(results).to_jsonl());
        atom_obs::progress!("decision journal written to {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        write_artefact(path, &registry_for(results).prometheus_text());
        atom_obs::progress!("metrics snapshot written to {}", path.display());
    }
}

/// Writes the sampled spans of `results` as Chrome trace-event JSON to
/// `--spans-out`; a no-op when the flag was not given. Callers supply
/// the app spec the spans' indices refer to.
///
/// # Panics
///
/// Panics on I/O errors, same policy as [`emit`].
pub(crate) fn emit_spans(opts: &HarnessOptions, results: &[ExperimentResult], spec: &AppSpec) {
    if let Some(path) = &opts.spans_out {
        write_artefact(path, &chrome_trace_json(results, spec));
        let count: usize = results.iter().map(|r| r.telemetry.spans.len()).sum();
        atom_obs::progress!(
            "{count} sampled spans written to {} (Chrome trace-event JSON)",
            path.display()
        );
    }
}

/// The journal of `results` exactly as a consumer sees it: read back
/// from `--trace-out` when [`emit`] wrote it there, rendered in memory
/// otherwise.
pub(crate) fn emitted_journal(opts: &HarnessOptions, results: &[ExperimentResult]) -> String {
    match &opts.trace_out {
        Some(path) => std::fs::read_to_string(path).expect("read back the emitted journal"),
        None => journal_of(results).to_jsonl(),
    }
}

pub(crate) fn write_artefact(path: &Path, content: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create artefact dir");
        }
    }
    std::fs::write(path, content).expect("write telemetry artefact");
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_cluster::ClusterOptions;
    use atom_sockshop::{scenarios, SockShop};

    use crate::eval::{run_one_with_cluster, ScalerKind};

    fn quick_run(kind: ScalerKind) -> ExperimentResult {
        let shop = SockShop::default();
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 1500);
        let opts = HarnessOptions {
            quick: true,
            ..Default::default()
        };
        run_one_with_cluster(
            &shop,
            workload,
            kind,
            2,
            60.0,
            &opts,
            ClusterOptions::new().with_seed(7),
        )
    }

    #[test]
    fn journal_round_trips_and_counts_windows() {
        let results = [quick_run(ScalerKind::Uh), quick_run(ScalerKind::Atom)];
        let journal = journal_of(&results);
        // Every window journals a decision, plus one run record per run.
        assert_eq!(journal.len(), 2 * 2 + 2);
        let parsed = Journal::parse_jsonl(&journal.to_jsonl()).expect("parses back");
        assert_eq!(parsed.len(), journal.len());
        let atom_decisions = parsed
            .iter()
            .filter_map(|e| match &e.record {
                Record::Decision(d) if d.scaler == "ATOM" => Some(d),
                _ => None,
            })
            .count();
        assert_eq!(atom_decisions, 2);
    }

    #[test]
    fn registry_carries_forecast_metrics_for_proactive_runs() {
        // Long enough for the ensemble to warm past `min_history`.
        let shop = SockShop::default();
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 1500);
        let opts = HarnessOptions {
            quick: true,
            ..Default::default()
        };
        let r = run_one_with_cluster(
            &shop,
            workload,
            ScalerKind::AtomP { season_windows: 0 },
            5,
            60.0,
            &opts,
            ClusterOptions::new().with_seed(7),
        );
        assert_eq!(r.scaler, "ATOM-P");
        let reg = registry_for(std::slice::from_ref(&r));
        assert!(reg.counter("atom_p_forecast_windows_total") > 0);
        assert!(reg.histogram("atom_p_forecast_horizon_seconds").is_some());
        // Reactive runs emit no forecast series at all — not even zeros.
        let reactive = registry_for(&[quick_run(ScalerKind::Atom)]);
        assert_eq!(reactive.counter("atom_forecast_windows_total"), 0);
        assert!(!reactive.prometheus_text().contains("forecast"));
    }

    #[test]
    fn chrome_trace_round_trips_and_names_resolve() {
        let shop = SockShop::default();
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 800);
        let opts = HarnessOptions {
            quick: true,
            ..Default::default()
        };
        let r = run_one_with_cluster(
            &shop,
            workload,
            ScalerKind::Atom,
            2,
            60.0,
            &opts,
            ClusterOptions::new()
                .with_seed(7)
                .with_span_sampling(1.0, 7),
        );
        assert!(!r.telemetry.spans.is_empty(), "full sampling records spans");
        let spec = shop.app_spec();
        let json = chrome_trace_json(std::slice::from_ref(&r), &spec);
        let events: Vec<ChromeEvent> = serde_json::from_str(&json).expect("re-parses");
        assert_eq!(events.len(), r.telemetry.spans.len());
        for e in &events {
            assert_eq!(e.ph, "X");
            assert!(e.name.contains('.'), "name is service.endpoint: {}", e.name);
            assert!(e.ts.is_finite() && e.ts >= 0.0);
            assert!(e.dur.is_finite() && e.dur >= 0.0);
            assert!(e.args.queue_wait_s >= 0.0 && e.args.service_time_s >= 0.0);
        }
        // The registry surfaces the span accounting for sampled runs...
        let reg = registry_for(std::slice::from_ref(&r));
        assert!(reg.counter("atom_span_requests_sampled_total") > 0);
        assert!(reg.counter("atom_spans_recorded_total") > 0);
        // ... and drift series once the controller has a prediction to
        // audit (window 2 audits window 1's plan).
        assert!(reg.counter("atom_drift_windows_total") > 0);
        // Unsampled runs emit no span or drift series at all.
        let plain = registry_for(&[quick_run(ScalerKind::Atom)]);
        let text = plain.prometheus_text();
        assert!(!text.contains("span"), "no span series without sampling");
        assert!(!text.contains("drift"), "no drift series without sampling");
    }

    #[test]
    fn network_gauges_exist_only_for_topology_runs() {
        let shop = SockShop::default();
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 800);
        let opts = HarnessOptions {
            quick: true,
            ..Default::default()
        };
        // SockShop's two servers in separate racks: every cross-server
        // call transits rack uplinks and the aggregation.
        let topo = atom_cluster::TopologySpec::two_tier(
            vec![0, 1],
            atom_cluster::EdgeSpec::new(0.0005, 1.25e8),
            atom_cluster::EdgeSpec::new(0.001, 1.25e9),
        );
        let r = run_one_with_cluster(
            &shop,
            workload,
            ScalerKind::Uh,
            2,
            60.0,
            &opts,
            ClusterOptions::new().with_seed(7).with_topology(topo),
        );
        let reg = registry_for(std::slice::from_ref(&r));
        assert!(reg.counter("uh_net_transit_events_total") > 0);
        for edge in ["rack0", "rack1", "agg"] {
            let util = reg
                .gauge(&atom_obs::with_labels(
                    "uh_net_edge_utilisation",
                    &[("edge", edge)],
                ))
                .unwrap_or_else(|| panic!("utilisation gauge for {edge}"));
            assert!(util >= 0.0);
            assert!(reg
                .gauge(&atom_obs::with_labels(
                    "uh_net_queue_depth",
                    &[("edge", edge)],
                ))
                .is_some());
        }
        // Topology-free runs emit no network series at all.
        let plain = registry_for(&[quick_run(ScalerKind::Uh)]);
        assert!(!plain.prometheus_text().contains("_net_"));
    }

    #[test]
    fn registry_reflects_the_runs() {
        let results = [quick_run(ScalerKind::Atom)];
        let reg = registry_for(&results);
        assert!(reg.counter("atom_cluster_events_total") > 0);
        assert!(
            reg.counter("atom_solves_total") > 0,
            "ATOM journals its solver counters"
        );
        assert!(reg.gauge("atom_mean_tps").unwrap() > 0.0);
        let hit_rate = reg.gauge("atom_cache_hit_rate").expect("hit rate gauge");
        assert!((0.0..=1.0).contains(&hit_rate));
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE atom_solves_total counter"));
    }
}
