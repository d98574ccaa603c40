//! `repro journal` — a short UH + ATOM pair on the heavy ordering ramp,
//! the smallest run that exercises every record type the decision
//! journal carries — and the schema-stability gate CI runs on every
//! commit (the bare `repro --smoke`).

use atom_core::workload::WorkloadSpec;
use atom_core::ExperimentResult;
use atom_obs::{Journal, Record};
use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one, ScalerKind};
use crate::{trace, HarnessOptions};

/// Windows of each run.
const WINDOWS: usize = 3;

/// The workload both runs see.
fn workload() -> WorkloadSpec {
    scenarios::evaluation_workload(scenarios::ordering_mix(), 1500)
}

/// Runs the pair, `[UH, ATOM]`.
pub(super) fn run(opts: &HarnessOptions) -> Vec<ExperimentResult> {
    let shop = SockShop::default();
    [ScalerKind::Uh, ScalerKind::Atom]
        .into_iter()
        .map(|kind| {
            atom_obs::progress!("journal: running {} ({WINDOWS} windows)", kind.name());
            run_one(&shop, workload(), kind, WINDOWS, 120.0, opts)
        })
        .collect()
}

/// The gate: emit the pair's journal and require every line to parse
/// back through the `atom-obs` record types with the expected
/// per-window content; every ATOM window plans, so each must journal
/// its search, the incumbent of every scalable service and the
/// incumbent's bottleneck diagnosis.
pub(super) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let results = run(opts);
    trace::emit(opts, &results);
    let events = match Journal::parse_jsonl(&trace::emitted_journal(opts, &results)) {
        Ok(events) => events,
        Err(e) => return vec![format!("emitted journal does not re-parse: {e}")],
    };
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.record {
            Record::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    let runs = events
        .iter()
        .filter(|e| matches!(e.record, Record::Run(_)))
        .count();
    let wl = workload();
    let scalable = SockShop::default()
        .binding(scenarios::INITIAL_USERS, wl.think_time, wl.mix.fractions())
        .scalable()
        .count();
    let mut failures = Vec::new();
    if decisions.len() != results.len() * WINDOWS {
        failures.push(format!(
            "expected {} decision records ({} scalers x {WINDOWS} windows), found {}",
            results.len() * WINDOWS,
            results.len(),
            decisions.len()
        ));
    }
    if runs != results.len() {
        failures.push(format!(
            "expected {} run records, found {runs}",
            results.len()
        ));
    }
    for d in decisions.iter().filter(|d| d.scaler == "ATOM") {
        let Some(ev) = &d.evaluator else {
            failures.push(format!(
                "ATOM window {} journals no evaluator counters",
                d.window
            ));
            continue;
        };
        if ev.solves == 0 || ev.solver_iterations == 0 {
            failures.push(format!(
                "ATOM window {}: empty solver counters ({} solves, {} iterations)",
                d.window, ev.solves, ev.solver_iterations
            ));
        }
        if d.ga.is_none() {
            failures.push(format!("ATOM window {} journals no GA stats", d.window));
        }
        let (w, entries) = (d.window, d.incumbent.len());
        if entries != scalable {
            failures.push(format!(
                "ATOM window {w}: {entries} incumbent entries, not {scalable}"
            ));
        }
        if d.bottlenecks.is_none() {
            failures.push(format!("ATOM window {w} journals no bottleneck diagnosis"));
        }
    }
    atom_obs::info!(
        "journal: {} events re-parse ({} decisions, {runs} run summaries)",
        events.len(),
        decisions.len()
    );
    failures
}
