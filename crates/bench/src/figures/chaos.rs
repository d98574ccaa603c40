//! Chaos experiment (beyond the paper): ATOM vs UH vs UV under a
//! deterministic fault schedule — replica crashes, a whole-server
//! outage, a monitor dropout, an actuation failure, and a slow-start
//! episode — on the heavy ordering-mix ramp.
//!
//! The paper evaluates autoscalers on a healthy cluster; production
//! autoscalers spend their worst moments on an unhealthy one. This
//! experiment measures what each controller does when its telemetry
//! lies, its actuator drops orders, and its capacity vanishes
//! mid-ramp: per-service availability, the longest outage, and whether
//! the controller keeps (correctly) acting while under-provisioned.
//!
//! `repro --smoke chaos` runs the quick variant and fails when ATOM
//! wedges (no scale action for more than `MAX_IDLE_UNDERPROVISIONED`
//! consecutive under-provisioned windows), never acts at all, or the
//! cluster fails to restore availability by the end of the run — CI's
//! guard that the degraded-mode control loop keeps functioning under
//! faults.

use atom_cluster::{ClusterOptions, FaultKind, FaultSchedule};
use atom_core::ExperimentResult;
use atom_sockshop::{scenarios, SockShop, SVC_CARTS, SVC_FRONT_END};

use crate::eval::{run_one_with_cluster, ScalerKind, STATELESS};
use crate::output::{f, Table};
use crate::HarnessOptions;

/// Windows a controller may sit idle while under-provisioned before the
/// smoke gate calls it wedged.
pub(crate) const MAX_IDLE_UNDERPROVISIONED: usize = 5;

/// Shortfall (cores) below which a window does not count as
/// under-provisioned for the wedging check — same spirit as
/// `CapacityWindow::underprovisioned`'s 1% of a core, deliberately
/// looser to ignore boundary jitter from mid-window actuations.
const SHORTFALL_TOLERANCE: f64 = 0.05;

/// The injected schedule, scaled to the experiment horizon so the quick
/// and full variants exercise the same storyline: an early front-end
/// crash, a slow-start episode, a mostly-dark monitoring window, an
/// actuation blackout, a whole-server outage, and a late carts crash.
pub(crate) fn chaos_schedule(horizon: f64, window_secs: f64) -> FaultSchedule {
    FaultSchedule::new()
        .at(
            0.15 * horizon,
            FaultKind::ReplicaCrash {
                service: SVC_FRONT_END,
            },
        )
        .at(
            0.25 * horizon,
            FaultKind::SlowStart {
                factor: 3.0,
                duration: 0.10 * horizon,
            },
        )
        .at(
            0.35 * horizon,
            FaultKind::MonitorDropout {
                duration: 0.8 * window_secs,
            },
        )
        .at(
            // Long enough to cover at least one actuation instant of
            // every scaler (ATOM schedules at window end + its delay).
            0.55 * horizon,
            FaultKind::ActuationFailure {
                duration: 1.2 * window_secs,
            },
        )
        .at(
            0.70 * horizon,
            FaultKind::ServerOutage {
                server: 0,
                duration: 30.0,
            },
        )
        .at(
            0.80 * horizon,
            FaultKind::ReplicaCrash { service: SVC_CARTS },
        )
}

/// Whether some stateless service was under-provisioned in window `i`.
pub(crate) fn underprovisioned(result: &ExperimentResult, i: usize) -> bool {
    STATELESS
        .iter()
        .any(|&si| result.capacity[si].windows()[i].shortfall() > SHORTFALL_TOLERANCE)
}

/// Longest run of consecutive windows in which some stateless service
/// was under-provisioned and the scaler issued no action.
pub(crate) fn longest_idle_underprovisioned(result: &ExperimentResult) -> usize {
    let mut run = 0usize;
    let mut worst = 0usize;
    for i in 0..result.reports.len() {
        let under = underprovisioned(result, i);
        let acted = result.window_actions(i).next().is_some();
        if under && !acted {
            run += 1;
            worst = worst.max(run);
        } else {
            run = 0;
        }
    }
    worst
}

/// Mean availability of the final window across all services — the
/// "did the cluster recover" probe.
pub(crate) fn final_window_availability(result: &ExperimentResult) -> f64 {
    let last = match result.reports.last() {
        Some(r) => r,
        None => return 1.0,
    };
    last.service_availability.iter().sum::<f64>() / last.service_availability.len().max(1) as f64
}

/// Runs the three scalers under the chaos schedule and returns the
/// results in `[UH, UV, ATOM]` order.
pub fn run_matrix(
    opts: &HarnessOptions,
    windows: usize,
    window_secs: f64,
) -> Vec<ExperimentResult> {
    let shop = SockShop::default();
    let horizon = windows as f64 * window_secs;
    let faults = chaos_schedule(horizon, window_secs);
    ScalerKind::baselines_and_atom()
        .into_iter()
        .map(|kind| {
            atom_obs::progress!("  running chaos {}", kind.name());
            let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000);
            run_one_with_cluster(
                &shop,
                workload,
                kind,
                windows,
                window_secs,
                opts,
                ClusterOptions::new()
                    .with_seed(opts.seed)
                    .with_faults(faults.clone()),
            )
        })
        .collect()
}

/// The full chaos artefact: summary table plus availability traces, all
/// written under `results/`. Returns the experiment results so callers
/// can export the decision journal (`--trace-out`).
pub(crate) fn run(opts: &HarnessOptions) -> Vec<ExperimentResult> {
    atom_obs::info!("\n== Chaos: ATOM vs UH vs UV under a fault schedule (ordering, N = 2000) ==");
    let (windows, window_secs) = opts.protocol(6);
    let horizon = windows as f64 * window_secs;
    for e in chaos_schedule(horizon, window_secs).events() {
        atom_obs::info!("  t={:>6.0}s  {}", e.time, e.kind);
    }

    let results = run_matrix(opts, windows, window_secs);

    let mut table = Table::new(&[
        "scaler",
        "mean TPS",
        "T_u [s]",
        "A_u [core-s]",
        "mean avail",
        "longest outage [s]",
        "downtime [s]",
        "failed acts",
        "#actions",
    ]);
    for r in &results {
        let failed: usize = r.reports.iter().map(|w| w.failed_actuations).sum();
        table.row(vec![
            r.scaler.clone(),
            f(r.mean_tps(0, windows), 1),
            f(r.underprovision_time(Some(&STATELESS)), 0),
            f(r.underprovision_area(Some(&STATELESS)), 0),
            format!("{:.4}", r.mean_availability()),
            f(r.longest_outage(0.999), 0),
            f(r.downtime(), 0),
            failed.to_string(),
            r.actions.len().to_string(),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir.join("chaos.csv"));

    // Per-window availability trace per scaler (recovery curves).
    let mut avail = Table::new(&["scaler", "window start", "window end", "mean availability"]);
    for r in &results {
        for w in &r.reports {
            let mean = w.service_availability.iter().sum::<f64>()
                / w.service_availability.len().max(1) as f64;
            avail.row(vec![
                r.scaler.clone(),
                f(w.start, 0),
                f(w.end, 0),
                format!("{mean:.4}"),
            ]);
        }
    }
    avail.write_csv(&opts.out_dir.join("chaos_availability.csv"));

    // ATOM's own account of the degraded windows: dropped batches it
    // re-issued, orders it abandoned, windows it refused to re-fit on.
    if let Some(atom) = results.iter().find(|r| r.scaler == "ATOM") {
        atom_obs::info!("\nATOM window-by-window explanations:");
        for (w, d) in atom.reports.iter().zip(&atom.telemetry.decisions) {
            if let Some(text) = d.as_ref().and_then(|d| d.explanation()) {
                atom_obs::info!("  [{:>5.0},{:>5.0})  {}", w.start, w.end, text);
            }
        }
        atom_obs::info!(
            "ATOM longest idle-while-underprovisioned streak: {} window(s)",
            longest_idle_underprovisioned(atom)
        );
    }
    results
}

/// The `--smoke` gate: the quick matrix, then ATOM must have acted,
/// must not have wedged, and every scaler's cluster must end the run
/// with availability restored.
pub(crate) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let (windows, window_secs) = opts.protocol(6);
    let results = run_matrix(opts, windows, window_secs);
    crate::trace::emit(opts, &results);
    let atom = results
        .iter()
        .find(|r| r.scaler == "ATOM")
        .expect("matrix includes ATOM");

    let mut failures = Vec::new();
    if atom.actions.is_empty() {
        failures.push("ATOM issued no scale actions over the whole chaos run".to_string());
    }
    let idle = longest_idle_underprovisioned(atom);
    if idle > MAX_IDLE_UNDERPROVISIONED {
        failures.push(format!(
            "ATOM wedged: {idle} consecutive under-provisioned windows without an action \
             (allowed {MAX_IDLE_UNDERPROVISIONED})"
        ));
    }
    for r in &results {
        let final_avail = final_window_availability(r);
        if final_avail < 0.99 {
            failures.push(format!(
                "{}: availability not restored by the final window ({final_avail:.4})",
                r.scaler
            ));
        }
        let injected_failures: usize = r.reports.iter().map(|w| w.failed_actuations).sum();
        atom_obs::progress!(
            "smoke: {} actions={} failed_actuations={} final_avail={:.4}",
            r.scaler,
            r.actions.len(),
            injected_failures,
            final_avail
        );
    }
    atom_obs::info!(
        "chaos: ATOM took {} actions, idle streak {idle} (allowed {MAX_IDLE_UNDERPROVISIONED})",
        atom.actions.len()
    );
    failures
}
