//! `repro netlat` — beyond the paper: placement-sensitive scaling under
//! the network fabric.
//!
//! The same Sock Shop deployment runs under two topologies that differ
//! *only* in rack assignment: a locality-friendly placement with both
//! servers in one rack (cross-server calls pay a single ToR hop each
//! way) and an adversarial placement with the servers in separate racks
//! (every cross-server call crosses two rack uplinks plus the shared
//! aggregation edge). Workloads {ramp, spike} × scalers {UH, UV, ATOM}
//! complete the matrix; ATOM's LQN binding is network-aware (see
//! [`crate::eval::run_one_with_cluster`]), so its drift audit scores
//! the predicted network residence against the span-observed one.
//!
//! Reported per cell: SLO-violation user-seconds (completed requests ×
//! how far their mean response overran the feature's SLO, summed over
//! features and windows), the count-weighted mean response, the
//! fabric's transit count, per-edge utilisation, and — for ATOM — the
//! final rolling residence and network drift sMAPE. Written to
//! `netlat.csv`.
//!
//! Each feature's SLO is its front-end non-CPU latency floor plus
//! [`SLO_HEADROOM`]: the floor is physics the deployment can never beat
//! (0.55–0.75 s of pure latency per feature), so scoring the overrun
//! beyond it makes the violation integral measure exactly the two
//! things placement and scaling control — queueing and network round
//! trips — instead of being swamped by a constant everyone pays.
//!
//! The matrix fans out across `ATOM_EVAL_WORKERS` threads ([`fan_out`]);
//! every cell is self-contained, so the CSV is bitwise identical for
//! any worker count — CI compares the bytes across worker counts.

use atom_cluster::{ClusterOptions, EdgeSpec, TopologySpec};
use atom_core::workload::WorkloadSpec;
use atom_core::ExperimentResult;
use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one_with_cluster, ScalerKind};
use crate::figures::fan_out;
use crate::output::{f, Table};
use crate::HarnessOptions;

/// Headroom over a feature's non-CPU latency floor before a response
/// counts as violating (seconds). Deliberately tight — roughly the CPU
/// demand of a whole request path — so the metric stays sensitive to
/// the tens of milliseconds a bad placement adds per request.
pub(super) const SLO_HEADROOM: f64 = 0.025;

/// Per-feature response-time SLOs: latency floor + [`SLO_HEADROOM`],
/// in the crate-wide feature order (home, catalogue, carts).
pub(super) fn feature_slos(shop: &SockShop) -> [f64; 3] {
    [
        shop.l_home + SLO_HEADROOM,
        shop.l_catalogue + SLO_HEADROOM,
        shop.l_carts + SLO_HEADROOM,
    ]
}

/// Span sampling rate of the ATOM runs (plus tail-biased sampling), so
/// every window has observed residence/network aggregates to audit.
pub(super) const SPAN_RATE: f64 = 0.02;

/// Smoke gate: ceiling on ATOM's final rolling *network* drift sMAPE —
/// the same band the audit experiment allows the CPU-residence sMAPE
/// (`atom-bench`'s audit smoke uses 1.5).
const SMOKE_NET_SMAPE_CEILING: f64 = 1.5;

/// How the two Sock Shop servers map onto racks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Placement {
    /// Both servers in rack 0: cross-server calls pay one ToR hop each
    /// way.
    Friendly,
    /// Servers in racks 0 and 1: cross-server calls pay two rack
    /// uplinks plus the aggregation edge each way.
    Adversarial,
}

impl Placement {
    fn name(self) -> &'static str {
        match self {
            Placement::Friendly => "friendly",
            Placement::Adversarial => "adversarial",
        }
    }

    /// The placement's topology. Edges are identical across placements —
    /// 1 ms / 1 Gbit/s rack uplinks under a 10 ms / 10 Gbit/s
    /// oversubscribed aggregation — only the rack assignment differs,
    /// so any outcome difference is placement, not provisioning.
    pub(super) fn topology(self) -> TopologySpec {
        let racks = match self {
            Placement::Friendly => vec![0, 0],
            Placement::Adversarial => vec![0, 1],
        };
        TopologySpec::two_tier(
            racks,
            EdgeSpec::new(0.001, 1.25e8),
            EdgeSpec::new(0.010, 1.25e9),
        )
    }
}

/// One cell of the netlat matrix.
#[derive(Debug, Clone, Copy)]
pub(super) struct Cell {
    /// Workload name (`ramp` / `spike`).
    pub workload: &'static str,
    /// Rack assignment.
    pub placement: Placement,
    /// The autoscaler driving the run.
    pub scaler: ScalerKind,
}

/// The full matrix: {ramp, spike} × {friendly, adversarial} × {UH, UV,
/// ATOM}.
pub(super) fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &workload in &["ramp", "spike"] {
        for &placement in &[Placement::Friendly, Placement::Adversarial] {
            for scaler in ScalerKind::baselines_and_atom() {
                cells.push(Cell {
                    workload,
                    placement,
                    scaler,
                });
            }
        }
    }
    cells
}

/// One finished cell.
#[derive(Debug, Clone)]
pub(super) struct CellOutcome {
    /// The cell.
    pub cell: Cell,
    /// SLO-violation user-seconds: Σ over windows and features of
    /// completed requests × how far the feature's mean response overran
    /// its SLO (see [`feature_slos`]).
    pub slo_violation_user_s: f64,
    /// Count-weighted mean end-to-end response (seconds).
    pub mean_response_s: f64,
    /// Round trips the fabric priced.
    pub net_transits: u64,
    /// Mean utilisation of the busiest rack uplink across windows.
    pub rack_util: f64,
    /// Mean utilisation of the aggregation edge across windows.
    pub agg_util: f64,
    /// ATOM's final rolling residence sMAPE, when audited.
    pub res_smape: Option<f64>,
    /// ATOM's final rolling network sMAPE, when audited.
    pub net_smape: Option<f64>,
    /// The full run.
    pub result: ExperimentResult,
}

/// Workloads chosen to load the cluster without drowning it: under
/// saturation the scalers' trajectories diverge chaotically between
/// placements and queueing noise swamps the network term, so the
/// comparison stays in the moderately-loaded regime where the placement
/// penalty is the dominant controlled difference.
fn workload_of(name: &str, opts: &HarnessOptions) -> WorkloadSpec {
    let (n_windows, window_secs) = opts.protocol(4);
    let run_secs = n_windows as f64 * window_secs;
    match name {
        "ramp" => scenarios::evaluation_workload(
            scenarios::shopping_mix(),
            if opts.quick { 700 } else { 1000 },
        ),
        "spike" => WorkloadSpec::new(
            scenarios::shopping_mix(),
            scenarios::THINK_TIME,
            atom_core::workload::LoadProfile::Spike {
                baseline: scenarios::INITIAL_USERS,
                spike: if opts.quick { 600 } else { 900 },
                start: 0.25 * run_secs,
                duration: 0.5 * run_secs,
            },
        ),
        other => unreachable!("unknown netlat workload {other}"),
    }
}

/// Runs one cell and folds its reports into the placement metrics.
pub(super) fn run_cell(cell: &Cell, opts: &HarnessOptions) -> CellOutcome {
    let shop = SockShop::default();
    let (n_windows, window_secs) = opts.protocol(4);
    let result = run_one_with_cluster(
        &shop,
        workload_of(cell.workload, opts),
        cell.scaler,
        n_windows,
        window_secs,
        opts,
        ClusterOptions::new()
            .with_seed(opts.seed)
            .with_span_sampling(SPAN_RATE, opts.seed)
            .with_span_tail(true)
            .with_topology(cell.placement.topology()),
    );

    let slos = feature_slos(&shop);
    let (mut violation, mut weighted_resp, mut total_count) = (0.0f64, 0.0f64, 0u64);
    let (mut rack_util_sum, mut agg_util_sum, mut net_windows) = (0.0f64, 0.0f64, 0usize);
    for report in &result.reports {
        for (fi, &count) in report.feature_counts.iter().enumerate() {
            let resp = report.feature_response[fi];
            violation += count as f64 * (resp - slos[fi]).max(0.0);
            weighted_resp += count as f64 * resp;
            total_count += count;
        }
        if let Some(edges) = &report.network {
            net_windows += 1;
            let agg = edges.len() - 1;
            agg_util_sum += edges[agg].utilisation;
            rack_util_sum += edges[..agg]
                .iter()
                .map(|e| e.utilisation)
                .fold(0.0, f64::max);
        }
    }
    let last = |pick: fn(&atom_obs::DriftRecord) -> Option<f64>| {
        result
            .telemetry
            .decisions
            .iter()
            .flatten()
            .filter_map(|d| d.drift.as_ref().and_then(pick))
            .next_back()
    };
    CellOutcome {
        cell: *cell,
        slo_violation_user_s: violation,
        mean_response_s: if total_count > 0 {
            weighted_resp / total_count as f64
        } else {
            0.0
        },
        net_transits: result.telemetry.cluster.net_transit_events,
        rack_util: if net_windows > 0 {
            rack_util_sum / net_windows as f64
        } else {
            0.0
        },
        agg_util: if net_windows > 0 {
            agg_util_sum / net_windows as f64
        } else {
            0.0
        },
        res_smape: last(|d| d.rolling_smape),
        net_smape: last(|d| d.network_rolling_smape),
        result,
    }
}

/// Runs the whole matrix through [`fan_out`], in matrix order.
pub(super) fn run_matrix(opts: &HarnessOptions) -> Vec<CellOutcome> {
    fan_out(&matrix(), |cell| {
        atom_obs::progress!(
            "  netlat: {} {} {}",
            cell.workload,
            cell.placement.name(),
            cell.scaler.name()
        );
        run_cell(cell, opts)
    })
}

/// Renders the matrix as a table and writes `netlat.csv`.
pub(super) fn report(outcomes: &[CellOutcome], opts: &HarnessOptions) {
    let mut table = Table::new(&[
        "workload",
        "placement",
        "scaler",
        "SLO-viol (user-s)",
        "mean resp (ms)",
        "transits",
        "rack util",
        "agg util",
        "res sMAPE",
        "net sMAPE",
    ]);
    for o in outcomes {
        table.row(vec![
            o.cell.workload.to_string(),
            o.cell.placement.name().to_string(),
            o.cell.scaler.name().to_string(),
            f(o.slo_violation_user_s, 0),
            f(o.mean_response_s * 1e3, 1),
            o.net_transits.to_string(),
            f(o.rack_util, 4),
            f(o.agg_util, 4),
            o.res_smape.map_or_else(|| "-".to_string(), |e| f(e, 4)),
            o.net_smape.map_or_else(|| "-".to_string(), |e| f(e, 4)),
        ]);
    }
    table.print();
    table.write_csv(&opts.out_dir.join("netlat.csv"));
}

/// `repro netlat`: run the matrix and write the artefacts.
pub(super) fn run(opts: &HarnessOptions) -> Vec<CellOutcome> {
    atom_obs::info!("\n== netlat: placement-sensitive scaling under the network fabric ==");
    let outcomes = run_matrix(opts);
    report(&outcomes, opts);
    outcomes
}

/// The `--smoke` gate. Quick matrix, then require that
/// (1) for every workload the adversarial placement's total
/// SLO-violation user-seconds are strictly worse than the friendly
/// placement's, (2) every run priced network transits and journaled
/// per-edge stats in every window (aggregation traffic only where the
/// placement crosses racks), and (3) every ATOM run audited the network
/// term with a final rolling sMAPE inside the same band the audit
/// experiment allows CPU residence.
pub(super) fn smoke(opts: &HarnessOptions) -> Vec<String> {
    let outcomes = run(opts);
    let mut failures: Vec<String> = Vec::new();

    for &workload in &["ramp", "spike"] {
        let total = |p: Placement| -> f64 {
            outcomes
                .iter()
                .filter(|o| o.cell.workload == workload && o.cell.placement == p)
                .map(|o| o.slo_violation_user_s)
                .sum()
        };
        let (friendly, adversarial) = (total(Placement::Friendly), total(Placement::Adversarial));
        // NaN must fail the gate, so compare via partial_cmp rather than `<=`.
        if adversarial.partial_cmp(&friendly) != Some(std::cmp::Ordering::Greater) {
            failures.push(format!(
                "{workload}: adversarial placement not strictly worse \
                 ({adversarial:.1} vs {friendly:.1} SLO-violation user-s)"
            ));
        }
    }

    for o in &outcomes {
        let name = format!(
            "{} {} {}",
            o.cell.workload,
            o.cell.placement.name(),
            o.cell.scaler.name()
        );
        if o.net_transits == 0 {
            failures.push(format!("{name}: the fabric priced no transit"));
        }
        let n_edges = o.cell.placement.topology().n_edges();
        for (wi, report) in o.result.reports.iter().enumerate() {
            match &report.network {
                Some(edges) if edges.len() == n_edges => {}
                Some(edges) => failures.push(format!(
                    "{name}: window {wi} reports {} edges, topology has {n_edges}",
                    edges.len()
                )),
                None => failures.push(format!("{name}: window {wi} carries no edge stats")),
            }
        }
        match o.cell.placement {
            Placement::Adversarial if o.agg_util <= 0.0 => {
                failures.push(format!("{name}: no aggregation traffic despite cross-rack"));
            }
            Placement::Friendly if o.agg_util != 0.0 => {
                failures.push(format!(
                    "{name}: aggregation utilisation {} inside one rack",
                    o.agg_util
                ));
            }
            _ => {}
        }
        if o.cell.scaler == ScalerKind::Atom {
            match o.net_smape {
                Some(e) if e.is_finite() && (0.0..=SMOKE_NET_SMAPE_CEILING).contains(&e) => {}
                Some(e) => failures.push(format!(
                    "{name}: network sMAPE {e:.3} outside [0, {SMOKE_NET_SMAPE_CEILING}]"
                )),
                None => failures.push(format!("{name}: ATOM audited no network drift")),
            }
        }
    }

    let transits: u64 = outcomes.iter().map(|o| o.net_transits).sum();
    atom_obs::info!("netlat: {} cells, {transits} transits", outcomes.len());
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_both_placements_for_every_scaler() {
        let cells = matrix();
        assert_eq!(cells.len(), 12);
        for kind in ScalerKind::baselines_and_atom() {
            for &p in &[Placement::Friendly, Placement::Adversarial] {
                assert!(cells
                    .iter()
                    .any(|c| c.scaler == kind && c.placement == p && c.workload == "ramp"));
            }
        }
    }

    #[test]
    fn adversarial_topology_crosses_the_aggregation() {
        use atom_cluster::NetworkDelay;
        let friendly = NetworkDelay::new(Placement::Friendly.topology());
        let adversarial = NetworkDelay::new(Placement::Adversarial.topology());
        assert!(adversarial.round_trip(0, 1) > friendly.round_trip(0, 1));
        assert_eq!(friendly.round_trip(0, 0), 0.0);
        assert_eq!(adversarial.round_trip(1, 1), 0.0);
    }

    #[test]
    fn a_cell_prices_transits_and_reports_edges() {
        let opts = HarnessOptions {
            quick: true,
            ..Default::default()
        };
        let cell = Cell {
            workload: "ramp",
            placement: Placement::Adversarial,
            scaler: ScalerKind::Uv,
        };
        let o = run_cell(&cell, &opts);
        assert!(o.net_transits > 0, "cross-server calls transit the fabric");
        assert!(o.agg_util > 0.0, "cross-rack traffic loads the aggregation");
        assert!(o.mean_response_s > 0.0);
        for report in &o.result.reports {
            let edges = report.network.as_ref().expect("topology runs report edges");
            assert_eq!(edges.len(), 3, "rack0, rack1, agg");
        }
    }
}
