//! Fig. 2 — the motivating example (§II): doubling the bottlenecked
//! front-end vertically vs horizontally, under a light (Case A) and a
//! heavy (Case B) workload.
//!
//! Protocol: the Sock Shop runs the Table I mix at constant population
//! with every service except the front-end generously provisioned; at
//! t = 5 min the front-end's capacity is doubled one way or the other;
//! TPS is recorded in one-minute windows for 30 minutes.

use atom_cluster::{Cluster, ClusterOptions, ScaleAction, ServiceId};
use atom_core::workload::WorkloadSpec;
use atom_sockshop::{scenarios, SockShop, SVC_FRONT_END};

use crate::output::{f, Table};
use crate::HarnessOptions;

/// One strategy's TPS trace.
#[derive(Debug, Clone)]
pub(super) struct Trace {
    /// Per-minute TPS.
    pub tps: Vec<f64>,
    /// Mean TPS over the last ten minutes.
    pub steady_state: f64,
}

/// Runs one case (A or B) with both strategies: vertical, then horizontal.
pub(super) fn run_case(case: scenarios::MotivatingCase, opts: &HarnessOptions) -> Vec<Trace> {
    // Table I's front-end is saturated at its given share; with the
    // Table IV-calibrated demands the post-doubling capacity would be
    // comfortably above the offered load, so the page cost is scaled up
    // ~30% to keep the front-end near saturation after the scaling action
    // — the premise of both of the paper's cases (case A: doubling barely
    // covers the load, so queueing differences show; case B: one core
    // covers only ~77% of it).
    let mut shop = SockShop::default();
    shop.d_home *= 1.3;
    shop.d_catalogue *= 1.3;
    shop.d_carts *= 1.3;
    let mut traces = Vec::new();
    for (replicas, share_mult) in [(1usize, 2.0f64), (2, 1.0)] {
        let mut spec = shop.app_spec();
        // Everything except the front-end gets generous capacity so the
        // front-end is the unique bottleneck (Table I's premise).
        for (si, svc) in spec.services.iter_mut().enumerate() {
            if si != SVC_FRONT_END {
                svc.initial_share = 1.0;
            } else {
                svc.initial_share = case.front_end_share;
            }
        }
        let workload = WorkloadSpec::constant(
            scenarios::motivating_mix(),
            case.users,
            scenarios::THINK_TIME,
        );
        let mut cluster = Cluster::new(&spec, workload, ClusterOptions::new().with_seed(opts.seed))
            .expect("cluster");
        let mut tps = Vec::new();
        let minutes = if opts.quick { 14 } else { 30 };
        for minute in 0..minutes {
            if minute == 5 {
                cluster.schedule_scaling(
                    vec![ScaleAction {
                        service: ServiceId(SVC_FRONT_END),
                        replicas,
                        share: case.front_end_share * share_mult,
                    }],
                    0.0,
                );
            }
            tps.push(cluster.run_window(60.0).total_tps);
        }
        let tail = &tps[tps.len() - 10.min(tps.len())..];
        let steady_state = tail.iter().sum::<f64>() / tail.len() as f64;
        traces.push(Trace { tps, steady_state });
    }
    traces
}

/// Regenerates Fig. 2 and writes `fig2_case_{a,b}.csv`.
pub(super) fn run(opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 2: vertical vs horizontal scaling of the front-end ==");
    for case in [scenarios::CASE_A, scenarios::CASE_B] {
        let traces = run_case(case, opts);
        atom_obs::info!(
            "\nCase {} (N = {}, front-end share {}):",
            case.name,
            case.users,
            case.front_end_share
        );
        let mut table = Table::new(&["minute", "vertical TPS", "horizontal TPS"]);
        for i in 0..traces[0].tps.len() {
            table.row(vec![
                (i + 1).to_string(),
                f(traces[0].tps[i], 1),
                f(traces[1].tps[i], 1),
            ]);
        }
        table.print();
        atom_obs::info!(
            "steady state: vertical {:.1} TPS, horizontal {:.1} TPS ({:+.1}% for horizontal)",
            traces[0].steady_state,
            traces[1].steady_state,
            100.0 * (traces[1].steady_state - traces[0].steady_state) / traces[0].steady_state
        );
        table.write_csv(
            &opts
                .out_dir
                .join(format!("fig2_case_{}.csv", case.name.to_lowercase())),
        );
    }
}
