//! Shared §V evaluation machinery: scaler construction and the
//! mix × population × scaler experiment matrix reused by Figs. 8–11.

use std::sync::OnceLock;

use atom_cluster::ClusterOptions;
use atom_core::workload::WorkloadSpec;
use atom_core::{
    run_experiment, Atom, AtomConfig, Autoscaler, ExperimentConfig, ExperimentResult,
    ForecastConfig, PlannerMode, UhScaler, UvScaler,
};
use atom_ga::Budget;
use atom_sockshop::{scenarios, SockShop};

use crate::HarnessOptions;

/// Which autoscaler drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalerKind {
    /// Utilisation-triggered horizontal doubling.
    Uh,
    /// Utilisation-triggered vertical doubling.
    Uv,
    /// ATOM with the standard planner.
    Atom,
    /// ATOM-T (conservative on predicted TPS improvement).
    AtomT,
    /// ATOM-S (conservative on total CPU change).
    AtomS,
    /// ATOM-P: proactive ATOM, planning for forecast demand at the
    /// actuation horizon. `season_windows ≥ 2` adds a seasonal model
    /// with that cycle (in monitoring windows) to the ensemble.
    AtomP {
        /// Dominant workload period in monitoring windows (0 = none).
        season_windows: usize,
    },
}

impl ScalerKind {
    /// Display name matching the paper.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ScalerKind::Uh => "UH",
            ScalerKind::Uv => "UV",
            ScalerKind::Atom => "ATOM",
            ScalerKind::AtomT => "ATOM-T",
            ScalerKind::AtomS => "ATOM-S",
            ScalerKind::AtomP { .. } => "ATOM-P",
        }
    }

    /// All paper-comparison scalers (Figs. 8–10).
    pub(crate) fn baselines_and_atom() -> [ScalerKind; 3] {
        [ScalerKind::Uh, ScalerKind::Uv, ScalerKind::Atom]
    }
}

/// Runs one §V experiment: `workload` against the Sock Shop under the
/// given scaler, for `windows × window_secs` simulated seconds.
pub(crate) fn run_one(
    shop: &SockShop,
    workload: WorkloadSpec,
    kind: ScalerKind,
    windows: usize,
    window_secs: f64,
    opts: &HarnessOptions,
) -> ExperimentResult {
    run_one_with_cluster(
        shop,
        workload,
        kind,
        windows,
        window_secs,
        opts,
        ClusterOptions::new().with_seed(opts.seed),
    )
}

/// `run_one` with explicit cluster options — the chaos experiment uses
/// this to inject a fault schedule under the standard scaler wiring.
#[allow(clippy::too_many_arguments)]
pub fn run_one_with_cluster(
    shop: &SockShop,
    workload: WorkloadSpec,
    kind: ScalerKind,
    windows: usize,
    window_secs: f64,
    opts: &HarnessOptions,
    cluster: ClusterOptions,
) -> ExperimentResult {
    // UH cannot scale stateful services; the paper pre-allocates a full
    // core to each of them in UH scenarios.
    let spec = if kind == ScalerKind::Uh {
        shop.app_spec_stateful_full_core()
    } else {
        shop.app_spec()
    };
    let config = ExperimentConfig {
        windows,
        window_secs,
        cluster,
    };
    let mut uh;
    let mut uv;
    let mut atom;
    let scaler: &mut dyn Autoscaler = match kind {
        ScalerKind::Uh => {
            uh = UhScaler::new(&spec);
            &mut uh
        }
        ScalerKind::Uv => {
            uv = UvScaler::new(&spec);
            &mut uv
        }
        ScalerKind::Atom | ScalerKind::AtomT | ScalerKind::AtomS | ScalerKind::AtomP { .. } => {
            let mut binding = shop.binding(
                scenarios::INITIAL_USERS,
                workload.think_time,
                workload.mix.fractions(),
            );
            // A priced fabric enters the knowledge base: each
            // service-to-service call's `net_delay` becomes the analytic
            // round trip its placement pays, so the LQN predicts the
            // same placement-dependent network residence the cluster
            // charges (zero-delay topologies price to 0.0 and change
            // nothing).
            if let Some(topo) = &config.cluster.topology {
                binding.apply_network(&atom_cluster::NetworkDelay::new(topo.clone()));
            }
            let mut cfg = AtomConfig::new(shop.objective());
            cfg.ga.budget = Budget::Evaluations(opts.ga_budget());
            cfg.ga.seed = opts.seed;
            cfg.planner_mode = match kind {
                ScalerKind::AtomT => PlannerMode::ConservativeTps,
                ScalerKind::AtomS => PlannerMode::ConservativeShare,
                _ => PlannerMode::Standard,
            };
            if let ScalerKind::AtomP { season_windows } = kind {
                cfg.forecast = ForecastConfig::enabled();
                cfg.forecast.season_windows = season_windows;
            }
            atom = Atom::new(binding, cfg);
            &mut atom
        }
    };
    run_experiment(&spec, workload, scaler, config).expect("experiment must run")
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub(crate) struct MatrixCell {
    /// Mix name ("browsing" / "shopping" / "ordering").
    pub mix: &'static str,
    /// Target population.
    pub users: usize,
    /// Scaler.
    pub scaler: ScalerKind,
    /// The full experiment result.
    pub result: ExperimentResult,
}

/// The full Fig. 8–10 matrix: 3 mixes × 3 populations × 3 scalers.
pub(crate) fn evaluation_matrix(opts: &HarnessOptions) -> Vec<MatrixCell> {
    let shop = SockShop::default();
    let mut cells = Vec::new();
    for (mix_name, mix) in scenarios::evaluation_mixes() {
        for &users in &[1000usize, 2000, 3000] {
            for kind in ScalerKind::baselines_and_atom() {
                atom_obs::progress!("  running {mix_name} N={users} {}", kind.name());
                let workload = scenarios::evaluation_workload(mix.clone(), users);
                let result = run_one(
                    &shop,
                    workload,
                    kind,
                    opts.windows(),
                    opts.window_secs(),
                    opts,
                );
                cells.push(MatrixCell {
                    mix: mix_name,
                    users,
                    scaler: kind,
                    result,
                });
            }
        }
    }
    cells
}

/// [`evaluation_matrix`], run once per process (which runs under one
/// set of options): `fig8`, `fig9` and `fig10` read the same 27 runs.
pub(crate) fn shared_matrix(opts: &HarnessOptions) -> &'static [MatrixCell] {
    static MATRIX: OnceLock<Vec<MatrixCell>> = OnceLock::new();
    MATRIX.get_or_init(|| {
        atom_obs::progress!("running the evaluation matrix (27 runs)...");
        evaluation_matrix(opts)
    })
}

/// Indices of the three stateless services over which the paper computes
/// `T_u` and `A_u` ("the results are considering 3 microservices since UH
/// does not scale the router and 2 database services").
pub(crate) const STATELESS: [usize; 3] = [
    atom_sockshop::SVC_FRONT_END,
    atom_sockshop::SVC_CATALOGUE,
    atom_sockshop::SVC_CARTS,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_names() {
        assert_eq!(ScalerKind::Uh.name(), "UH");
        assert_eq!(ScalerKind::Atom.name(), "ATOM");
        assert_eq!(ScalerKind::baselines_and_atom().len(), 3);
    }

    #[test]
    fn run_one_produces_reports() {
        let shop = SockShop::default();
        let opts = HarnessOptions {
            quick: true,
            ..Default::default()
        };
        let workload = scenarios::evaluation_workload(scenarios::browsing_mix(), 800);
        let r = run_one(&shop, workload, ScalerKind::Uv, 3, 120.0, &opts);
        assert_eq!(r.reports.len(), 3);
        assert_eq!(r.scaler, "UV");
        assert!(r.mean_tps(0, 3) > 0.0);
    }
}
