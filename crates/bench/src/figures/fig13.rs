//! Fig. 13 — bursty workloads: ordering mix at N = 500 with burstiness
//! injected at index of dispersion I (the paper contrasts I = 400, where
//! the scalers tie, with I = 4000, where ATOM wins ~28% cumulative TPS).

use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one, ScalerKind};
use crate::output::{f, Table};
use crate::HarnessOptions;

/// Regenerates Fig. 13 and writes `fig13_i{400,4000}.csv`.
pub(super) fn run(opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 13: bursty workloads (ordering mix, N = 500) ==");
    let shop = SockShop::default();
    // Bursts are rare events (one every ~3 minutes at I = 4000), so a
    // single 40-minute run is seed-noisy; average the cumulative numbers
    // over a few replications and show one replication's trace.
    let seeds = if opts.quick { 2 } else { 3 };
    for index in [400.0f64, 4000.0] {
        atom_obs::info!("\nindex of dispersion I = {index}:");
        let mut cum = [0.0f64; 2];
        let mut first_traces: Vec<Vec<f64>> = Vec::new();
        let horizon = opts.windows() as f64 * opts.window_secs();
        for rep in 0..seeds {
            let rep_opts = crate::HarnessOptions {
                seed: opts.seed + rep as u64,
                ..opts.clone()
            };
            for (k, kind) in [ScalerKind::Uv, ScalerKind::Atom].into_iter().enumerate() {
                atom_obs::progress!("  running fig13 I={index} {} (rep {rep})", kind.name());
                let result = run_one(
                    &shop,
                    scenarios::bursty_workload(index),
                    kind,
                    opts.windows(),
                    opts.window_secs(),
                    &rep_opts,
                );
                cum[k] += result.cumulative_tps(0.0, horizon);
                if rep == 0 {
                    first_traces.push(result.reports.iter().map(|r| r.total_tps).collect());
                }
            }
        }
        let mut table = Table::new(&["window", "UV", "ATOM"]);
        for (w, (uv, atom)) in first_traces[0].iter().zip(&first_traces[1]).enumerate() {
            table.row(vec![(w + 1).to_string(), f(*uv, 1), f(*atom, 1)]);
        }
        table.print();
        let (cum_uv, cum_atom) = (cum[0] / seeds as f64, cum[1] / seeds as f64);
        atom_obs::info!(
            "cumulative transactions (mean of {seeds} reps): UV {:.0}, ATOM {:.0} \
             ({:+.1}% for ATOM; paper: +28% at I=4000)",
            cum_uv,
            cum_atom,
            100.0 * (cum_atom - cum_uv) / cum_uv
        );
        table.write_csv(&opts.out_dir.join(format!("fig13_i{}.csv", index as u64)));
    }
}
