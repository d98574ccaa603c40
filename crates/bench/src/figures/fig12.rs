//! Fig. 12 — sensitivity to the monitoring-window size: UV vs ATOM on
//! the ordering mix at N = 2000, with 2/5/10-minute windows over a
//! 40-minute run.

use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one, ScalerKind, STATELESS};
use crate::output::{f, Table};
use crate::HarnessOptions;

/// Regenerates Fig. 12 and writes `fig12.csv`.
pub(super) fn run(opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 12: monitoring-window size sweep (ordering, N = 2000) ==");
    let shop = SockShop::default();
    let mut table = Table::new(&["window [min]", "scaler", "T_u [s]", "A_u [core-s]", "TPS"]);
    for window_mins in [2.0f64, 5.0, 10.0] {
        let window_secs = window_mins * 60.0;
        let windows = (scenarios::RUN_SECS / window_secs).round() as usize;
        for kind in [ScalerKind::Uv, ScalerKind::Atom] {
            atom_obs::progress!("  running fig12 {}min {}", window_mins, kind.name());
            let result = run_one(
                &shop,
                scenarios::evaluation_workload(scenarios::ordering_mix(), 2000),
                kind,
                windows,
                window_secs,
                opts,
            );
            table.row(vec![
                f(window_mins, 0),
                kind.name().to_string(),
                f(result.underprovision_time(Some(&STATELESS)), 0),
                f(result.underprovision_area(Some(&STATELESS)), 0),
                f(result.mean_tps(0, windows), 1),
            ]);
        }
    }
    table.print();
    atom_obs::info!("paper: ATOM wins at 5 and 10 min; at 2 min the two are similar");
    table.write_csv(&opts.out_dir.join("fig12.csv"));
}
