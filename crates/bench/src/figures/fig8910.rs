//! Figs. 8, 9 and 10 — the main §V-B evaluation over the mix × N ×
//! scaler matrix.

use crate::eval::{MatrixCell, ScalerKind, STATELESS};
use crate::output::{f, Table};
use crate::HarnessOptions;

/// Fig. 8: TPS over time for each (mix, N) combination.
pub(super) fn fig8(matrix: &[MatrixCell], opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 8: TPS over time, ATOM vs UH vs UV ==");
    for mix in ["browsing", "shopping", "ordering"] {
        for users in [1000usize, 2000, 3000] {
            let get = |kind: ScalerKind| {
                matrix
                    .iter()
                    .find(|c| c.mix == mix && c.users == users && c.scaler == kind)
                    .expect("matrix cell")
            };
            let (uh, uv, atom) = (
                get(ScalerKind::Uh),
                get(ScalerKind::Uv),
                get(ScalerKind::Atom),
            );
            atom_obs::info!("\n{mix} mix, N = {users}:");
            let mut table = Table::new(&["window", "UH", "UV", "ATOM"]);
            for w in 0..opts.windows() {
                table.row(vec![
                    (w + 1).to_string(),
                    f(uh.result.reports[w].total_tps, 1),
                    f(uv.result.reports[w].total_tps, 1),
                    f(atom.result.reports[w].total_tps, 1),
                ]);
            }
            table.print();
            table.write_csv(&opts.out_dir.join(format!("fig8_{mix}_{users}.csv")));
        }
    }
}

/// Summary metrics of one matrix cell, as used by Figs. 9/10.
fn metrics(cell: &MatrixCell, windows: usize) -> (f64, f64, f64) {
    (
        cell.result.underprovision_time(Some(&STATELESS)),
        cell.result.underprovision_area(Some(&STATELESS)),
        cell.result.mean_tps(0, windows),
    )
}

/// Fig. 9: `T_u`, `A_u` and TPS versus the number of concurrent users
/// (averaged over the three mixes, per scaler).
pub(super) fn fig9(matrix: &[MatrixCell], opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 9: elasticity / performance vs concurrent users ==");
    let mut table = Table::new(&["users", "scaler", "T_u [s]", "A_u [core-s]", "TPS"]);
    for users in [1000usize, 2000, 3000] {
        for kind in ScalerKind::baselines_and_atom() {
            let cells: Vec<_> = matrix
                .iter()
                .filter(|c| c.users == users && c.scaler == kind)
                .collect();
            let n = cells.len() as f64;
            let (mut tu, mut au, mut tps) = (0.0, 0.0, 0.0);
            for c in &cells {
                let (t, a, x) = metrics(c, opts.windows());
                tu += t;
                au += a;
                tps += x;
            }
            table.row(vec![
                users.to_string(),
                kind.name().to_string(),
                f(tu / n, 0),
                f(au / n, 0),
                f(tps / n, 1),
            ]);
        }
    }
    table.print();
    // Paper headline: at N = 3000 ATOM's TPS is ~30% above the next best.
    let tps_of = |kind: ScalerKind| {
        matrix
            .iter()
            .filter(|c| c.users == 3000 && c.scaler == kind)
            .map(|c| metrics(c, opts.windows()).2)
            .sum::<f64>()
            / 3.0
    };
    let atom = tps_of(ScalerKind::Atom);
    let uv = tps_of(ScalerKind::Uv);
    let uh = tps_of(ScalerKind::Uh);
    atom_obs::info!(
        "headline: at N=3000 ATOM TPS is {:+.1}% vs UV and {:+.1}% vs UH \
         (paper: ~+30% vs the next best, UV)",
        100.0 * (atom - uv) / uv,
        100.0 * (atom - uh) / uh
    );
    table.write_csv(&opts.out_dir.join("fig9.csv"));
}

/// Fig. 10: `T_u`, `A_u` and TPS versus the request mix at N = 3000.
pub(super) fn fig10(matrix: &[MatrixCell], opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 10: elasticity / performance vs request mix (N = 3000) ==");
    let mut table = Table::new(&["mix", "scaler", "T_u [s]", "A_u [core-s]", "TPS"]);
    for mix in ["browsing", "shopping", "ordering"] {
        for kind in ScalerKind::baselines_and_atom() {
            let cell = matrix
                .iter()
                .find(|c| c.mix == mix && c.users == 3000 && c.scaler == kind)
                .expect("matrix cell");
            let (tu, au, tps) = metrics(cell, opts.windows());
            table.row(vec![
                mix.to_string(),
                kind.name().to_string(),
                f(tu, 0),
                f(au, 0),
                f(tps, 1),
            ]);
        }
    }
    table.print();
    let tps_of = |mix: &str, kind: ScalerKind| {
        matrix
            .iter()
            .find(|c| c.mix == mix && c.users == 3000 && c.scaler == kind)
            .map(|c| metrics(c, opts.windows()).2)
            .expect("cell")
    };
    let atom = tps_of("ordering", ScalerKind::Atom);
    let uv = tps_of("ordering", ScalerKind::Uv);
    atom_obs::info!(
        "headline: ordering mix ATOM TPS is {:+.1}% vs UV (paper: ~+37%)",
        100.0 * (atom - uv) / uv
    );
    table.write_csv(&opts.out_dir.join("fig10.csv"));
}
