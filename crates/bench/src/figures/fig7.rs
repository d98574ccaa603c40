//! Fig. 7 — ATOM vs its conservative variants ATOM-T and ATOM-S, on the
//! light browsing mix and the heavy ordering mix at N = 3000.

use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one, ScalerKind};
use crate::output::{f, Table};
use crate::HarnessOptions;

/// Regenerates Fig. 7 and writes `fig7_{browsing,ordering}.csv`.
pub(super) fn run(opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 7: ATOM vs ATOM-T vs ATOM-S (N = 3000) ==");
    let shop = SockShop::default();
    for (mix_name, mix) in [
        ("browsing", scenarios::browsing_mix()),
        ("ordering", scenarios::ordering_mix()),
    ] {
        atom_obs::info!("\n{mix_name} mix:");
        let variants = [ScalerKind::Atom, ScalerKind::AtomT, ScalerKind::AtomS];
        let results: Vec<_> = variants
            .iter()
            .map(|&kind| {
                atom_obs::progress!("  running fig7 {mix_name} {}", kind.name());
                run_one(
                    &shop,
                    scenarios::evaluation_workload(mix.clone(), 3000),
                    kind,
                    opts.windows(),
                    opts.window_secs(),
                    opts,
                )
            })
            .collect();
        let mut table = Table::new(&["window", "ATOM", "ATOM-T", "ATOM-S"]);
        for w in 0..opts.windows() {
            table.row(vec![
                (w + 1).to_string(),
                f(results[0].reports[w].total_tps, 1),
                f(results[1].reports[w].total_tps, 1),
                f(results[2].reports[w].total_tps, 1),
            ]);
        }
        table.print();
        atom_obs::info!(
            "mean TPS: ATOM {:.1}, ATOM-T {:.1}, ATOM-S {:.1}",
            results[0].mean_tps(0, opts.windows()),
            results[1].mean_tps(0, opts.windows()),
            results[2].mean_tps(0, opts.windows()),
        );
        table.write_csv(&opts.out_dir.join(format!("fig7_{mix_name}.csv")));
    }
}
