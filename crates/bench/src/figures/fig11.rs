//! Fig. 11 — the layered-bottleneck case study: per-window demand vs
//! supply of CPU capacity for the router (A), front-end (B) and carts
//! service (C), under UV and under ATOM (ordering mix, N = 2000).

use atom_sockshop::{scenarios, SockShop, SVC_CARTS, SVC_FRONT_END, SVC_ROUTER};

use crate::eval::{run_one, ScalerKind};
use crate::output::{f, Table};
use crate::HarnessOptions;

/// Regenerates Fig. 11 and writes `fig11_{uv,atom}.csv`.
pub(super) fn run(opts: &HarnessOptions) {
    atom_obs::info!("\n== Fig. 11: layered bottleneck — demand vs supply per window ==");
    let shop = SockShop::default();
    let services = [
        ("A(router)", SVC_ROUTER),
        ("B(front-end)", SVC_FRONT_END),
        ("C(carts)", SVC_CARTS),
    ];
    for kind in [ScalerKind::Uv, ScalerKind::Atom] {
        atom_obs::progress!("  running fig11 {}", kind.name());
        let result = run_one(
            &shop,
            scenarios::evaluation_workload(scenarios::ordering_mix(), 2000),
            kind,
            opts.windows(),
            opts.window_secs(),
            opts,
        );
        atom_obs::info!("\n{}:", kind.name());
        let mut header = vec!["window".to_string()];
        for (label, _) in &services {
            header.push(format!("{label} need"));
            header.push(format!("{label} alloc"));
        }
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);
        for w in 0..opts.windows() {
            let mut row = vec![(w + 1).to_string()];
            for (_, si) in &services {
                let cw = result.capacity[*si].windows()[w];
                row.push(f(cw.required, 2));
                row.push(f(cw.allocated, 2));
            }
            table.row(row);
        }
        table.print();
        // Bottleneck-resolution summary: the last window in which each
        // service was still under-provisioned (the paper's narrative:
        // UV resolves the layered chain one service per window; ATOM
        // removes all bottlenecks at once after the first window).
        for (label, si) in &services {
            let last_starved = result.capacity[*si]
                .windows()
                .iter()
                .rposition(|w| w.shortfall() > 0.01)
                .map(|i| (i + 1).to_string())
                .unwrap_or_else(|| "none".into());
            atom_obs::info!("  {label}: last under-provisioned window = {last_starved}");
        }
        table.write_csv(&opts.out_dir.join(format!(
            "fig11_{}.csv",
            kind.name().to_lowercase().replace('-', "_")
        )));
    }
}
