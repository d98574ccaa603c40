#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! Experiment harness regenerating every table and figure of the ATOM
//! paper's evaluation (§III-C and §V).
//!
//! The `repro` binary exposes one command per row of
//! [`figures::EXPERIMENTS`] (a unit test keeps this list equal to the
//! table); `repro --smoke <command>` runs that row's CI gate and
//! `repro --smoke all` every gate:
//!
//! | command      | artefact |
//! |--------------|----------|
//! | `setup`      | Tables I/V/VI: the encoded experimental setup |
//! | `fig2`       | motivating example: vertical vs horizontal front-end doubling |
//! | `fig4`       | demand estimation: utilisation law vs response time |
//! | `validation` | `table3` + `fig5` + `table4` over one Table II sweep |
//! | `table3`     | model-vs-measurement % errors over the Table II sweep |
//! | `fig5`       | per-server utilisation, model vs measurement (patterns 1 & 3) |
//! | `table4`     | per-feature TPS / per-service utilisation at workload 1, N=3000 |
//! | `fig7`       | ATOM vs ATOM-T vs ATOM-S |
//! | `evaluation` | `fig8` + `fig9` + `fig10` over one 27-run matrix |
//! | `fig8`       | TPS over time, ATOM vs UH vs UV (3 mixes × 3 Ns) |
//! | `fig9`       | T_u / A_u / TPS vs N |
//! | `fig10`      | T_u / A_u / TPS vs request mix |
//! | `fig11`      | layered bottleneck: demand vs supply per window |
//! | `fig12`      | monitoring-window sweep (2/5/10 min) |
//! | `fig13`      | bursty workload (I = 4000) |
//! | `ablation`   | optimizer / quick-fix / peak-monitoring / online-demand ablations |
//! | `chaos`      | beyond the paper: ATOM vs UH vs UV under a fault schedule (gated) |
//! | `forecast`   | beyond the paper: reactive vs proactive (forecast-driven) ATOM (gated) |
//! | `trace`      | beyond the paper: Alibaba/Google production-trace replay (gated) |
//! | `audit`      | beyond the paper: span sampling + LQN model-drift attribution (gated) |
//! | `contention` | beyond the paper: tenants contending for one node pool (gated) |
//! | `netlat`     | beyond the paper: placement-sensitive scaling under the network fabric (gated) |
//! | `journal`    | a short UH + ATOM pair; its gate is the bare `--smoke`: the journal schema |
//! | `all`        | every row above except the by-name-only ones (group members, `journal`) |
//!
//! Results are printed as paper-style tables and also written as CSV
//! under `results/`. Everything is deterministic given `--seed`.

pub mod eval;
pub mod figures;
mod output;
pub mod trace;

/// Harness-wide options parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Base RNG seed.
    pub seed: u64,
    /// Quick mode: reduced GA budgets and shorter windows, for smoke
    /// runs; the full protocol matches the paper's timings.
    pub quick: bool,
    /// Output directory for CSV artefacts.
    pub out_dir: std::path::PathBuf,
    /// Where to write the JSONL decision journal (`--trace-out`);
    /// `None` disables the journal. Purely observational — enabling it
    /// leaves every experiment output bitwise identical.
    pub trace_out: Option<std::path::PathBuf>,
    /// Where to write the Prometheus-text metrics snapshot
    /// (`--metrics-out`); `None` disables it.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Where to write the sampled request spans as Chrome trace-event
    /// JSON (`--spans-out`, Perfetto-loadable); `None` disables it.
    /// Only experiments that enable span sampling (`audit`) produce
    /// spans — elsewhere the file is an empty event array.
    pub spans_out: Option<std::path::PathBuf>,
    /// The one trace `trace` replays instead of the bundled fixtures
    /// (`--trace-file`).
    pub trace_file: Option<std::path::PathBuf>,
    /// Format of `trace_file` (`--format`; Alibaba when absent).
    pub trace_format: Option<atom_core::workload::TraceFormat>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            seed: 42,
            quick: false,
            out_dir: std::path::PathBuf::from("results"),
            trace_out: None,
            metrics_out: None,
            spans_out: None,
            trace_file: None,
            trace_format: None,
        }
    }
}

impl HarnessOptions {
    /// GA evaluation budget for ATOM decisions.
    pub fn ga_budget(&self) -> usize {
        if self.quick {
            300
        } else {
            600
        }
    }

    /// Monitoring window length (seconds). Fixed at the paper's 5
    /// minutes: shortening it would break the 25-minute ramp protocol.
    pub(crate) fn window_secs(&self) -> f64 {
        300.0
    }

    /// Number of windows in a standard 40-minute evaluation run.
    pub(crate) fn windows(&self) -> usize {
        8
    }

    /// Run length `(windows, window_secs)` of the beyond-the-paper
    /// experiments: the paper's 40-minute protocol, or `quick_windows`
    /// two-minute windows in quick mode.
    pub(crate) fn protocol(&self, quick_windows: usize) -> (usize, f64) {
        if self.quick {
            (quick_windows, 120.0)
        } else {
            (self.windows(), self.window_secs())
        }
    }
}
