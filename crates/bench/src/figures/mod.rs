//! One module per artefact, one table of them all ([`EXPERIMENTS`]), and
//! the runner `repro` drives the table with ([`run_commands`]).

mod ablation;
mod audit;
pub mod chaos;
mod contention;
mod fig11;
mod fig12;
mod fig13;
mod fig2;
mod fig4;
mod fig7;
mod fig8910;
mod forecast;
mod journal;
mod netlat;
mod trace_replay;
mod validation;

use atom_core::ExperimentResult;

use crate::{eval, trace, HarnessOptions};

/// One `repro` command.
pub struct Experiment {
    /// Command name.
    pub name: &'static str,
    /// One line for `--help`.
    pub about: &'static str,
    /// Whether `all` includes it.
    pub in_all: bool,
    /// Runs the experiment and writes its artefacts under
    /// `opts.out_dir`. Returned results feed `--trace-out` /
    /// `--metrics-out`; experiments without a MAPE-K run (or with an
    /// export of their own) return none.
    pub(crate) run: fn(&HarnessOptions) -> Vec<ExperimentResult>,
    /// The experiment's CI gate (`--smoke`): a quick variant of `run`
    /// plus its checks, returning one message per violated check.
    pub(crate) smoke: Option<fn(&HarnessOptions) -> Vec<String>>,
}

impl Experiment {
    /// A row that `all` includes and that has no gate.
    const fn new(
        name: &'static str,
        about: &'static str,
        run: fn(&HarnessOptions) -> Vec<ExperimentResult>,
    ) -> Self {
        Experiment {
            name,
            about,
            in_all: true,
            run,
            smoke: None,
        }
    }

    /// Runs only when named.
    const fn by_name_only(mut self) -> Self {
        self.in_all = false;
        self
    }

    const fn gated(mut self, smoke: fn(&HarnessOptions) -> Vec<String>) -> Self {
        self.smoke = Some(smoke);
        self
    }
}

/// Every command, in execution order. The group rows `validation` and
/// `evaluation` are what `all` runs; their members share the group's
/// sweep / matrix within a process, so `table3 fig5` costs one sweep.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new(
        "setup",
        "Tables I/V/VI: the experimental setup (encoded constants)",
        |_| {
            print_setup();
            Vec::new()
        },
    ),
    Experiment::new(
        "fig2",
        "motivating example: vertical vs horizontal front-end doubling",
        |o| {
            fig2::run(o);
            Vec::new()
        },
    ),
    Experiment::new(
        "fig4",
        "demand estimation: utilisation law vs response time",
        |o| {
            fig4::run(o);
            Vec::new()
        },
    ),
    Experiment::new(
        "validation",
        "table3 + fig5 + table4 over one Table II sweep",
        |o| {
            let runs = validation::shared_sweep(o);
            validation::table3(runs, o);
            validation::fig5(runs, o);
            validation::table4(runs, o);
            Vec::new()
        },
    ),
    Experiment::new(
        "table3",
        "model-vs-measurement % errors over the Table II sweep",
        |o| {
            validation::table3(validation::shared_sweep(o), o);
            Vec::new()
        },
    )
    .by_name_only(),
    Experiment::new(
        "fig5",
        "per-server utilisation, model vs measurement (patterns 1 & 3)",
        |o| {
            validation::fig5(validation::shared_sweep(o), o);
            Vec::new()
        },
    )
    .by_name_only(),
    Experiment::new(
        "table4",
        "per-feature TPS / per-service utilisation at workload 1, N=3000",
        |o| {
            validation::table4(validation::shared_sweep(o), o);
            Vec::new()
        },
    )
    .by_name_only(),
    Experiment::new("fig7", "ATOM vs ATOM-T vs ATOM-S", |o| {
        fig7::run(o);
        Vec::new()
    }),
    Experiment::new(
        "evaluation",
        "fig8 + fig9 + fig10 over one 27-run matrix",
        |o| {
            let matrix = eval::shared_matrix(o);
            fig8910::fig8(matrix, o);
            fig8910::fig9(matrix, o);
            fig8910::fig10(matrix, o);
            Vec::new()
        },
    ),
    Experiment::new(
        "fig8",
        "TPS over time, ATOM vs UH vs UV (3 mixes x 3 Ns)",
        |o| {
            fig8910::fig8(eval::shared_matrix(o), o);
            Vec::new()
        },
    )
    .by_name_only(),
    Experiment::new("fig9", "T_u / A_u / TPS vs N", |o| {
        fig8910::fig9(eval::shared_matrix(o), o);
        Vec::new()
    })
    .by_name_only(),
    Experiment::new("fig10", "T_u / A_u / TPS vs request mix", |o| {
        fig8910::fig10(eval::shared_matrix(o), o);
        Vec::new()
    })
    .by_name_only(),
    Experiment::new(
        "fig11",
        "layered bottleneck: demand vs supply per window",
        |o| {
            fig11::run(o);
            Vec::new()
        },
    ),
    Experiment::new("fig12", "monitoring-window sweep (2/5/10 min)", |o| {
        fig12::run(o);
        Vec::new()
    }),
    Experiment::new("fig13", "bursty workload (I = 4000)", |o| {
        fig13::run(o);
        Vec::new()
    }),
    Experiment::new(
        "ablation",
        "optimizer / quick-fix / peak-monitoring / online-demand ablations",
        |o| {
            ablation::run(o);
            Vec::new()
        },
    ),
    Experiment::new(
        "chaos",
        "ATOM vs UH vs UV under a fault schedule; gate: no wedging, availability restored",
        chaos::run,
    )
    .gated(chaos::smoke),
    Experiment::new(
        "forecast",
        "reactive vs proactive ATOM on ramp / bursty / diurnal; gate: proactive <= reactive \
         SLO-violation on the ramp",
        forecast::run,
    )
    .gated(forecast::smoke),
    Experiment::new(
        "trace",
        "production arrival-trace replay (--trace-file, --format; default: the bundled \
         fixtures); gate: journal schema, no wedging, proactive <= reactive",
        trace_replay::run,
    )
    .gated(trace_replay::smoke),
    Experiment::new(
        "audit",
        "span sampling + LQN drift attribution (drift.csv, audit_attribution.csv, --spans-out); \
         gate: finite drift, sMAPE bound, attribution = T_u, spans re-parse",
        audit::run,
    )
    .gated(audit::smoke),
    Experiment::new(
        "contention",
        "2 and 4 tenants on ample and tight pools; gate: fairness bounds, ledger \
         reconciliation, rejections under exhaustion",
        |o| {
            contention::run(o);
            Vec::new()
        },
    )
    .gated(contention::smoke),
    Experiment::new(
        "netlat",
        "friendly vs adversarial rack placement under the network fabric; gate: placement \
         degradation, network-drift bound",
        |o| {
            netlat::run(o);
            Vec::new()
        },
    )
    .gated(netlat::smoke),
    Experiment::new(
        "journal",
        "a 3-window UH + ATOM pair; gate (the bare --smoke): the decision journal re-parses \
         through the atom-obs schema",
        journal::run,
    )
    .by_name_only()
    .gated(journal::smoke),
];

fn print_setup() {
    atom_obs::info!("== Tables I/V/VI: experimental setup (encoded constants) ==");
    atom_obs::info!(
        "Table I  : case A: N=1000, fe share 0.2; case B: N=4000, fe share 1.0; mix 57/29/14, Z=7s"
    );
    let spec = atom_sockshop::SockShop::default().app_spec();
    for (i, server) in spec.servers.iter().enumerate() {
        let hosted: Vec<&str> = spec
            .services
            .iter()
            .filter(|s| s.server.0 == i)
            .map(|s| s.name.as_str())
            .collect();
        atom_obs::info!(
            "{} {}: {} cores @{} ({})",
            if i == 0 { "Table V  :" } else { "          " },
            server.name,
            server.cores,
            server.speed,
            hosted.join(", ")
        );
    }
    atom_obs::info!("Table VI : browsing 63/32/5, shopping 54/26/20, ordering 33/17/50; N in {{1000,2000,3000}}, Z=7s");
    atom_obs::info!("protocol : 40-minute runs, workload ramps 500->N over the first 25 minutes, 5-minute windows");
}

/// Why [`run_commands`] did not complete cleanly.
#[derive(Debug, PartialEq)]
pub enum RunError {
    /// A command that is neither a table row nor `all`, or `--smoke` of
    /// a row without a gate.
    Usage(String),
    /// Violated gate checks, each prefixed with its experiment's name.
    Gates(Vec<String>),
}

impl RunError {
    /// The process exit code: 2 for usage errors, 1 for failed gates.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::Usage(_) => 2,
            RunError::Gates(_) => 1,
        }
    }
}

/// Runs `commands` against `table`, in table order. Without `smoke`,
/// each named row (`all`: every `in_all` row) runs and its results are
/// exported. With `smoke`, each named row's gate runs in quick mode
/// (`all`: every gate) and every violation is collected — the caller
/// reports them and exits once.
pub fn run_commands(
    table: &[Experiment],
    opts: &HarnessOptions,
    commands: &[String],
    smoke: bool,
) -> Result<(), RunError> {
    let all = commands.iter().any(|c| c == "all");
    let named = |e: &Experiment| commands.iter().any(|c| c == e.name);
    for c in commands.iter().filter(|c| *c != "all") {
        match table.iter().find(|e| e.name == c) {
            None => {
                return Err(RunError::Usage(format!(
                    "unknown command `{c}`; run with --help for the list"
                )))
            }
            Some(e) if smoke && e.smoke.is_none() => {
                return Err(RunError::Usage(format!("`{c}` has no --smoke gate")))
            }
            Some(_) => {}
        }
    }
    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    if !smoke {
        for e in table.iter().filter(|e| named(e) || (all && e.in_all)) {
            let results = (e.run)(opts);
            if !results.is_empty() {
                trace::emit(opts, &results);
            }
        }
        return Ok(());
    }
    let opts = HarnessOptions {
        quick: true,
        ..opts.clone()
    };
    let mut failures = Vec::new();
    for e in table.iter().filter(|e| named(e) || all) {
        let Some(gate) = e.smoke else { continue };
        let found = gate(&opts);
        if found.is_empty() {
            atom_obs::info!("smoke OK: {}", e.name);
        }
        failures.extend(found.into_iter().map(|msg| format!("{}: {msg}", e.name)));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(RunError::Gates(failures))
    }
}

/// The launcher's worker count: the `ATOM_EVAL_WORKERS` environment
/// variable when set to a positive integer, else 1. The one place the
/// variable is parsed.
fn default_workers() -> usize {
    std::env::var("ATOM_EVAL_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(1)
}

/// Maps `f` over `cells` on `ATOM_EVAL_WORKERS` threads (default 1),
/// results in cell order. Every cell is self-contained, so the output
/// is bitwise independent of the worker count.
pub(crate) fn fan_out<C: Sync, T: Send>(cells: &[C], f: impl Fn(&C) -> T + Sync) -> Vec<T> {
    fan_out_on(default_workers(), cells, f)
}

/// [`fan_out`] on `workers` threads, index-strided.
fn fan_out_on<C: Sync, T: Send>(workers: usize, cells: &[C], f: impl Fn(&C) -> T + Sync) -> Vec<T> {
    let n_workers = workers.min(cells.len());
    if n_workers <= 1 {
        return cells.iter().map(f).collect();
    }
    let mut out: Vec<Option<T>> = cells.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    (w..cells.len())
                        .step_by(n_workers)
                        .map(|j| (j, f(&cells[j])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (j, v) in h.join().expect("fan-out worker panicked") {
                out[j] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every cell ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> HarnessOptions {
        HarnessOptions {
            out_dir: std::env::temp_dir().join("atom-bench-runner-test"),
            ..Default::default()
        }
    }

    fn cmds(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    const FAKE: &[Experiment] = &[
        Experiment::new("passes", "", |_| Vec::new()).gated(|_| Vec::new()),
        Experiment::new("ungated", "", |_| Vec::new()),
        Experiment::new("fails", "", |_| Vec::new())
            .by_name_only()
            .gated(|o| vec![format!("quick={}", o.quick)]),
    ];

    #[test]
    fn table_names_are_unique_and_all_is_reserved() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_ne!(e.name, "all");
            assert!(
                EXPERIMENTS[..i].iter().all(|p| p.name != e.name),
                "duplicate row `{}`",
                e.name
            );
        }
    }

    #[test]
    fn crate_docs_list_exactly_the_table() {
        let documented: Vec<&str> = include_str!("../lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .filter_map(|l| l.split('`').next())
            .collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).chain(["all"]).collect();
        assert_eq!(documented, table);
    }

    #[test]
    fn unknown_commands_and_ungated_smokes_are_usage_errors() {
        let err = run_commands(FAKE, &opts(), &cmds(&["passes", "nope"]), false).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(matches!(&err, RunError::Usage(m) if m.contains("`nope`")));
        let err = run_commands(FAKE, &opts(), &cmds(&["ungated"]), true).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert_eq!(run_commands(FAKE, &opts(), &cmds(&["all"]), false), Ok(()));
    }

    #[test]
    fn a_failing_gate_names_its_experiment_and_exits_non_zero() {
        assert_eq!(
            run_commands(FAKE, &opts(), &cmds(&["passes"]), true),
            Ok(())
        );
        // `all` runs every gate (in_all or not), in quick mode.
        for commands in [cmds(&["all"]), cmds(&["fails", "passes"])] {
            let err = run_commands(FAKE, &opts(), &commands, true).unwrap_err();
            assert_eq!(err.exit_code(), 1);
            assert_eq!(err, RunError::Gates(vec!["fails: quick=true".into()]));
        }
    }

    #[test]
    fn fan_out_keeps_cell_order() {
        let cells: Vec<usize> = (0..13).collect();
        let expect: Vec<usize> = cells.iter().map(|c| c * 2).collect();
        for workers in [1, 2, 3] {
            assert_eq!(
                fan_out_on(workers, &cells, |c| c * 2),
                expect,
                "workers={workers}"
            );
        }
    }
}
