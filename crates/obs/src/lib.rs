#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! Deterministic telemetry for the ATOM reproduction.
//!
//! Every primitive in this crate is keyed on **simulated time and seed,
//! never wall clock**: recording the same experiment twice — or running
//! it with telemetry enabled vs disabled — produces bitwise-identical
//! experiment output and bitwise-identical journals. That inertness rule
//! is what makes the journal trustworthy as an explanation of a run
//! rather than a perturbation of it (see DESIGN.md, "Observability").
//!
//! The crate provides:
//!
//! * [`Registry`] — named counters, gauges, and histograms with a
//!   Prometheus-text-format snapshot ([`Registry::prometheus_text`]);
//! * [`Histogram`] — HDR-style fixed-bucket histogram;
//! * [`Journal`] — a bounded ring buffer of [`Record`]s with JSONL
//!   export, headed by the per-window MAPE-K [`DecisionRecord`], which
//!   renders the operator's one-line account of its window
//!   ([`DecisionRecord::explanation`]);
//! * [`log`] — a process-wide verbosity level and the [`info!`],
//!   [`progress!`], [`verbose!`], [`error!`] macros that give every
//!   binary one consistent `--quiet`/`--verbose` story.
//!
//! The crate depends only on `serde`/`serde_json` (in-tree shims) and
//! deliberately knows nothing about LQNs, GAs, or clusters: the layers
//! being observed translate their own state into plain records.

mod histogram;
mod journal;
pub mod log;
mod record;
mod registry;

pub use histogram::Histogram;
pub use journal::{Journal, JournalEvent};
pub use log::Verbosity;
pub use record::{
    ActuationOutcome, BottleneckRecord, ChosenAction, DecisionRecord, DriftRecord, ForecastRecord,
    GaGenerations, Record, RunRecord, ServiceDemand, ServiceDrift, SolveCounters,
    TelemetrySnapshot,
};
pub use registry::{with_labels, Registry};
