#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! Layered Queueing Networks (LQN) for microservice performance modelling.
//!
//! This crate is the modelling substrate of the ATOM reproduction. It
//! provides:
//!
//! * [`model`] — the LQN itself: processors, tasks (with thread
//!   multiplicity, replica count and per-replica CPU share), entries with
//!   host demands, and synchronous calls (ATOM Fig. 3);
//! * [`analytic`] — a fast fixed-point layered solver in the spirit of
//!   LQNS with the Bard–Schweitzer single-step MVA option used by the
//!   paper (§IV-C); this is what ATOM's genetic algorithm evaluates
//!   hundreds of times per control period;
//! * [`sim`] — a discrete-event LQN simulator (the LQSIM stand-in) used to
//!   validate the analytic solver and to produce the paper's
//!   "measurement" column in Tables III/IV;
//! * [`DecisionVector`] — the model transforms of Algorithm 1
//!   (`updateReplication`, `updateCalls`, `updateHostDemand`) expressed as
//!   a single [`DecisionVector::apply`] of the one candidate type the
//!   stack has: replicas and CPU shares on the integer actuation lattice.
//!
//! # Modelling conventions
//!
//! * Host demands are CPU-seconds at reference speed 1.0; a processor's
//!   `speed` captures CPU-frequency differences (Table V).
//! * A CPU share `s` caps one replica at `s` cores. A task whose thread
//!   multiplicity is `m` can use at most `min(s, m)` cores per replica,
//!   and a single request never runs faster than `min(s, 1)` cores —
//!   which is why vertical scaling stops helping a single-threaded
//!   front-end once `s = 1` (paper Fig. 2b).
//! * Replication is modelled natively as multi-server task stations, so
//!   the fan-in/fan-out bookkeeping of LQNS replication (`updateCalls` in
//!   Algorithm 1) is handled internally rather than by editing call means.
//!
//! # Example
//!
//! ```
//! use atom_lqn::model::LqnModel;
//! use atom_lqn::analytic::{solve, SolverOptions};
//!
//! # fn main() -> Result<(), atom_lqn::LqnError> {
//! let mut m = LqnModel::new();
//! let cpu = m.add_processor("cpu", 1, 1.0);
//! let web = m.add_task("web", cpu, 10, 1)?;     // 10 threads, 1 replica
//! let page = m.add_entry("page", web, 0.02)?;   // 20 ms of CPU
//! let client = m.add_reference_task("users", 50, 1.0)?;
//! m.add_call(m.reference_entry(client)?, page, 1.0)?;
//! let sol = solve(&m, SolverOptions::default())?;
//! assert!(sol.entry_throughput(page) > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod analytic;
pub mod bottleneck;
mod error;
mod format;
pub mod model;
mod scaling;
pub mod sim;
mod solution;

pub use error::LqnError;
pub use format::{from_lqn_text, to_lqn_text};
pub use model::{EntryId, LqnModel, ProcessorId, TaskId};
pub use scaling::{share_index, DecisionVector, TaskDecision, SHARE_STEP};
pub use solution::LqnSolution;
