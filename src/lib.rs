#![warn(missing_docs)]

//! # ATOM — Model-Driven Autoscaling for Microservices
//!
//! Facade crate re-exporting the full ATOM reproduction workspace
//! (ICDCS 2019, Gias, Casale & Woodside). Each subsystem lives in its own
//! crate; this crate is the single dependency a downstream user needs.
//!
//! * [`mva`] — closed queueing-network solvers (exact MVA, Bard–Schweitzer).
//! * [`sim`] — discrete-event simulation engine.
//! * [`lqn`] — layered queueing networks: model, analytic solver, simulator.
//! * [`workload`] — closed workloads, request mixes, burstiness injection.
//! * [`cluster`] — the simulated container cluster "testbed".
//! * [`faults`] — deterministic fault-injection schedules (crashes,
//!   outages, monitor dropouts, actuation failures, slow starts).
//! * [`estimation`] — service-demand estimation (utilisation law vs
//!   response-time regression).
//! * [`ga`] — the genetic algorithm powering ATOM's optimizer.
//! * [`metrics`] — elasticity metrics (under-provision time/area, TPS).
//! * [`obs`] — deterministic sim-time telemetry: counters, histograms,
//!   the per-window MAPE-K decision journal, and structured logging.
//! * [`core`] — the ATOM controller itself plus the UH/UV baselines.
//! * [`placement`] — multi-tenant layer: node pool, deterministic
//!   first-fit-decreasing replica placement, admission control, and the
//!   per-tenant MAPE-K driver.
//! * [`sockshop`] — the Sock Shop case study and every paper scenario.
//!
//! # Quickstart
//!
//! ```
//! use atom::sockshop::SockShop;
//! use atom::lqn::analytic::{solve, SolverOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the Sock Shop LQN of Fig. 3 with 1000 browsing users.
//! let model = SockShop::default().lqn_model(1000, 7.0, &[0.57, 0.29, 0.14]);
//! let solution = solve(&model, SolverOptions::default())?;
//! println!("system TPS = {:.1}", solution.total_throughput());
//! # Ok(())
//! # }
//! ```

pub use atom_cluster as cluster;
pub use atom_cluster::faults;
pub use atom_core as core;
pub use atom_estimation as estimation;
pub use atom_ga as ga;
pub use atom_lqn as lqn;
pub use atom_metrics as metrics;
pub use atom_mva as mva;
pub use atom_net as net;
pub use atom_obs as obs;
pub use atom_placement as placement;
pub use atom_sim as sim;
pub use atom_sockshop as sockshop;
pub use atom_workload as workload;
