#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! Closed queueing-network solvers used throughout the ATOM reproduction.
//!
//! This crate provides the classic building blocks of analytic performance
//! modelling that the layered solver in `atom-lqn` and the test suites build
//! on:
//!
//! * [`closed::solve_exact`] — exact Mean Value Analysis (MVA) for
//!   single-class closed networks, including multi-server stations via the
//!   marginal-probability recursion;
//! * [`closed::solve_exact_multiclass`] — exact multi-class MVA over the
//!   population lattice (single-server and delay stations);
//! * [`amva::solve_amva`] — Bard–Schweitzer approximate MVA for multi-class
//!   networks with a multi-server correction, the workhorse approximation
//!   referenced by the ATOM paper (Section IV-C, "Bard-Schweitzer single step
//!   mean value analysis");
//! * [`bounds`] — asymptotic (bottleneck) bounds used as invariants in
//!   property tests.
//!
//! # Example
//!
//! Solve a closed machine-repairman style model: 8 users with 5 s think time
//! against a single-server station with demand 0.5 s.
//!
//! ```
//! use atom_mva::{ClosedNetwork, Station, ClassSpec};
//!
//! # fn main() -> Result<(), atom_mva::MvaError> {
//! let net = ClosedNetwork::new(
//!     vec![Station::queueing("web", 1, vec![0.5])],
//!     vec![ClassSpec::new("users", 8, 5.0)],
//! )?;
//! let sol = atom_mva::closed::solve_exact(&net)?;
//! assert!(sol.throughput[0] <= 1.0 / 0.5 + 1e-9); // bottleneck bound
//! # Ok(())
//! # }
//! ```

pub mod amva;
pub mod bounds;
pub mod closed;
mod error;
pub mod network;

pub use amva::{solve_amva, AmvaOptions};
pub use error::MvaError;
pub use network::{ClassSpec, ClosedNetwork, Solution, Station};
