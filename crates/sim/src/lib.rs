#![warn(missing_docs)]

//! Discrete-event simulation engine shared by the LQN simulator
//! (`atom-lqn`) and the container-cluster testbed (`atom-cluster`).
//!
//! The engine is deliberately small and allocation-light:
//!
//! * [`calendar::EventQueue`] — a stable (FIFO-on-ties) event calendar;
//! * [`wheel::TimerWheel`] — a hierarchical timer-wheel calendar with the
//!   same (time, insertion) pop order but O(1) amortised operations, for
//!   simulations carrying very large pending-event populations;
//! * [`processor::PsProcessor`] — a processor-sharing CPU with per-group
//!   rate caps (containers with CPU shares) and per-job single-core caps,
//!   solved by water-filling and kept in virtual time (O(log jobs) per
//!   operation, however many jobs share a group); this is what makes
//!   "CPU share 0.2 = at most 20% of one core" (ATOM §II-A) and "a
//!   single-threaded service cannot use a second core" (ATOM §II-B)
//!   first-class semantics;
//! * [`random`] — seedable RNG plus the service-time distributions used by
//!   the workloads (exponential, lognormal, constant, uniform);
//! * [`stats`] — Welford running statistics and time-weighted averages.
//!
//! # Example
//!
//! ```
//! use atom_sim::processor::PsProcessor;
//!
//! let mut cpu = PsProcessor::new(1.0, 1.0); // 1 core, speed 1.0
//! let g = cpu.add_group(0.5);               // container capped at half a core
//! let j = cpu.add_job(0.0, g, 1.0);         // 1 CPU-second of work
//! let (t, done) = cpu.next_completion(0.0).unwrap();
//! assert_eq!(done, j);
//! assert!((t - 2.0).abs() < 1e-9);          // capped at rate 0.5
//! ```

pub mod calendar;
pub mod processor;
pub mod random;
pub mod stats;
pub mod wheel;

pub use calendar::EventQueue;
pub use processor::{GroupId, JobId, PsProcessor};
pub use random::{Distribution, SimRng};
pub use stats::{RunningStats, TimeWeighted};
pub use wheel::TimerWheel;
