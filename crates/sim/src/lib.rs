#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! The discrete-event simulation kernel both simulators run on: the LQN
//! simulator (`atom-lqn`) and the container-cluster testbed
//! (`atom-cluster`).
//!
//! The kernel is deliberately small and allocation-light:
//!
//! * [`engine::Engine`] — the clock, a timer calendar, one due slot per
//!   processor and the tie rule between the two; [`engine::ProcessorTable`]
//!   — the processors, with the payload of each running job, kept in step
//!   with the engine's due slots;
//! * [`wheel::TimerWheel`] — the engine's calendar: a hierarchical timer
//!   wheel with a binary heap's `(time, insertion)` pop order but O(1)
//!   amortised operations, for very large pending-event populations;
//! * [`calendar::EventQueue`] — that binary heap (FIFO on ties), kept as
//!   the wheel's reference;
//! * [`processor::PsProcessor`] — a processor-sharing CPU with per-group
//!   rate caps (containers with CPU shares) and per-job single-core caps,
//!   solved by water-filling and kept in virtual time (O(log jobs) to add
//!   a job or complete one, however many jobs share a group; O(jobs in
//!   the group) only to pull a job out of turn); this is what makes
//!   "CPU share 0.2 = at most 20% of one core" (ATOM §II-A) and "a
//!   single-threaded service cannot use a second core" (ATOM §II-B)
//!   first-class semantics;
//! * [`random`] — a seedable RNG with the per-hop samplers: a service
//!   demand from its mean and coefficient of variation, a call count
//!   from a fractional mean; and [`splitmix64`], the seeded hash for
//!   decisions that must not draw from it;
//! * [`stats`] — time-weighted averages and the nearest-rank quantile.
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
pub mod engine;
pub mod processor;
pub mod random;
pub mod stats;
pub mod wheel;

pub use calendar::EventQueue;
pub use engine::{Due, Engine, ProcessorTable};
pub use processor::{GroupId, JobId, PsProcessor};
pub use random::{splitmix64, SimRng};
pub use stats::{nearest_rank, TimeWeighted};
pub use wheel::TimerWheel;
