#![warn(missing_docs)]

//! Deterministic fault schedules for the cluster testbed.
//!
//! A production autoscaler must keep converging when replicas crash,
//! nodes go dark, and the monitoring plane drops windows. This crate
//! models those operational realities as *data*: a [`FaultSchedule`] is
//! an immutable, time-sorted list of [`FaultEvent`]s that
//! `atom_cluster::runtime::Cluster` injects into its discrete-event
//! calendar. Because the schedule is plain data (not callbacks), two
//! clusters built from the same spec, workload, options, and schedule
//! replay *bit-for-bit* the same execution — fault experiments stay as
//! reproducible as fault-free ones.
//!
//! Schedules are written by hand, for curated chaos scenarios:
//!
//! ```
//! use atom_faults::{FaultKind, FaultSchedule};
//!
//! let schedule = FaultSchedule::new()
//!     .at(650.0, FaultKind::ReplicaCrash { service: 1 })
//!     .at(900.0, FaultKind::MonitorDropout { duration: 300.0 })
//!     .at(1500.0, FaultKind::ServerOutage { server: 1, duration: 90.0 });
//! assert_eq!(schedule.len(), 3);
//! ```
//!
//! The semantics of each kind — what the cluster does when the event
//! fires, and what the controller is allowed to observe — are defined
//! by the consumer (`atom-cluster`); this crate only guarantees a
//! well-formed, deterministic timeline.

use serde::{Deserialize, Serialize};

/// One kind of injected failure.
///
/// Durations are in simulated seconds; `service` / `server` are indices
/// into the consumer's application spec. The enum is non-exhaustive so
/// new fault kinds can be added without breaking downstream matches.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// One replica of `service` dies abruptly. In-flight and queued
    /// requests on the victim are re-dispatched; the orchestrator
    /// restarts a replacement after the service's start-up delay.
    ReplicaCrash {
        /// Index of the service losing a replica.
        service: usize,
    },
    /// A whole server goes dark for `duration` seconds: every replica
    /// hosted on it dies, and replacements only begin their start-up
    /// once the server returns.
    ServerOutage {
        /// Index of the server going down.
        server: usize,
        /// Seconds until the server is back.
        duration: f64,
    },
    /// The monitoring plane stops scraping for `duration` seconds:
    /// request/throughput counters observed during the dark interval are
    /// lost, and affected windows are flagged as partial.
    MonitorDropout {
        /// Seconds of lost telemetry.
        duration: f64,
    },
    /// The actuation path is down for `duration` seconds: scaling
    /// batches dispatched while it lasts are dropped (and reported), as
    /// when an orchestration API rejects updates.
    ActuationFailure {
        /// Seconds during which scaling actions are dropped.
        duration: f64,
    },
    /// Container start-up takes `factor` times longer than nominal for
    /// `duration` seconds (image-pull storms, cold caches).
    SlowStart {
        /// Multiplier (≥ 1) on start-up delays.
        factor: f64,
        /// Seconds the slowdown lasts.
        duration: f64,
    },
}

impl FaultKind {
    /// Validates the kind's own parameters (times ≥ 0, factors ≥ 1).
    fn check_params(&self) -> Result<(), String> {
        let dur = |d: f64, what: &str| {
            if d.is_finite() && d > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} duration must be positive, got {d}"))
            }
        };
        match *self {
            FaultKind::ReplicaCrash { .. } => Ok(()),
            FaultKind::ServerOutage { duration, .. } => dur(duration, "server outage"),
            FaultKind::MonitorDropout { duration } => dur(duration, "monitor dropout"),
            FaultKind::ActuationFailure { duration } => dur(duration, "actuation failure"),
            FaultKind::SlowStart { factor, duration } => {
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(format!("slow-start factor must be >= 1, got {factor}"));
                }
                dur(duration, "slow start")
            }
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::ReplicaCrash { service } => write!(f, "replica crash (service {service})"),
            FaultKind::ServerOutage { server, duration } => {
                write!(f, "server {server} outage for {duration:.0}s")
            }
            FaultKind::MonitorDropout { duration } => {
                write!(f, "monitor dropout for {duration:.0}s")
            }
            FaultKind::ActuationFailure { duration } => {
                write!(f, "actuation failure for {duration:.0}s")
            }
            FaultKind::SlowStart { factor, duration } => {
                write!(f, "{factor:.1}x slow start for {duration:.0}s")
            }
        }
    }
}

/// One scheduled fault: a kind firing at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Absolute simulation time (seconds) at which the fault fires.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted list of [`FaultEvent`]s.
///
/// Construction keeps the list sorted by time (stable: events pushed
/// earlier fire first on ties), so consumers can inject it into an
/// event calendar verbatim. The default schedule is empty — a cluster
/// without faults behaves exactly as before this subsystem existed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds a fault at `time`, keeping the schedule sorted. Builder
    /// form of [`FaultSchedule::push`].
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative/non-finite or the kind's parameters
    /// are invalid (e.g. a non-positive duration).
    #[must_use]
    pub fn at(mut self, time: f64, kind: FaultKind) -> Self {
        self.push(time, kind);
        self
    }

    /// Adds a fault at `time`, keeping the schedule sorted (stable on
    /// ties).
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative/non-finite or the kind's parameters
    /// are invalid (e.g. a non-positive duration).
    pub fn push(&mut self, time: f64, kind: FaultKind) {
        assert!(
            time.is_finite() && time >= 0.0,
            "fault time must be >= 0, got {time}"
        );
        if let Err(why) = kind.check_params() {
            panic!("invalid fault: {why}");
        }
        // Insert before the first strictly-later event's successor run:
        // partition_point keeps pushes at equal times in push order.
        let idx = self.events.partition_point(|e| e.time <= time);
        self.events.insert(idx, FaultEvent { time, kind });
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event against an application shape: `services` and
    /// `servers` are the consumer's index bounds.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first out-of-range
    /// reference.
    pub fn validate(&self, services: usize, servers: usize) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            match e.kind {
                FaultKind::ReplicaCrash { service } if service >= services => {
                    return Err(format!(
                        "fault {i}: replica crash references service {service}, app has {services}"
                    ));
                }
                FaultKind::ServerOutage { server, .. } if server >= servers => {
                    return Err(format!(
                        "fault {i}: server outage references server {server}, app has {servers}"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_stays_sorted() {
        let s = FaultSchedule::new()
            .at(100.0, FaultKind::ReplicaCrash { service: 0 })
            .at(10.0, FaultKind::MonitorDropout { duration: 5.0 })
            .at(50.0, FaultKind::ReplicaCrash { service: 1 });
        let times: Vec<f64> = s.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10.0, 50.0, 100.0]);
    }

    #[test]
    fn ties_keep_push_order() {
        let s = FaultSchedule::new()
            .at(10.0, FaultKind::ReplicaCrash { service: 0 })
            .at(10.0, FaultKind::ReplicaCrash { service: 1 });
        assert_eq!(s.events()[0].kind, FaultKind::ReplicaCrash { service: 0 });
        assert_eq!(s.events()[1].kind, FaultKind::ReplicaCrash { service: 1 });
    }

    #[test]
    fn validate_flags_out_of_range_indices() {
        let s = FaultSchedule::new().at(1.0, FaultKind::ReplicaCrash { service: 3 });
        assert!(s.validate(3, 1).is_err());
        assert!(s.validate(4, 1).is_ok());
        let s = FaultSchedule::new().at(
            1.0,
            FaultKind::ServerOutage {
                server: 2,
                duration: 10.0,
            },
        );
        assert!(s.validate(1, 2).is_err());
        assert!(s.validate(1, 3).is_ok());
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn rejects_zero_duration() {
        let _ = FaultSchedule::new().at(1.0, FaultKind::MonitorDropout { duration: 0.0 });
    }

    #[test]
    #[should_panic(expected = "fault time must be >= 0")]
    fn rejects_negative_time() {
        let _ = FaultSchedule::new().at(-1.0, FaultKind::ReplicaCrash { service: 0 });
    }

    #[test]
    #[should_panic(expected = "slow-start factor must be >= 1")]
    fn rejects_sub_unity_slow_start() {
        let _ = FaultSchedule::new().at(
            1.0,
            FaultKind::SlowStart {
                factor: 0.5,
                duration: 10.0,
            },
        );
    }

    #[test]
    fn display_is_human_readable() {
        for k in [
            FaultKind::ReplicaCrash { service: 1 },
            FaultKind::ServerOutage {
                server: 0,
                duration: 60.0,
            },
            FaultKind::MonitorDropout { duration: 300.0 },
            FaultKind::ActuationFailure { duration: 120.0 },
            FaultKind::SlowStart {
                factor: 3.0,
                duration: 600.0,
            },
        ] {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn serde_round_trip() {
        let s = FaultSchedule::new()
            .at(5.0, FaultKind::ReplicaCrash { service: 2 })
            .at(
                9.0,
                FaultKind::SlowStart {
                    factor: 2.0,
                    duration: 30.0,
                },
            );
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
