//! Deterministic fault schedules, and the fault episodes a cluster is in.
//!
//! A production autoscaler must keep converging when replicas crash,
//! nodes go dark, and the monitoring plane drops windows. This module
//! models those operational realities as *data*: a [`FaultSchedule`] is
//! a time-sorted list of [`FaultEvent`]s that [`Cluster`] injects into
//! its discrete-event calendar. Because the schedule is plain data (not
//! callbacks), two clusters built from the same spec, workload, options,
//! and schedule replay *bit-for-bit* the same execution — fault
//! experiments stay as reproducible as fault-free ones.
//!
//! Schedules are written by hand, for curated chaos scenarios:
//!
//! ```
//! use atom_cluster::faults::{FaultKind, FaultSchedule};
//!
//! let schedule = FaultSchedule::new()
//!     .at(650.0, FaultKind::ReplicaCrash { service: 1 })
//!     .at(900.0, FaultKind::MonitorDropout { duration: 300.0 })
//!     .at(1500.0, FaultKind::ServerOutage { server: 1, duration: 90.0 });
//! assert_eq!(schedule.events().len(), 3);
//! ```
//!
//! A schedule is checked once, when [`Cluster::new`] validates it
//! against the application; an invalid one is a
//! [`ClusterError::InvalidParameter`](crate::ClusterError).
//!
//! [`Cluster`]: crate::runtime::Cluster
//! [`Cluster::new`]: crate::runtime::Cluster::new

/// One kind of injected failure.
///
/// Durations are in simulated seconds; `service` / `server` are indices
/// into the cluster's application spec.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulation time (seconds) at which the fault fires.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted list of [`FaultEvent`]s.
///
/// Construction keeps the list sorted by time (stable: events pushed
/// earlier fire first on ties), so the cluster can inject it into its
/// event calendar verbatim. The default schedule is empty — a cluster
/// without faults behaves exactly as one built before faults existed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds a fault at `time`, keeping the schedule sorted (stable on
    /// ties).
    #[must_use]
    pub fn at(mut self, time: f64, kind: FaultKind) -> Self {
        self.push(time, kind);
        self
    }

    /// Adds a fault at `time`, keeping the schedule sorted (stable on
    /// ties). Nothing is checked here: [`FaultSchedule::validate`] does
    /// that once, when a cluster is built with the schedule.
    pub(crate) fn push(&mut self, time: f64, kind: FaultKind) {
        // partition_point keeps pushes at equal times in push order.
        let idx = self.events.partition_point(|e| e.time <= time);
        self.events.insert(idx, FaultEvent { time, kind });
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Checks every event against an application with `services`
    /// services and `servers` servers: times are finite and ≥ 0,
    /// durations finite and positive, slow-start factors finite and
    /// ≥ 1, and every index in range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid event.
    pub(crate) fn validate(&self, services: usize, servers: usize) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            let fail = |why: String| Err(format!("fault {i}: {why}"));
            if !(e.time.is_finite() && e.time >= 0.0) {
                return fail(format!("time must be finite and >= 0, got {}", e.time));
            }
            let duration = match e.kind {
                FaultKind::ReplicaCrash { service } if service >= services => {
                    return fail(format!(
                        "replica crash references service {service}, app has {services}"
                    ));
                }
                FaultKind::ReplicaCrash { .. } => continue,
                FaultKind::ServerOutage { server, .. } if server >= servers => {
                    return fail(format!(
                        "server outage references server {server}, app has {servers}"
                    ));
                }
                FaultKind::SlowStart { factor, .. } if !(factor.is_finite() && factor >= 1.0) => {
                    return fail(format!("slow-start factor must be >= 1, got {factor}"));
                }
                FaultKind::ServerOutage { duration, .. }
                | FaultKind::MonitorDropout { duration }
                | FaultKind::ActuationFailure { duration }
                | FaultKind::SlowStart { duration, .. } => duration,
            };
            if !(duration.is_finite() && duration > 0.0) {
                return fail(format!(
                    "{}: duration must be positive, got {duration}",
                    e.kind
                ));
            }
        }
        Ok(())
    }
}

/// The fault episodes a cluster is in: when the monitor is dark, until
/// when actuation is down, and how slow start-up is. Crashes and
/// outages are not episodes — the cluster acts on them at once.
#[derive(Clone)]
pub(crate) struct FaultState {
    /// Disjoint, time-ordered intervals during which the monitoring
    /// plane is dark: overlapping dropouts are stored as their union,
    /// so a dark second is counted once.
    dark: Vec<(f64, f64)>,
    /// Scaling batches dispatched before this time are dropped.
    actuation_down_until: f64,
    /// The slow-start episodes not known to be over, as `(until,
    /// factor)`: start-up delays are multiplied by the largest factor
    /// among those still running.
    slow_starts: Vec<(f64, f64)>,
    /// Scaling batches dropped in the current window.
    pub(crate) failed_actuations: usize,
}

impl FaultState {
    /// No episode active.
    pub(crate) fn new() -> Self {
        FaultState {
            dark: Vec::new(),
            actuation_down_until: 0.0,
            slow_starts: Vec::new(),
            failed_actuations: 0,
        }
    }

    /// Starts the episode `kind` describes at `now`; episodes fire in
    /// time order. Crashes and outages are no episode.
    pub(crate) fn begin(&mut self, now: f64, kind: FaultKind) {
        match kind {
            FaultKind::MonitorDropout { duration } => {
                let end = now + duration;
                match self.dark.last_mut() {
                    Some((_, last_end)) if *last_end >= now => *last_end = last_end.max(end),
                    _ => self.dark.push((now, end)),
                }
            }
            FaultKind::ActuationFailure { duration } => {
                self.actuation_down_until = self.actuation_down_until.max(now + duration);
            }
            FaultKind::SlowStart { factor, duration } => {
                self.slow_starts.retain(|&(until, _)| until > now);
                self.slow_starts.push((now + duration, factor));
            }
            FaultKind::ReplicaCrash { .. } | FaultKind::ServerOutage { .. } => {}
        }
    }

    /// Whether the monitoring plane sees events at `now` (false inside
    /// a monitor dropout).
    pub(crate) fn observing(&self, now: f64) -> bool {
        !self.dark.iter().any(|&(s, e)| now >= s && now < e)
    }

    /// Seconds of `[t0, t1]` the monitoring plane was dark.
    pub(crate) fn dark_seconds(&self, t0: f64, t1: f64) -> f64 {
        self.dark
            .iter()
            .map(|&(s, e)| (e.min(t1) - s.max(t0)).max(0.0))
            .sum()
    }

    /// Forgets the dark intervals over by `t`, so the scans stay
    /// O(active dropouts).
    pub(crate) fn forget_dark_before(&mut self, t: f64) {
        self.dark.retain(|&(_, e)| e > t);
    }

    /// Whether scaling batches dispatched at `now` are dropped.
    pub(crate) fn actuation_down(&self, now: f64) -> bool {
        now < self.actuation_down_until
    }

    /// Current start-up delay multiplier: the largest factor among the
    /// slow-start episodes running at `now`, 1 when none is.
    pub(crate) fn startup_factor(&self, now: f64) -> f64 {
        self.slow_starts
            .iter()
            .filter(|&&(until, _)| now < until)
            .fold(1.0, |factor, &(_, f)| factor.max(f))
    }
}
