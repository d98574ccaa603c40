#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! A discrete-event simulated container cluster: the "testbed" of the
//! ATOM reproduction.
//!
//! The paper evaluates ATOM against a two-node Docker Swarm running the
//! Sock Shop (Table V). This crate replaces that physical testbed with a
//! faithful simulation exposing the same operational surface:
//!
//! * [`spec::AppSpec`] — the deployed application: servers (cores ×
//!   frequency), microservices (thread pools, CPU parallelism, stateful
//!   flags, endpoint demands and call graph), and client-visible features;
//! * [`runtime::Cluster`] — the live system: a closed, possibly bursty,
//!   time-varying user population drives requests through the service
//!   graph; containers execute demands on processor-sharing CPUs under
//!   their share caps; replicas start up with a delay; scaling actions are
//!   applied at run time exactly like `docker service update`. A cluster
//!   is a plain value: a clone is a fork that runs on as the original
//!   would;
//! * [`monitor::WindowReport`] — what an autoscaler sees each monitoring
//!   window: per-feature request counts and TPS, per-service utilisation,
//!   allocations, response times, per-server utilisation;
//! * [`faults::FaultSchedule`] — deterministic fault injection (replica
//!   crashes, server outages, monitor dropouts, actuation failures, slow
//!   starts), validated once by [`runtime::Cluster::new`];
//! * a probe facility recording `(queue length at arrival, response
//!   time)` samples for demand estimation (paper Fig. 4).
//!
//! The cluster deliberately differs from the LQN abstraction the
//! controller reasons over: demands are stochastic (lognormal/exponential),
//! start-up delays and actuation latencies exist, and the monitor reports
//! sampled windows — so "model vs measurement" comparisons (Tables
//! III/IV) are comparisons between genuinely different computations.
//!
//! # Architecture
//!
//! The runtime is layered into private modules behind the
//! [`runtime::Cluster`] facade:
//!
//! * [`atom_sim::Engine`] — the simulation clock, a hierarchical
//!   timer-wheel calendar for timers (same pop order as a binary heap,
//!   O(1) amortised insert) and one pending-completion slot per
//!   processor, shared with `atom-lqn`'s simulator; `event` holds the
//!   cluster's timers and [`atom_sim::ProcessorTable`] its processors;
//! * [`backend`] — the user population, behind a two-variant `Backend`
//!   enum: the exact per-user DES (one think timer per user, the
//!   default) and an aggregate *fluid* pool that batches the whole think
//!   population into per-step MVA steady states for million-user runs. [`backend::BackendMode::Hybrid`] runs fluid
//!   in steady state and drops to per-user around transients (scale
//!   actuations, faults, population spikes);
//! * `fabric` — servers, replicas, scaling actuation, fault injection:
//!   every service keeps a target replica count (the last scale order)
//!   and one `reconcile` decides what to start and what to drain to meet
//!   it, after an order, a crash or an outage alike; a replica starts
//!   only through `spawn_replica` and dies only through `retire`, and one
//!   `FaultState` ([`faults`]) holds the fault episodes in progress;
//! * `request` — request chains through the service call graph. When a
//!   network topology is configured
//!   ([`runtime::ClusterOptions::with_topology`]), cross-server calls
//!   additionally pay a round trip priced by the [`atom_net`] link
//!   fabric (two-tier rack/aggregation, FIFO link queues);
//! * `accum` — window accumulators feeding [`monitor::WindowReport`].
//!
//! # Example
//!
//! ```
//! use atom_cluster::spec::AppSpec;
//! use atom_cluster::runtime::{Cluster, ClusterOptions};
//! use atom_workload::{WorkloadSpec, RequestMix};
//!
//! // A one-service app on a single server.
//! let mut spec = AppSpec::new();
//! let s = spec.add_server("node", 2, 1.0);
//! let svc = spec.add_service("api", s, 8, 1, 1.0);
//! let ep = spec.add_endpoint(svc, "get", 0.01, 1.0);
//! spec.add_feature("get", svc, ep);
//! let workload = WorkloadSpec::constant(RequestMix::uniform(1), 20, 1.0);
//! let mut cluster = Cluster::new(&spec, workload, ClusterOptions::default()).unwrap();
//! let report = cluster.run_window(60.0);
//! assert!(report.total_tps > 0.0);
//! ```

mod accum;
pub mod backend;
pub mod error;
mod event;
mod fabric;
pub mod faults;
pub mod monitor;
mod request;
pub mod runtime;
pub mod spans;
pub mod spec;
pub mod telemetry;

pub use atom_net::{EdgeSpec, EdgeWindowStats, NetworkDelay, TopologySpec};
pub use backend::{BackendKind, BackendMode};
pub use error::ClusterError;
pub use faults::{FaultEvent, FaultKind, FaultSchedule};
pub use monitor::WindowReport;
pub use runtime::{Cluster, ClusterOptions, ScaleAction, TenantLayout};
pub use spans::{SampledSpan, ServiceSpanStats};
pub use spec::{AppSpec, EndpointId, ServerId, ServiceId};
pub use telemetry::{ClusterTelemetry, ScaleLatencyStats};

/// The fault schedule through the crate's public API: how it orders
/// events, and the one validation [`Cluster::new`] runs on it.
#[cfg(test)]
mod tests {
    use super::*;
    use atom_workload::{RequestMix, WorkloadSpec};

    /// Builds a one-service, one-server cluster with `faults`.
    fn build(faults: FaultSchedule) -> Result<Cluster, ClusterError> {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 2, 1.0);
        let svc = spec.add_service("api", node, 8, 1, 1.0);
        let ep = spec.add_endpoint(svc, "get", 0.01, 1.0);
        spec.add_feature("get", svc, ep);
        let workload = WorkloadSpec::constant(RequestMix::uniform(1), 5, 1.0);
        Cluster::new(&spec, workload, ClusterOptions::new().with_faults(faults))
    }

    /// The message `Cluster::new` rejects a one-event schedule with.
    fn rejection(time: f64, kind: FaultKind) -> String {
        match build(FaultSchedule::new().at(time, kind)) {
            Err(ClusterError::InvalidParameter { what }) => what,
            other => panic!("expected an invalid-parameter error, got {other:?}"),
        }
    }

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
    fn rejects_zero_duration() {
        let what = rejection(1.0, FaultKind::MonitorDropout { duration: 0.0 });
        assert_eq!(
            what,
            "fault 0: monitor dropout for 0s: duration must be positive, got 0"
        );
    }

    #[test]
    fn rejects_negative_time() {
        let what = rejection(-1.0, FaultKind::ReplicaCrash { service: 0 });
        assert_eq!(what, "fault 0: time must be finite and >= 0, got -1");
    }

    #[test]
    fn rejects_nan_time() {
        let what = rejection(f64::NAN, FaultKind::ReplicaCrash { service: 0 });
        assert_eq!(what, "fault 0: time must be finite and >= 0, got NaN");
    }

    #[test]
    fn rejects_sub_unity_slow_start() {
        let what = rejection(
            1.0,
            FaultKind::SlowStart {
                factor: 0.5,
                duration: 10.0,
            },
        );
        assert_eq!(what, "fault 0: slow-start factor must be >= 1, got 0.5");
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
}
