//! Multi-tenant placement and admission for the ATOM cluster simulator.
//!
//! One simulated node pool, several application instances ("tenants")
//! contending for it — the defining production constraint a
//! single-tenant autoscaling study never faces. This crate adds the
//! layer that turns the per-application simulator into a shared
//! cluster:
//!
//! * [`NodePool`] — the fixed set of shared nodes;
//! * [`TenantSpec`] — one tenant: its own [`AppSpec`] + [`WorkloadSpec`];
//! * [`place`] — deterministic first-fit-decreasing bin-packing of every
//!   tenant's services onto the pool (seeded tie-breaks), merging the
//!   tenant specs into one deployable spec;
//! * [`AdmissionController`] — scale-ups queue (FIFO per tenant) or are
//!   rejected with a typed [`RejectReason`] once the pool is exhausted;
//! * [`MultiTenantCluster`] / [`run_multi_tenant`] — per-tenant MAPE-K
//!   loops (any [`Autoscaler`] mix) over the shared simulator, each
//!   seeing only its tenant's [`WindowReport`] slice and each filling
//!   its tenant's [`ExperimentResult`] through the window step
//!   `run_experiment` uses, plus the admission verdict of every action.
//!
//! A one-tenant deployment through this layer is *bitwise identical* to
//! driving [`atom_cluster::Cluster`] directly (pinned by
//! `tests/pin_single_tenant.rs`), and a one-tenant [`run_multi_tenant`]
//! on an ample pool returns `run_experiment`'s record up to
//! `WindowReport::tenant`: tenancy is free until there is a second
//! tenant.
//!
//! [`AppSpec`]: atom_cluster::AppSpec
//! [`WorkloadSpec`]: atom_workload::WorkloadSpec
//! [`WindowReport`]: atom_cluster::WindowReport
//! [`Autoscaler`]: atom_core::Autoscaler
//! [`ExperimentResult`]: atom_core::ExperimentResult

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod admission;
mod multi;
mod pool;
mod schedule;
mod tenant;

pub use admission::{
    AdmissionController, AdmissionStats, AdmissionVerdict, PendingScale, RejectReason,
};
pub use multi::{run_multi_tenant, MultiTenantCluster};
pub use pool::NodePool;
pub use schedule::{place, Placement, PlacementError};
pub use tenant::TenantSpec;
