//! Population backends: how the closed user population is simulated.
//!
//! The cluster separates *what the users do* (think, issue a request,
//! repeat) from *how that behaviour is executed*. A population backend
//! owns the user population and decides, per user-plane event, whether
//! work reaches the discrete-event fabric:
//!
//! * `PerUserDes` — one think timer and one request chain per user.
//!   Exact, bitwise-reproducible, and the default; cost grows linearly
//!   with the population.
//! * `FluidPool` — the population is an aggregate: every
//!   `FluidPool::STEP`-second step, a closed MVA solve of the live
//!   service topology yields the steady-state throughput, response time,
//!   and per-service busy rates, which are synthesised into the same
//!   monitor counters the DES would have produced. Cost is independent
//!   of the population, so million-user runs are cheap.
//!
//! [`BackendMode::Hybrid`] switches between them at run time: fluid in
//! steady state, per-user around transients (scale actuations, faults,
//! population spikes), and permanently per-user under MMPP burstiness,
//! which has no steady state to speak of.

pub(crate) mod fluid;
pub(crate) mod per_user;

use atom_sim::{Engine, SimRng};
use atom_workload::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::event::Event;

pub(crate) use fluid::FluidPool;
pub(crate) use per_user::PerUserDes;

/// How the user population is simulated (a construction-time choice;
/// see [`crate::ClusterOptions::with_backend`]).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendMode {
    /// Per-user discrete events only (exact; the default).
    #[default]
    PerUser,
    /// Fluid aggregation only (fast; steady-state approximation).
    Fluid,
    /// Fluid in steady state, per-user DES around transients.
    Hybrid,
}

/// Which backend is (or was) live — reported per window and counted in
/// telemetry. Unlike [`BackendMode`] this is a state, not a policy:
/// a `Hybrid` cluster reports `PerUser` or `Fluid` window by window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The per-user DES backend.
    #[default]
    PerUser,
    /// The fluid aggregate backend.
    Fluid,
}

impl BackendKind {
    /// Stable lower-case name (used in journals and metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::PerUser => "per-user",
            BackendKind::Fluid => "fluid",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The engine-side context a backend acts through: the clock/calendar,
/// the RNG, and the workload description. Borrowed fresh per call so
/// backends never hold pieces of the cluster across events.
pub(crate) struct PopCtx<'a> {
    pub engine: &'a mut Engine<Event>,
    pub rng: &'a mut SimRng,
    pub workload: &'a WorkloadSpec,
}

/// The population plane: enum dispatch over the two backends (no
/// vtable; the hot path is a single match). The fabric (request
/// execution, scaling, faults) is backend-agnostic; only these entry
/// points differ. The fluid pool is boxed: it is several times the size
/// of the per-user backend, which every tenant's hot path reads.
#[derive(Clone)]
pub(crate) enum Backend {
    PerUser(PerUserDes),
    Fluid(Box<FluidPool>),
}

impl Backend {
    /// Which backend this is.
    pub(crate) fn kind(&self) -> BackendKind {
        match self {
            Backend::PerUser(_) => BackendKind::PerUser,
            Backend::Fluid(_) => BackendKind::Fluid,
        }
    }

    /// Moves the population to `population` (spawning or retiring).
    pub(crate) fn set_population(&mut self, ctx: &mut PopCtx<'_>, population: usize) {
        match self {
            Backend::PerUser(b) => b.set_population(ctx, population),
            Backend::Fluid(b) => b.set_population(ctx, population),
        }
    }

    /// Whether a `UserReady` event for `user` is still live (stale
    /// events for retired users — or for a switched-away per-user
    /// population — are ignored).
    pub(crate) fn user_live(&self, user: u32) -> bool {
        match self {
            Backend::PerUser(b) => b.user_live(user),
            Backend::Fluid(b) => b.user_live(user),
        }
    }

    /// A root request of `user` completed; schedule the next think.
    pub(crate) fn request_complete(&mut self, ctx: &mut PopCtx<'_>, user: u32) {
        match self {
            Backend::PerUser(b) => b.request_complete(ctx, user),
            Backend::Fluid(b) => b.request_complete(ctx, user),
        }
    }

    /// Population at this instant (the report's `users_at_end`).
    pub(crate) fn users_at_end(&self) -> usize {
        match self {
            Backend::PerUser(b) => b.users_at_end(),
            Backend::Fluid(b) => b.users_at_end(),
        }
    }

    /// Drains the window's time-averaged population.
    pub(crate) fn window_users(&mut self, end: f64) -> f64 {
        match self {
            Backend::PerUser(b) => b.window_users(end),
            Backend::Fluid(b) => b.window_users(end),
        }
    }
}
