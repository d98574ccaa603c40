//! The open workload-source abstraction.
//!
//! [`LoadProfile`] used to be the *only* way to drive a cluster's
//! population, which made every call site — the per-user DES backend,
//! the fluid backend, the controller's `users_at_end` observation, the
//! bench harness — closed over one enum. [`PopulationSource`] inverts
//! that: any provider of "concurrent users over time" (synthetic
//! profiles, replayed production traces, future learned sources)
//! implements the trait, and [`WorkloadSpec`](crate::WorkloadSpec)
//! carries a boxed [`PopulationHandle`] so the implementations are
//! interchangeable at every call site.
//!
//! Serialisation is kind-tagged: a handle serialises as
//! `{ "kind": <name>, "spec": <params> }` and deserialisation matches the
//! two kinds that exist, `"profile"` and `"trace"`; any other tag is a
//! typed error. For backwards compatibility a bare (untagged)
//! [`LoadProfile`] value still deserialises.

use std::fmt;
use std::ops::Deref;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::profile::LoadProfile;
use crate::trace::TraceSource;

/// Concurrent user population as a function of time, from any provider.
///
/// The four required query methods mirror the historical `LoadProfile`
/// API one-for-one; the spike-hint pair is the extension traces need so
/// the hybrid backend can distinguish routine bin-to-bin drift from
/// genuine bursts (see [`PopulationSource::spike_points`]).
pub trait PopulationSource: fmt::Debug + Send + Sync {
    /// Population at time `t` (seconds).
    fn population_at(&self, t: f64) -> usize;

    /// Largest population the source ever reaches.
    fn peak(&self) -> usize;

    /// The `(time, population)` instants in `(t0, t1]` at which the
    /// integer population changes, for scheduling user arrivals and
    /// departures in the simulator.
    fn change_points(&self, t0: f64, t1: f64) -> Vec<(f64, usize)>;

    /// Time-averaged population over `[t0, t1]` — the aggregate-arrival
    /// view used by the fluid population backend.
    fn average_population(&self, t0: f64, t1: f64) -> f64;

    /// Times in `(t0, t1]` at which the population jumps by at least
    /// `threshold` (relative to the pre-jump level) — *a-priori* burst
    /// onsets a hybrid backend should treat as transients. Sources that
    /// cannot classify their own change points (synthetic profiles, by
    /// default) return none and leave spike detection to the backend's
    /// sampled step-boundary check.
    fn spike_points(&self, _t0: f64, _t1: f64, _threshold: f64) -> Vec<f64> {
        Vec::new()
    }

    /// Whether [`PopulationSource::spike_points`] is authoritative. When
    /// `true`, the hybrid backend trusts the source's burst
    /// classification and skips its own sampled jump check (a busy trace
    /// steps every bin; treating each step as a spike would pin the
    /// backend in per-user mode).
    fn provides_spike_hints(&self) -> bool {
        false
    }

    /// The request mix in force at time `t`, for sources that carry
    /// per-bin mix shifts (trace replays). `None` — the default, and
    /// the answer of every synthetic profile — means "use the
    /// workload's static aggregate mix". Runtimes only consult this
    /// when the workload opts in via `WorkloadSpec::dynamic_mix`.
    fn mix_at(&self, _t: f64) -> Option<Vec<f64>> {
        None
    }

    /// Wire tag identifying the implementation (`"profile"`, `"trace"`).
    fn kind(&self) -> &'static str;

    /// Serialised parameters; together with [`PopulationSource::kind`]
    /// this is the wire form [`PopulationHandle`]'s `Deserialize` revives.
    fn params(&self) -> Content;

    /// Clones the source behind the object (object-safe `Clone`).
    fn clone_source(&self) -> Box<dyn PopulationSource>;
}

impl PopulationSource for LoadProfile {
    fn population_at(&self, t: f64) -> usize {
        LoadProfile::population_at(self, t)
    }

    fn peak(&self) -> usize {
        LoadProfile::peak(self)
    }

    fn change_points(&self, t0: f64, t1: f64) -> Vec<(f64, usize)> {
        LoadProfile::change_points(self, t0, t1)
    }

    fn average_population(&self, t0: f64, t1: f64) -> f64 {
        LoadProfile::average_population(self, t0, t1)
    }

    fn kind(&self) -> &'static str {
        "profile"
    }

    fn params(&self) -> Content {
        Serialize::to_content(self)
    }

    fn clone_source(&self) -> Box<dyn PopulationSource> {
        Box::new(self.clone())
    }
}

/// An owned, clonable handle to a boxed [`PopulationSource`].
///
/// This is what [`WorkloadSpec`](crate::WorkloadSpec) actually stores:
/// it restores `Clone`/`Debug`/`PartialEq`/serde on top of the trait
/// object. Equality compares the (kind, params) wire form, so two
/// handles are equal exactly when they serialise identically.
pub struct PopulationHandle(Box<dyn PopulationSource>);

impl PopulationHandle {
    /// Wraps a concrete source.
    pub fn new(source: impl PopulationSource + 'static) -> Self {
        PopulationHandle(Box::new(source))
    }
}

impl Deref for PopulationHandle {
    type Target = dyn PopulationSource;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl Clone for PopulationHandle {
    fn clone(&self) -> Self {
        PopulationHandle(self.0.clone_source())
    }
}

impl fmt::Debug for PopulationHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl PartialEq for PopulationHandle {
    fn eq(&self, other: &Self) -> bool {
        self.0.kind() == other.0.kind() && self.0.params() == other.0.params()
    }
}

impl From<LoadProfile> for PopulationHandle {
    fn from(profile: LoadProfile) -> Self {
        PopulationHandle::new(profile)
    }
}

impl From<TraceSource> for PopulationHandle {
    fn from(trace: TraceSource) -> Self {
        PopulationHandle::new(trace)
    }
}

impl Serialize for PopulationHandle {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("kind".to_string(), Content::Str(self.0.kind().to_string())),
            ("spec".to_string(), self.0.params()),
        ])
    }
}

impl Deserialize for PopulationHandle {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        if let Some(Content::Str(kind)) = content.get_field("kind") {
            let spec = content.get_field("spec").unwrap_or(&Content::Null);
            return match kind.as_str() {
                "profile" => LoadProfile::from_content(spec).map(PopulationHandle::from),
                "trace" => TraceSource::from_content(spec).map(PopulationHandle::from),
                _ => Err(DeError::custom(format!(
                    "unknown population source kind `{kind}` (known: profile, trace)"
                ))),
            };
        }
        // Legacy wire form: a bare externally-tagged `LoadProfile`.
        LoadProfile::from_content(content).map(PopulationHandle::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_handle_round_trips_tagged() {
        let h = PopulationHandle::from(LoadProfile::Ramp {
            from: 500,
            to: 3000,
            start: 0.0,
            duration: 1500.0,
        });
        let content = h.to_content();
        assert_eq!(
            content.get_field("kind"),
            Some(&Content::Str("profile".to_string()))
        );
        let back = PopulationHandle::from_content(&content).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn legacy_bare_profile_still_deserialises() {
        let legacy = Serialize::to_content(&LoadProfile::Constant(42));
        let h = PopulationHandle::from_content(&legacy).unwrap();
        assert_eq!(h.population_at(0.0), 42);
        assert_eq!(h.kind(), "profile");
    }

    #[test]
    fn handle_delegates_queries() {
        let h = PopulationHandle::from(LoadProfile::Spike {
            baseline: 100,
            spike: 900,
            start: 50.0,
            duration: 25.0,
        });
        assert_eq!(h.population_at(60.0), 900);
        assert_eq!(h.peak(), 900);
        assert_eq!(h.change_points(0.0, 100.0).len(), 2);
        assert!(!h.provides_spike_hints());
        assert!(h.spike_points(0.0, 100.0, 0.5).is_empty());
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let content = Content::Map(vec![
            ("kind".to_string(), Content::Str("learned".to_string())),
            ("spec".to_string(), Content::Null),
        ]);
        let err = PopulationHandle::from_content(&content).unwrap_err();
        assert!(err.to_string().contains("learned"));
    }
}
