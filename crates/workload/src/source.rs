//! The population a workload runs: a synthetic profile or a replayed
//! trace.
//!
//! The paper's workload is a closed population whose size `N` changes
//! over time (§V-B); this crate has exactly two ways to say how it
//! changes, so [`Population`] is a closed enum over them and every
//! runtime query is one `match`.
//!
//! Serialisation is kind-tagged: a population serialises as
//! `{ "kind": "profile" | "trace", "spec": <params> }`; any other tag is
//! a typed error. For backwards compatibility a bare (untagged)
//! [`LoadProfile`] value still deserialises.

use serde::{Content, DeError, Deserialize, Serialize};

use crate::profile::LoadProfile;
use crate::trace::TraceSource;

/// Concurrent user population as a function of time.
#[derive(Debug, Clone, PartialEq)]
pub enum Population {
    /// A synthetic profile (ramp, steps, sinusoid, spike, ...).
    Profile(LoadProfile),
    /// A replayed production trace.
    Trace(TraceSource),
}

impl Population {
    /// Population at time `t` (seconds).
    pub fn population_at(&self, t: f64) -> usize {
        match self {
            Population::Profile(p) => p.population_at(t),
            Population::Trace(s) => s.population_at(t),
        }
    }

    /// The `(time, population)` instants in `(t0, t1]` at which the
    /// integer population changes, for scheduling user arrivals and
    /// departures in the simulator.
    pub fn change_points(&self, t0: f64, t1: f64) -> Vec<(f64, usize)> {
        match self {
            Population::Profile(p) => p.change_points(t0, t1),
            Population::Trace(s) => s.change_points(t0, t1),
        }
    }

    /// Time-averaged population over `[t0, t1]` — the aggregate-arrival
    /// view used by the fluid population backend.
    pub fn average_population(&self, t0: f64, t1: f64) -> f64 {
        match self {
            Population::Profile(p) => p.average_population(t0, t1),
            Population::Trace(s) => s.average_population(t0, t1),
        }
    }

    /// Times in `(t0, t1]` at which the population jumps by at least
    /// `threshold` (relative to the pre-jump level) — *a-priori* burst
    /// onsets a hybrid backend should treat as transients.
    ///
    /// `None` means the population cannot classify its own jumps (a
    /// synthetic profile): the backend then runs its own sampled
    /// step-boundary check. A trace answers `Some`, because a busy trace
    /// steps every bin and treating each step as a spike would pin the
    /// backend in per-user mode.
    pub fn spike_points(&self, t0: f64, t1: f64, threshold: f64) -> Option<Vec<f64>> {
        match self {
            Population::Profile(_) => None,
            Population::Trace(s) => Some(s.spike_points(t0, t1, threshold)),
        }
    }
}

impl From<LoadProfile> for Population {
    fn from(profile: LoadProfile) -> Self {
        Population::Profile(profile)
    }
}

impl From<TraceSource> for Population {
    fn from(trace: TraceSource) -> Self {
        Population::Trace(trace)
    }
}

impl Serialize for Population {
    fn to_content(&self) -> Content {
        let (kind, spec) = match self {
            Population::Profile(p) => ("profile", p.to_content()),
            Population::Trace(s) => ("trace", s.to_content()),
        };
        Content::Map(vec![
            ("kind".to_string(), Content::Str(kind.to_string())),
            ("spec".to_string(), spec),
        ])
    }
}

impl Deserialize for Population {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        if let Some(Content::Str(kind)) = content.get_field("kind") {
            let spec = content.get_field("spec").unwrap_or(&Content::Null);
            return match kind.as_str() {
                "profile" => LoadProfile::from_content(spec).map(Population::Profile),
                "trace" => TraceSource::from_content(spec).map(Population::Trace),
                _ => Err(DeError::custom(format!(
                    "unknown population source kind `{kind}` (known: profile, trace)"
                ))),
            };
        }
        // Legacy wire form: a bare externally-tagged `LoadProfile`.
        LoadProfile::from_content(content).map(Population::Profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The wire form (tagged kinds, the bare legacy profile, the
    // unknown-kind error) is pinned as text in `tests/wire_form.rs`.

    #[test]
    fn profile_delegates_queries() {
        let p = Population::from(LoadProfile::Spike {
            baseline: 100,
            spike: 900,
            start: 50.0,
            duration: 25.0,
        });
        assert_eq!(p.population_at(60.0), 900);
        assert_eq!(p.change_points(0.0, 100.0).len(), 2);
        assert_eq!(p.spike_points(0.0, 100.0, 0.5), None);
    }
}
