#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! Closed workloads for the ATOM experiments: request mixes, load
//! profiles, and burstiness injection.
//!
//! The paper specifies workloads by a *request mix* (fractions of Home /
//! Catalogue / Carts requests — Tables I, II, VI), a *concurrent user
//! count* `N` that ramps up during the first 25 minutes of each
//! experiment, an exponential *think time*, and optionally *burstiness*
//! characterised by the index of dispersion `I` (§V-B, Fig. 13, after Mi
//! et al. \[40\]).
//!
//! * [`RequestMix`] — a normalised categorical distribution over features;
//! * [`Population`] — users over time: a synthetic [`LoadProfile`] or a
//!   replayed production trace ([`TraceSource`], read streaming from
//!   Alibaba / Google cluster-trace CSVs by [`read_trace`]);
//! * [`burstiness::Mmpp2`] — a two-state Markov-modulated process whose
//!   switching rates are calibrated in closed form to a target index of
//!   dispersion; the cluster simulator modulates user think times with it;
//! * [`WorkloadSpec`] — the bundle consumed by `atom-cluster`.

pub mod burstiness;
mod mix;
mod profile;
mod source;
mod trace;

pub use burstiness::{BurstinessSpec, Mmpp2};
pub use mix::{MixError, RequestMix};
pub use profile::LoadProfile;
pub use source::Population;
pub use trace::{
    read_trace, read_trace_file, TraceError, TraceFormat, TraceOptions, TraceReplay, TraceSource,
    TraceStats,
};

use serde::{Deserialize, Serialize};

/// A complete workload description for one experiment run.
///
/// Built with the workspace `with_*` convention; the struct is
/// `#[non_exhaustive]`, so construct via [`WorkloadSpec::new`] /
/// [`WorkloadSpec::constant`] and refine with the builders.
///
/// # Examples
///
/// ```
/// use atom_workload::{WorkloadSpec, RequestMix, LoadProfile};
///
/// // The paper's browsing mix, ramping 500 → 3000 users over 25 min.
/// let w = WorkloadSpec::new(
///     RequestMix::new(vec![0.63, 0.32, 0.05]).unwrap(),
///     7.0,
///     LoadProfile::Ramp {
///         from: 500,
///         to: 3000,
///         start: 0.0,
///         duration: 25.0 * 60.0,
///     },
/// );
/// assert_eq!(w.source.population_at(25.0 * 60.0), 3000);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Fractions of requests per feature.
    pub mix: RequestMix,
    /// Mean think time between requests (seconds).
    pub think_time: f64,
    /// Concurrent users over time — synthetic profile or replayed trace.
    pub source: Population,
    /// Optional burstiness injection.
    pub burstiness: Option<BurstinessSpec>,
}

impl WorkloadSpec {
    /// A workload over a profile or a trace, without burstiness.
    pub fn new(mix: RequestMix, think_time: f64, source: impl Into<Population>) -> Self {
        WorkloadSpec {
            mix,
            think_time,
            source: source.into(),
            burstiness: None,
        }
    }

    /// A constant-population workload with no burstiness.
    pub fn constant(mix: RequestMix, users: usize, think_time: f64) -> Self {
        WorkloadSpec::new(mix, think_time, LoadProfile::Constant(users))
    }

    /// Replaces the population source.
    #[must_use]
    pub fn with_source(mut self, source: impl Into<Population>) -> Self {
        self.source = source.into();
        self
    }

    /// Enables burstiness injection.
    #[must_use]
    pub fn with_burstiness(mut self, burstiness: BurstinessSpec) -> Self {
        self.burstiness = Some(burstiness);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip() {
        let w = WorkloadSpec::new(
            RequestMix::new(vec![0.5, 0.5]).unwrap(),
            5.0,
            LoadProfile::Steps(vec![(0.0, 10), (60.0, 50)]),
        )
        .with_burstiness(BurstinessSpec {
            index_of_dispersion: 400.0,
            burst_fraction: 0.1,
            burst_multiplier: 8.0,
        });
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn serde_roundtrip_trace_source() {
        let w = WorkloadSpec::new(
            RequestMix::new(vec![0.6, 0.4]).unwrap(),
            7.0,
            TraceSource::from_steps(
                "sample",
                TraceFormat::Alibaba,
                vec![(0.0, 500), (300.0, 1800)],
            ),
        );
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
        assert!(matches!(back.source, Population::Trace(_)));
        assert_eq!(back.source.population_at(400.0), 1800);
    }
}
