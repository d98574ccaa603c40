#![warn(missing_docs)]

//! Elasticity and performance metrics (paper §V-B).
//!
//! The quantitative comparison of autoscalers uses three metrics:
//!
//! * **total under-provisioned time** `T_u = Σ_i T_u^(i)` — how long each
//!   microservice spent with less CPU capacity allocated than required
//!   ([`CapacityTrace::underprovision_time`]);
//! * **total under-provisioned area** `A_u = Σ_i A_u^(i)` — the extent of
//!   the shortfall: `∫ (required − allocated)⁺ dt`
//!   ([`CapacityTrace::underprovision_area`]);
//! * **TPS** — completed transactions per second over the increased-load
//!   period ([`TpsSeries`]).
//!
//! Required capacity follows Herbst et al. \[36\]: the CPU cores a service
//! needs to serve the *offered* workload of a window (computed by
//! `atom_cluster::spec::AppSpec::required_cores`), independent of what was
//! actually admitted.

use serde::{Deserialize, Serialize};

/// One monitoring window of a service's capacity balance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityWindow {
    /// Window start (seconds).
    pub start: f64,
    /// Window end (seconds).
    pub end: f64,
    /// CPU cores the offered workload required.
    pub required: f64,
    /// CPU cores actually allocated (replicas × share, averaged).
    pub allocated: f64,
}

impl CapacityWindow {
    /// Window duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Capacity shortfall (cores), zero when over-provisioned.
    pub fn shortfall(&self) -> f64 {
        (self.required - self.allocated).max(0.0)
    }
}

/// The capacity balance of one microservice across an experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CapacityTrace {
    windows: Vec<CapacityWindow>,
}

impl CapacityTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        CapacityTrace::default()
    }

    /// Appends a window.
    ///
    /// # Panics
    ///
    /// Panics if the window is malformed (end ≤ start, negative values)
    /// or precedes the previous window.
    pub fn push(&mut self, window: CapacityWindow) {
        assert!(window.end > window.start, "window must have positive span");
        assert!(
            window.required >= 0.0 && window.allocated >= 0.0,
            "capacities must be >= 0"
        );
        if let Some(last) = self.windows.last() {
            assert!(window.start >= last.end - 1e-9, "windows must be ordered");
        }
        self.windows.push(window);
    }

    /// The recorded windows.
    pub fn windows(&self) -> &[CapacityWindow] {
        &self.windows
    }

    /// `T_u^(i)`: seconds spent under-provisioned (beyond `epsilon`
    /// cores of tolerance).
    pub fn underprovision_time_with_tolerance(&self, epsilon: f64) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.shortfall() > epsilon)
            .map(|w| w.duration())
            .sum()
    }

    /// `T_u^(i)` with a small default tolerance (1% of a core).
    pub fn underprovision_time(&self) -> f64 {
        self.underprovision_time_with_tolerance(0.01)
    }

    /// `A_u^(i)`: ∫ shortfall dt (core-seconds).
    pub fn underprovision_area(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.shortfall() * w.duration())
            .sum()
    }
}

/// A time series of per-window TPS values.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TpsSeries {
    points: Vec<(f64, f64, f64)>, // (start, end, tps)
}

impl TpsSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TpsSeries::default()
    }

    /// Appends a window's TPS.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive span or negative TPS.
    pub fn push(&mut self, start: f64, end: f64, tps: f64) {
        assert!(end > start, "window must have positive span");
        assert!(tps >= 0.0, "tps must be >= 0");
        self.points.push((start, end, tps));
    }

    /// `(start, end, tps)` triples.
    pub fn points(&self) -> &[(f64, f64, f64)] {
        &self.points
    }

    /// Time-weighted mean TPS over windows intersecting `[from, to]`.
    pub fn mean_tps(&self, from: f64, to: f64) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for &(s, e, tps) in &self.points {
            let lo = s.max(from);
            let hi = e.min(to);
            if hi > lo {
                weighted += tps * (hi - lo);
                total += hi - lo;
            }
        }
        if total > 0.0 {
            weighted / total
        } else {
            0.0
        }
    }

    /// Total completed transactions over `[from, to]` (the cumulative TPS
    /// comparison of Fig. 13b).
    pub fn cumulative(&self, from: f64, to: f64) -> f64 {
        self.points
            .iter()
            .map(|&(s, e, tps)| {
                let lo = s.max(from);
                let hi = e.min(to);
                if hi > lo {
                    tps * (hi - lo)
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Largest window TPS.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, _, t)| t).fold(0.0, f64::max)
    }
}

/// A time series of per-window service availability — the fraction of
/// each window the service was able to serve (e.g. had a ready replica).
///
/// Fault-injection experiments (replica crashes, server outages) judge
/// an autoscaler not just on capacity balance but on how fast it
/// restores redundancy: mean availability, integrated downtime, and the
/// longest stretch spent below an availability floor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityTrace {
    points: Vec<(f64, f64, f64)>, // (start, end, availability)
}

impl AvailabilityTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        AvailabilityTrace::default()
    }

    /// Appends a window's availability.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive span, an availability outside `[0, 1]`,
    /// or a window that precedes the previous one.
    pub fn push(&mut self, start: f64, end: f64, availability: f64) {
        assert!(end > start, "window must have positive span");
        assert!(
            (0.0..=1.0).contains(&availability),
            "availability must be in [0, 1]"
        );
        if let Some(&(_, prev_end, _)) = self.points.last() {
            assert!(start >= prev_end - 1e-9, "windows must be ordered");
        }
        self.points.push((start, end, availability));
    }

    /// `(start, end, availability)` triples.
    pub fn points(&self) -> &[(f64, f64, f64)] {
        &self.points
    }

    /// Time-weighted mean availability over all recorded windows.
    pub fn mean_availability(&self) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for &(s, e, a) in &self.points {
            weighted += a * (e - s);
            total += e - s;
        }
        if total > 0.0 {
            weighted / total
        } else {
            1.0
        }
    }

    /// Integrated unavailability `∫ (1 − a) dt` (seconds of effective
    /// downtime) — e.g. a window of 120 s at availability 0.75
    /// contributes 30.
    pub fn downtime(&self) -> f64 {
        self.points
            .iter()
            .map(|&(s, e, a)| (1.0 - a) * (e - s))
            .sum()
    }

    /// Longest consecutive stretch (seconds) spent below `threshold`
    /// availability — the recovery-time proxy: how long the worst
    /// incident lasted before redundancy was restored.
    pub fn longest_outage(&self, threshold: f64) -> f64 {
        let mut longest = 0.0f64;
        let mut current = 0.0f64;
        for &(s, e, a) in &self.points {
            if a < threshold {
                current += e - s;
                longest = longest.max(current);
            } else {
                current = 0.0;
            }
        }
        longest
    }
}

/// Counts scaling actions: how many configuration changes an autoscaler
/// issued (ATOM's model-driven plan needs fewer — §I, §V-B).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionLog {
    actions: Vec<(f64, String)>,
}

impl ActionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ActionLog::default()
    }

    /// Records an action at `time` with a human-readable description.
    pub fn record(&mut self, time: f64, description: impl Into<String>) {
        self.actions.push((time, description.into()));
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether no actions were recorded.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The recorded `(time, description)` pairs.
    pub fn entries(&self) -> &[(f64, String)] {
        &self.actions
    }
}

/// Jain's fairness index over per-tenant allocations: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means every tenant received the same amount; `1/n` means one
/// tenant received everything. Defined as 1.0 for an empty or all-zero
/// slice (nothing was allocated, so nobody was treated unfairly).
///
/// # Panics
///
/// Panics on a negative allocation — fairness over signed quantities is
/// undefined.
pub fn jain_fairness_index(allocations: &[f64]) -> f64 {
    assert!(
        allocations.iter().all(|&x| x >= 0.0),
        "allocations must be >= 0"
    );
    let sum: f64 = allocations.iter().sum();
    let sq_sum: f64 = allocations.iter().map(|&x| x * x).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    sum * sum / (allocations.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(windows: &[(f64, f64)]) -> CapacityTrace {
        // (required, allocated) per 100-second window.
        let mut t = CapacityTrace::new();
        for (i, &(req, alloc)) in windows.iter().enumerate() {
            t.push(CapacityWindow {
                start: i as f64 * 100.0,
                end: (i + 1) as f64 * 100.0,
                required: req,
                allocated: alloc,
            });
        }
        t
    }

    #[test]
    fn underprovision_time_counts_short_windows() {
        let t = trace(&[(1.0, 2.0), (2.0, 1.0), (3.0, 1.0), (1.0, 1.0)]);
        assert_eq!(t.underprovision_time(), 200.0);
    }

    #[test]
    fn underprovision_area_integrates_shortfall() {
        let t = trace(&[(2.0, 1.0), (1.0, 2.0)]);
        assert_eq!(t.underprovision_area(), 100.0);
    }

    #[test]
    fn tolerance_filters_marginal_windows() {
        let t = trace(&[(1.05, 1.0)]);
        assert_eq!(t.underprovision_time_with_tolerance(0.1), 0.0);
        assert_eq!(t.underprovision_time_with_tolerance(0.01), 100.0);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn rejects_out_of_order_windows() {
        let mut t = CapacityTrace::new();
        t.push(CapacityWindow {
            start: 100.0,
            end: 200.0,
            required: 1.0,
            allocated: 1.0,
        });
        t.push(CapacityWindow {
            start: 0.0,
            end: 50.0,
            required: 1.0,
            allocated: 1.0,
        });
    }

    #[test]
    fn tps_series_mean_and_cumulative() {
        let mut s = TpsSeries::new();
        s.push(0.0, 100.0, 10.0);
        s.push(100.0, 200.0, 30.0);
        assert_eq!(s.mean_tps(0.0, 200.0), 20.0);
        assert_eq!(s.cumulative(0.0, 200.0), 4_000.0);
        // Partial overlap.
        assert_eq!(s.mean_tps(50.0, 150.0), 20.0);
        assert_eq!(s.cumulative(50.0, 150.0), 2_000.0);
        assert_eq!(s.peak(), 30.0);
    }

    #[test]
    fn tps_series_outside_range_is_zero() {
        let mut s = TpsSeries::new();
        s.push(0.0, 10.0, 5.0);
        assert_eq!(s.mean_tps(20.0, 30.0), 0.0);
        assert_eq!(s.cumulative(20.0, 30.0), 0.0);
    }

    #[test]
    fn availability_trace_metrics() {
        let mut a = AvailabilityTrace::new();
        a.push(0.0, 100.0, 1.0);
        a.push(100.0, 200.0, 0.5); // incident
        a.push(200.0, 300.0, 0.75); // recovering
        a.push(300.0, 400.0, 1.0);
        assert_eq!(a.mean_availability(), 0.8125);
        assert_eq!(a.downtime(), 75.0);
        // Below 0.9 for the two middle windows; below 0.6 only for one.
        assert_eq!(a.longest_outage(0.9), 200.0);
        assert_eq!(a.longest_outage(0.6), 100.0);
    }

    #[test]
    fn availability_outages_reset_on_recovery() {
        let mut a = AvailabilityTrace::new();
        a.push(0.0, 60.0, 0.0);
        a.push(60.0, 120.0, 1.0);
        a.push(120.0, 150.0, 0.5);
        // Two separate incidents: the longest is the first.
        assert_eq!(a.longest_outage(0.9), 60.0);
        assert_eq!(a.downtime(), 75.0);
    }

    #[test]
    fn empty_availability_is_perfect() {
        let a = AvailabilityTrace::new();
        assert_eq!(a.mean_availability(), 1.0);
        assert_eq!(a.downtime(), 0.0);
        assert_eq!(a.longest_outage(0.99), 0.0);
    }

    #[test]
    #[should_panic(expected = "availability must be in [0, 1]")]
    fn availability_range_is_enforced() {
        let mut a = AvailabilityTrace::new();
        a.push(0.0, 10.0, 1.5);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness_index(&[3.0, 3.0, 3.0]), 1.0);
        // One tenant takes everything: 1/n.
        assert!((jain_fairness_index(&[6.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        let j = jain_fairness_index(&[1.0, 2.0, 3.0]);
        assert!(j > 1.0 / 3.0 && j < 1.0);
    }

    #[test]
    #[should_panic(expected = "allocations must be >= 0")]
    fn jain_index_rejects_negative() {
        jain_fairness_index(&[1.0, -1.0]);
    }

    #[test]
    fn action_log_counts() {
        let mut log = ActionLog::new();
        assert!(log.is_empty());
        log.record(10.0, "scale front-end to 2x0.4");
        log.record(20.0, "scale carts to 1x0.8");
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries()[0].0, 10.0);
    }
}
