#![warn(missing_docs)]
#![warn(unreachable_pub)]

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
//!   period, folded over the monitoring windows by the experiment runner
//!   (`atom_core::ExperimentResult::mean_tps`).
//!
//! Required capacity follows Herbst et al. \[36\]: the CPU cores a service
//! needs to serve the *offered* workload of a window (computed by
//! `atom_cluster::spec::AppSpec::required_cores`), independent of what was
//! actually admitted.

use serde::{Deserialize, Serialize};

/// Shortfall (cores) a window may carry before it counts toward `T_u`.
const UNDERPROVISION_TOLERANCE: f64 = 0.01;

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

    /// Whether the window counts toward `T_u`: its shortfall exceeds 1%
    /// of a core.
    pub fn underprovisioned(&self) -> bool {
        self.shortfall() > UNDERPROVISION_TOLERANCE
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

    /// `T_u^(i)`: seconds spent in [`CapacityWindow::underprovisioned`]
    /// windows.
    pub fn underprovision_time(&self) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.underprovisioned())
            .map(|w| w.duration())
            .sum()
    }

    /// `A_u^(i)`: ∫ shortfall dt (core-seconds).
    pub fn underprovision_area(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.shortfall() * w.duration())
            .sum()
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
        // 0.005 cores short is inside the 1% tolerance; 0.05 is not.
        assert_eq!(trace(&[(1.005, 1.0)]).underprovision_time(), 0.0);
        assert_eq!(trace(&[(1.05, 1.0)]).underprovision_time(), 100.0);
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
}
