//! Asymptotic (operational) bounds for closed networks.
//!
//! These bounds hold for *any* service-time distribution and are therefore
//! ideal invariants for property-based testing of the approximate solvers:
//! every solver's throughput must lie within [`throughput_bounds`].

use crate::network::{ClosedNetwork, StationKind};

/// Lower and upper bounds on a performance quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Pessimistic bound.
    pub lower: f64,
    /// Optimistic bound.
    pub upper: f64,
}

/// Asymptotic throughput bounds for the *total* (class-aggregated) flow of
/// a single-class network.
///
/// For population `N`, total demand `D = Σ_k D_k`, think time `Z`,
/// and bottleneck capacity `μ_max = min_k m_k / D_k`:
///
/// ```text
/// N / (Z + D + (N-1)·D_max)  ≤  X(N)  ≤  min( N / (Z + D), μ_max )
/// ```
///
/// # Panics
///
/// Panics if the network is not single-class.
pub fn throughput_bounds(net: &ClosedNetwork) -> Bounds {
    assert_eq!(
        net.num_classes(),
        1,
        "throughput_bounds requires a single-class network"
    );
    let n = net.classes()[0].population() as f64;
    let z = net.classes()[0].think_time();
    let total_d: f64 = net.stations().iter().map(|s| s.demand(0)).sum();
    let mut bottleneck_rate = f64::INFINITY;
    let mut d_max: f64 = 0.0;
    for st in net.stations() {
        let d = st.demand(0);
        if d <= 0.0 {
            continue;
        }
        match st.kind() {
            StationKind::Delay => {}
            StationKind::Queueing { servers } => {
                bottleneck_rate = bottleneck_rate.min(servers as f64 / d);
                d_max = d_max.max(d);
            }
        }
    }
    let upper = (n / (z + total_d)).min(bottleneck_rate);
    let lower = if n > 0.0 {
        n / (z + total_d + (n - 1.0) * d_max)
    } else {
        0.0
    };
    Bounds { lower, upper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed::solve_exact;
    use crate::network::{ClassSpec, Station};

    fn net(demands: &[(f64, usize)], n: usize, z: f64) -> ClosedNetwork {
        let stations = demands
            .iter()
            .enumerate()
            .map(|(i, &(d, m))| Station::queueing(format!("s{i}"), m, vec![d]))
            .collect();
        ClosedNetwork::new(stations, vec![ClassSpec::new("c", n, z)]).unwrap()
    }

    #[test]
    fn exact_solution_within_bounds() {
        for &(n, z) in &[(1usize, 0.0), (5, 1.0), (50, 3.0), (200, 7.0)] {
            let network = net(&[(0.1, 1), (0.05, 2), (0.2, 4)], n, z);
            let b = throughput_bounds(&network);
            let x = solve_exact(&network).unwrap().throughput[0];
            assert!(
                x <= b.upper + 1e-9 && x >= b.lower - 1e-9,
                "x={x} outside [{}, {}] at n={n}",
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn zero_population_has_zero_lower_bound() {
        let network = net(&[(0.1, 1)], 0, 1.0);
        let b = throughput_bounds(&network);
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
    }
}
