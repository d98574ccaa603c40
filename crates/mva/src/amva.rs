//! Bard–Schweitzer approximate MVA with a multi-server correction.
//!
//! The ATOM paper solves its LQN submodels with LQNS' "Bard-Schweitzer
//! single step mean value analysis" option; this module provides the same
//! approximation for flat closed networks. Instead of recursing over the
//! population lattice, the arrival-theorem queue length seen by a class-`c`
//! job is approximated from the full-population queue lengths:
//!
//! ```text
//! A_kc(N) ≈ Q_k(N) - Q_kc(N) / N_c        (Schweitzer)
//! ```
//!
//! Multi-server stations with `m` servers use the residence-time form
//!
//! ```text
//! R_kc = D_kc · (1 + max(0, A_kc - (m - 1)) / m)
//! ```
//!
//! i.e. a job only queues behind the jobs that exceed the free servers, and
//! the excess drains at rate `m` (the standard AMVA multi-server
//! approximation used, e.g., by the Method of Layers).

use crate::error::MvaError;
use crate::network::{ClosedNetwork, Solution, StationKind};

/// Fixed-point iterations before [`solve_amva`] reports
/// [`MvaError::NoConvergence`].
const MAX_ITERATIONS: usize = 10_000;

/// Convergence tolerance on the maximum absolute change of any queue
/// length between iterations.
const TOLERANCE: f64 = 1e-10;

/// Damping of each queue-length update (`1.0` would be undamped).
const DAMPING: f64 = 0.5;

/// The options argument of [`solve_amva`]. The iteration's limits are
/// fixed (at most 10 000 iterations, tolerance 1e-10 on queue lengths,
/// damping 0.5), so it carries no settings; the type stays because the
/// benchmark package (`benchmarks/`) passes `AmvaOptions::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AmvaOptions;

/// Solves a multi-class closed network with the Bard–Schweitzer
/// approximation.
///
/// Supports delay stations and queueing stations with any number of
/// servers. Classes with zero population get zero throughput.
///
/// # Errors
///
/// Returns [`MvaError::NoConvergence`] if the fixed point does not settle
/// within 10 000 iterations.
///
/// # Examples
///
/// ```
/// use atom_mva::{ClosedNetwork, Station, ClassSpec, solve_amva, AmvaOptions};
/// # fn main() -> Result<(), atom_mva::MvaError> {
/// let net = ClosedNetwork::new(
///     vec![Station::queueing("cpu", 2, vec![0.1, 0.2])],
///     vec![ClassSpec::new("a", 30, 1.0), ClassSpec::new("b", 10, 2.0)],
/// )?;
/// let sol = solve_amva(&net, AmvaOptions)?;
/// assert!(sol.throughput.iter().all(|&x| x > 0.0));
/// # Ok(())
/// # }
/// ```
pub fn solve_amva(net: &ClosedNetwork, _options: AmvaOptions) -> Result<Solution, MvaError> {
    let k = net.num_stations();
    let c = net.num_classes();
    let pops: Vec<f64> = net
        .classes()
        .iter()
        .map(|s| s.population() as f64)
        .collect();

    // Initial guess: population spread evenly over stations.
    let mut q = vec![vec![0.0_f64; c]; k];
    for cls in 0..c {
        for station_q in q.iter_mut() {
            station_q[cls] = pops[cls] / k.max(1) as f64;
        }
    }

    let mut resid = vec![vec![0.0_f64; c]; k];
    let mut x = vec![0.0_f64; c];
    let mut residual = f64::INFINITY;

    for _ in 0..MAX_ITERATIONS {
        // Residence times via the Schweitzer arrival approximation.
        for (i, st) in net.stations().iter().enumerate() {
            let q_total: f64 = q[i].iter().sum();
            for cls in 0..c {
                let d = st.demand(cls);
                if pops[cls] == 0.0 {
                    resid[i][cls] = 0.0;
                    continue;
                }
                let arrival_q = q_total - q[i][cls] / pops[cls];
                resid[i][cls] = match st.kind() {
                    StationKind::Delay => d,
                    StationKind::Queueing { servers: 1 } => d * (1.0 + arrival_q),
                    StationKind::Queueing { servers } => {
                        let m = servers as f64;
                        d * (1.0 + (arrival_q - (m - 1.0)).max(0.0) / m)
                    }
                };
            }
        }
        // Throughputs and new queue lengths.
        let mut max_delta = 0.0_f64;
        for cls in 0..c {
            if pops[cls] == 0.0 {
                x[cls] = 0.0;
                continue;
            }
            let r_total: f64 = (0..k).map(|i| resid[i][cls]).sum();
            x[cls] = pops[cls] / (net.classes()[cls].think_time() + r_total);
        }
        for i in 0..k {
            for cls in 0..c {
                let target = x[cls] * resid[i][cls];
                let new = q[i][cls] + DAMPING * (target - q[i][cls]);
                max_delta = max_delta.max((new - q[i][cls]).abs());
                q[i][cls] = new;
            }
        }
        residual = max_delta;
        if max_delta < TOLERANCE {
            let response_time: Vec<f64> = (0..c)
                .map(|cls| (0..k).map(|i| resid[i][cls]).sum())
                .collect();
            let utilization: Vec<f64> = net
                .stations()
                .iter()
                .map(|st| {
                    let raw: f64 = (0..c).map(|cls| x[cls] * st.demand(cls)).sum();
                    match st.kind() {
                        StationKind::Delay => raw,
                        StationKind::Queueing { servers } => raw / servers as f64,
                    }
                })
                .collect();
            return Ok(Solution {
                throughput: x,
                response_time,
                queue_length: q,
                utilization,
                residence: resid,
            });
        }
    }
    Err(MvaError::NoConvergence {
        iterations: MAX_ITERATIONS,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed::{solve_exact, solve_exact_multiclass};
    use crate::network::{ClassSpec, Station};

    #[test]
    fn matches_exact_single_class_within_tolerance() {
        for &(d, n, z) in &[(0.2, 5, 1.0), (0.5, 20, 4.0), (1.0, 3, 0.5)] {
            let net = ClosedNetwork::new(
                vec![
                    Station::queueing("s1", 1, vec![d]),
                    Station::queueing("s2", 1, vec![d / 2.0]),
                ],
                vec![ClassSpec::new("c", n, z)],
            )
            .unwrap();
            let exact = solve_exact(&net).unwrap();
            let approx = solve_amva(&net, AmvaOptions).unwrap();
            let rel = (exact.throughput[0] - approx.throughput[0]).abs() / exact.throughput[0];
            assert!(rel < 0.05, "rel error {rel} too large for ({d},{n},{z})");
        }
    }

    #[test]
    fn matches_exact_multiclass_within_tolerance() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu", 1, vec![0.1, 0.3]),
                Station::queueing("db", 1, vec![0.2, 0.05]),
            ],
            vec![ClassSpec::new("a", 6, 1.0), ClassSpec::new("b", 4, 0.5)],
        )
        .unwrap();
        let exact = solve_exact_multiclass(&net).unwrap();
        let approx = solve_amva(&net, AmvaOptions).unwrap();
        for cls in 0..2 {
            let rel =
                (exact.throughput[cls] - approx.throughput[cls]).abs() / exact.throughput[cls];
            // Schweitzer is least accurate at small populations; 10% is the
            // usual quoted envelope for such cases.
            assert!(rel < 0.10, "class {cls} rel error {rel}");
        }
    }

    #[test]
    fn zero_population_class_is_inert() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("s", 1, vec![0.1, 0.5])],
            vec![ClassSpec::new("a", 5, 1.0), ClassSpec::new("b", 0, 1.0)],
        )
        .unwrap();
        let sol = solve_amva(&net, AmvaOptions).unwrap();
        assert_eq!(sol.throughput[1], 0.0);
        assert!(sol.throughput[0] > 0.0);
    }

    #[test]
    fn multiserver_utilization_below_one() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("s", 3, vec![0.5])],
            vec![ClassSpec::new("c", 100, 1.0)],
        )
        .unwrap();
        let sol = solve_amva(&net, AmvaOptions).unwrap();
        assert!(sol.utilization[0] <= 1.0 + 1e-6, "u={}", sol.utilization[0]);
        // Saturated: throughput close to m/D = 6.
        assert!(sol.throughput[0] > 5.5);
    }

    #[test]
    fn little_law_holds_at_fixed_point() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("a", 2, vec![0.3]),
                Station::delay("d", vec![0.2]),
            ],
            vec![ClassSpec::new("c", 12, 1.5)],
        )
        .unwrap();
        let sol = solve_amva(&net, AmvaOptions).unwrap();
        let n_busy: f64 = (0..2).map(|i| sol.queue_length[i][0]).sum();
        let n_think = sol.throughput[0] * 1.5;
        assert!(
            ((n_busy + n_think) - 12.0).abs() < 1e-6,
            "population conservation violated: {}",
            n_busy + n_think
        );
    }
}
