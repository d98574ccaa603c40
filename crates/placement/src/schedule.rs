//! Deterministic replica placement: first-fit-decreasing bin-packing of
//! tenant services onto the shared pool.
//!
//! The packing key is each service's initial CPU footprint
//! (`initial_replicas × initial_share`), largest first — the classic
//! FFD heuristic. Ties are broken by a seeded hash so different seeds
//! explore different (but individually reproducible) packings, with the
//! `(tenant, service)` pair as the final total order: the same pool,
//! tenants, and seed always yield the same placement, regardless of how
//! many worker threads a surrounding experiment fans out over.
//!
//! When the pool spans several racks the fit step is *rack-local*:
//! among the nodes a service fits on, it prefers the rack already
//! hosting the most of its tenant's placed footprint (declaration order
//! breaks ties), so chatty intra-tenant calls stay off the aggregation
//! uplinks the link fabric prices. A single-rack pool collapses to
//! plain first-fit — rack awareness is free until racks exist.

use atom_cluster::spec::{FeatureSpec, ServiceSpec};
use atom_cluster::{AppSpec, ClusterError, ServerId, ServiceId, TenantLayout};
use atom_sim::splitmix64;

use crate::pool::NodePool;
use crate::tenant::TenantSpec;

/// Why a multi-tenant deployment could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The pool has no nodes.
    EmptyPool,
    /// A service's initial footprint fits on no node (given what is
    /// already placed).
    InsufficientCapacity {
        /// Offending tenant's name.
        tenant: String,
        /// Offending service's name.
        service: String,
        /// Cores the service needs up front.
        required: f64,
        /// Largest free block any node still offers.
        largest_free: f64,
    },
    /// The merged deployment failed cluster-side validation.
    Cluster(ClusterError),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::EmptyPool => write!(f, "the node pool has no nodes"),
            PlacementError::InsufficientCapacity {
                tenant,
                service,
                required,
                largest_free,
            } => write!(
                f,
                "no node can host {tenant}/{service}: needs {required:.2} cores, \
                 largest free block is {largest_free:.2}"
            ),
            PlacementError::Cluster(e) => write!(f, "cluster rejected the merged deployment: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl From<ClusterError> for PlacementError {
    fn from(e: ClusterError) -> Self {
        PlacementError::Cluster(e)
    }
}

/// The scheduler's output: where every service landed, the merged
/// cluster-wide spec, and each tenant's slice of it.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `assignments[tenant][service]` = pool node index.
    pub assignments: Vec<Vec<usize>>,
    /// The merged spec: pool nodes as servers, every tenant's services
    /// and features re-based onto one id space (tenant order, service
    /// order within a tenant — placement order never reorders the spec).
    pub spec: AppSpec,
    /// Each tenant's feature/service slice of the merged spec.
    pub layouts: Vec<TenantLayout>,
}

/// The seeded tie-break hash. Not a `SimRng` stream: placement must not
/// consume simulation randomness.
fn tie_rank(seed: u64, tenant: usize, service: usize) -> u64 {
    splitmix64(seed ^ splitmix64(((tenant as u64) << 32) | service as u64))
}

/// Places every tenant's services onto the pool (first-fit-decreasing by
/// initial CPU footprint, seeded tie-breaks) and merges the tenant specs
/// into one deployable [`AppSpec`].
///
/// # Errors
///
/// [`PlacementError::EmptyPool`] on an empty pool;
/// [`PlacementError::InsufficientCapacity`] when a service fits nowhere.
pub fn place(
    pool: &NodePool,
    tenants: &[TenantSpec],
    seed: u64,
) -> Result<Placement, PlacementError> {
    if pool.is_empty() {
        return Err(PlacementError::EmptyPool);
    }

    // Pack order: footprint desc, seeded rank, then (tenant, service) as
    // the deterministic final word.
    let mut order: Vec<(usize, usize, f64)> = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        for (si, svc) in t.app.services.iter().enumerate() {
            order.push((ti, si, svc.initial_replicas as f64 * svc.initial_share));
        }
    }
    order.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| tie_rank(seed, a.0, a.1).cmp(&tie_rank(seed, b.0, b.1)))
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });

    let mut free: Vec<f64> = pool.servers.iter().map(|s| s.cores as f64).collect();
    let mut assignments: Vec<Vec<usize>> = tenants
        .iter()
        .map(|t| vec![usize::MAX; t.app.services.len()])
        .collect();
    // Per-tenant placed footprint per rack, for the locality preference.
    let mut rack_weight: Vec<Vec<f64>> = tenants
        .iter()
        .map(|_| vec![0.0; pool.n_racks().max(1)])
        .collect();
    for &(ti, si, weight) in &order {
        // Rack locality: among fitting nodes, the rack already hosting
        // the most of this tenant's footprint wins; declaration order
        // breaks ties (on a single-rack pool every node ties, so this
        // is exactly the original first-fit).
        let node = (0..free.len())
            .filter(|&n| weight <= free[n] + 1e-9)
            .max_by(|&a, &b| {
                rack_weight[ti][pool.rack_of(a)]
                    .partial_cmp(&rack_weight[ti][pool.rack_of(b)])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.cmp(&a))
            });
        match node {
            Some(n) => {
                free[n] -= weight;
                rack_weight[ti][pool.rack_of(n)] += weight;
                assignments[ti][si] = n;
            }
            None => {
                return Err(PlacementError::InsufficientCapacity {
                    tenant: tenants[ti].name.clone(),
                    service: tenants[ti].app.services[si].name.clone(),
                    required: weight,
                    largest_free: free.iter().copied().fold(0.0, f64::max),
                });
            }
        }
    }

    // Merge: pool nodes become the servers; tenants' services and
    // features are appended in tenant order with re-based ids.
    let mut spec = AppSpec::new();
    for s in &pool.servers {
        spec.add_server(s.name.clone(), s.cores, s.speed);
    }
    let mut layouts = Vec::with_capacity(tenants.len());
    let (mut feature_offset, mut service_offset) = (0usize, 0usize);
    for (ti, t) in tenants.iter().enumerate() {
        for (si, svc) in t.app.services.iter().enumerate() {
            let mut merged = ServiceSpec {
                name: svc.name.clone(),
                server: ServerId(assignments[ti][si]),
                ..svc.clone()
            };
            for ep in &mut merged.endpoints {
                for call in &mut ep.calls {
                    call.service = ServiceId(call.service.0 + service_offset);
                }
            }
            spec.push_service(merged);
        }
        for f in &t.app.features {
            spec.push_feature(FeatureSpec {
                name: f.name.clone(),
                service: ServiceId(f.service.0 + service_offset),
                endpoint: f.endpoint,
            });
        }
        layouts.push(TenantLayout {
            feature_offset,
            feature_count: t.app.features.len(),
            service_offset,
            service_count: t.app.services.len(),
        });
        feature_offset += t.app.features.len();
        service_offset += t.app.services.len();
    }

    Ok(Placement {
        assignments,
        spec,
        layouts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_cluster::AppSpec;

    fn tenant(name: &str, services: &[(usize, f64)]) -> TenantSpec {
        let mut app = AppSpec::new();
        let node = app.add_server("placeholder", 64, 1.0);
        for (i, &(replicas, share)) in services.iter().enumerate() {
            let svc = app.add_service(format!("s{i}"), node, 8, replicas, share);
            let ep = app.add_endpoint(svc, "op", 0.01, 1.0);
            app.add_feature(format!("f{i}"), svc, ep);
        }
        let workload = atom_workload::WorkloadSpec::constant(
            atom_workload::RequestMix::uniform(services.len()),
            10,
            5.0,
        );
        TenantSpec::new(name, app, workload)
    }

    #[test]
    fn ffd_packs_largest_first() {
        let mut pool = NodePool::new();
        pool.add_node("a", 4, 1.0);
        pool.add_node("b", 4, 1.0);
        // 3 + 2 + 2: FFD puts the 3 on node a, the 2s on node b.
        let t = tenant("t", &[(1, 3.0), (1, 2.0), (1, 2.0)]);
        let p = place(&pool, &[t], 1).expect("fits");
        assert_eq!(p.assignments[0][0], 0);
        assert_eq!(p.assignments[0][1], 1);
        assert_eq!(p.assignments[0][2], 1);
    }

    #[test]
    fn overflow_is_a_typed_error() {
        let mut pool = NodePool::new();
        pool.add_node("a", 2, 1.0);
        let t = tenant("t", &[(1, 3.0)]);
        match place(&pool, &[t], 1) {
            Err(PlacementError::InsufficientCapacity {
                required,
                largest_free,
                ..
            }) => {
                assert_eq!(required, 3.0);
                assert_eq!(largest_free, 2.0);
            }
            other => panic!("expected InsufficientCapacity, got {other:?}"),
        }
    }

    #[test]
    fn services_stay_co_racked_when_capacity_allows() {
        let mut pool = NodePool::new();
        // Plain first-fit would put the two 2-core services on node a
        // (rack 0) and node b (rack 0 is full -> b); rack locality must
        // instead keep the tenant inside one rack while room remains.
        pool.add_node_in_rack("a0", 4, 1.0, 0);
        pool.add_node_in_rack("a1", 4, 1.0, 0);
        pool.add_node_in_rack("b0", 4, 1.0, 1);
        let t = tenant("t", &[(1, 3.0), (1, 2.0), (1, 2.0)]);
        let p = place(&pool, &[t], 1).expect("fits");
        let racks: Vec<usize> = p.assignments[0].iter().map(|&n| pool.rack_of(n)).collect();
        assert_eq!(racks, vec![0, 0, 0], "all three services share rack 0");
    }

    #[test]
    fn second_tenant_prefers_its_own_rack() {
        let mut pool = NodePool::new();
        pool.add_node_in_rack("a", 4, 1.0, 0);
        pool.add_node_in_rack("b", 4, 1.0, 1);
        // Tenant 0 fills rack 0; tenant 1's second service must follow
        // its first onto rack 1 rather than first-fitting back to a.
        let t0 = tenant("t0", &[(1, 3.0)]);
        let t1 = tenant("t1", &[(1, 2.0), (1, 1.0)]);
        let p = place(&pool, &[t0, t1], 1).expect("fits");
        assert_eq!(p.assignments[0], vec![0]);
        assert_eq!(p.assignments[1], vec![1, 1]);
    }

    #[test]
    fn merge_rebases_ids_and_validates() {
        let mut pool = NodePool::new();
        pool.add_node("a", 16, 1.0);
        let t0 = tenant("t0", &[(1, 1.0), (1, 1.0)]);
        let t1 = tenant("t1", &[(1, 1.0)]);
        let p = place(&pool, &[t0, t1], 1).expect("fits");
        assert_eq!(p.spec.services.len(), 3);
        assert_eq!(p.spec.features.len(), 3);
        assert_eq!(p.layouts[1].service_offset, 2);
        assert_eq!(p.layouts[1].feature_offset, 2);
        assert_eq!(p.spec.features[2].service, ServiceId(2));
        p.spec.validate().expect("merged spec is valid");
    }
}
