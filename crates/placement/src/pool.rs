//! The shared node pool tenants contend for.

use atom_cluster::spec::ServerSpec;

/// A fixed set of physical nodes. Unlike an [`AppSpec`]'s server list —
/// which one application owns outright — a pool is shared: the
/// scheduler places every tenant's services onto it, and the admission
/// controller rations what is left.
///
/// Every node sits in a *rack* (default: rack 0). Racks feed the
/// scheduler's locality preference ([`place`](crate::schedule::place)
/// keeps a tenant's services co-racked when capacity allows). A
/// single-rack pool behaves exactly like the pre-rack scheduler.
///
/// [`AppSpec`]: atom_cluster::AppSpec
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodePool {
    /// The nodes, in declaration order (placement is deterministic in
    /// this order).
    pub servers: Vec<ServerSpec>,
    /// `racks[i]` is the rack of `servers[i]`.
    pub(crate) racks: Vec<usize>,
}

impl NodePool {
    /// An empty pool.
    pub fn new() -> Self {
        NodePool::default()
    }

    /// Adds a node in rack 0 and returns its pool index.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `speed <= 0`.
    pub fn add_node(&mut self, name: impl Into<String>, cores: usize, speed: f64) -> usize {
        self.add_node_in_rack(name, cores, speed, 0)
    }

    /// Adds a node in `rack` and returns its pool index.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `speed <= 0`.
    pub(crate) fn add_node_in_rack(
        &mut self,
        name: impl Into<String>,
        cores: usize,
        speed: f64,
        rack: usize,
    ) -> usize {
        assert!(cores > 0, "node needs cores");
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        self.servers.push(ServerSpec {
            name: name.into(),
            cores,
            speed,
        });
        self.racks.push(rack);
        self.servers.len() - 1
    }

    /// Rack of node `i`.
    pub(crate) fn rack_of(&self, i: usize) -> usize {
        self.racks[i]
    }

    /// Number of racks (highest rack id + 1; 0 for an empty pool).
    pub(crate) fn n_racks(&self) -> usize {
        self.racks.iter().map(|&r| r + 1).max().unwrap_or(0)
    }

    /// Total CPU cores across the pool.
    pub fn capacity_cores(&self) -> f64 {
        self.servers.iter().map(|s| s.cores as f64).sum()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the pool has no nodes.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_sums_cores() {
        let mut pool = NodePool::new();
        pool.add_node("a", 4, 1.0);
        pool.add_node("b", 8, 1.2);
        assert_eq!(pool.capacity_cores(), 12.0);
        assert_eq!(pool.len(), 2);
        // Rack-less declaration lands everything in rack 0.
        assert_eq!(pool.racks, vec![0, 0]);
        assert_eq!(pool.n_racks(), 1);
    }

    #[test]
    fn nodes_land_in_their_declared_racks() {
        let mut pool = NodePool::new();
        pool.add_node_in_rack("a", 4, 1.0, 0);
        pool.add_node_in_rack("b", 4, 1.0, 1);
        pool.add_node_in_rack("c", 4, 1.0, 1);
        assert_eq!(pool.n_racks(), 2);
        assert_eq!(pool.rack_of(2), 1);
    }

    #[test]
    #[should_panic(expected = "node needs cores")]
    fn zero_cores_rejected() {
        NodePool::new().add_node("a", 0, 1.0);
    }
}
