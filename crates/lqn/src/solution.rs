//! Solver output shared by the analytic solver and the simulator.

use serde::{Deserialize, Serialize};

use crate::model::{EntryId, TaskId};

/// Performance metrics of a solved LQN.
///
/// Produced both by [`crate::analytic::solve`] and
/// [`crate::sim::simulate`], so that model-vs-measurement comparisons
/// (paper Tables III/IV) are a diff of two values of the same type.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LqnSolution {
    /// Per-entry throughput (invocations per second), indexed by entry id.
    pub entry_throughput: Vec<f64>,
    /// Per-entry *residence* time as seen by a caller: thread wait at the
    /// owning task plus the entry's full blocking time (seconds). This is
    /// the `W_ij` of the paper's SLA constraint (3).
    pub entry_residence: Vec<f64>,
    /// Per-entry blocking (service) time: execution plus nested calls,
    /// excluding the wait for a thread of its own task.
    pub entry_service_time: Vec<f64>,
    /// Per-task CPU utilisation: busy cores divided by allocated cores
    /// (`replicas × usable_cores_per_replica`); the `U_i` of constraint
    /// (5). Reference tasks report 0.
    pub task_utilization: Vec<f64>,
    /// Per-task mean wait for a free thread (seconds).
    pub task_wait: Vec<f64>,
    /// Per-processor utilisation: busy cores divided by total cores
    /// (Fig. 5's per-server utilisation).
    pub processor_utilization: Vec<f64>,
    /// Mean response time of one client cycle, excluding think time.
    pub client_response_time: f64,
    /// Client (system transaction) throughput: completed cycles/second.
    pub client_throughput: f64,
    /// Iterations used by the analytic fixed point (0 for simulation).
    pub iterations: usize,
}

impl LqnSolution {
    /// Throughput of one entry.
    pub fn entry_throughput(&self, entry: EntryId) -> f64 {
        self.entry_throughput[entry.0]
    }

    /// Residence time of one entry (thread wait + blocking time).
    pub fn entry_residence(&self, entry: EntryId) -> f64 {
        self.entry_residence[entry.0]
    }

    /// CPU utilisation of one task.
    pub fn task_utilization(&self, task: TaskId) -> f64 {
        self.task_utilization[task.0]
    }

    /// System transactions per second (the paper's TPS).
    pub fn total_throughput(&self) -> f64 {
        self.client_throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_index_by_id() {
        let s = LqnSolution {
            entry_throughput: vec![1.0, 2.0],
            entry_residence: vec![0.1, 0.2],
            entry_service_time: vec![0.05, 0.1],
            task_utilization: vec![0.5],
            task_wait: vec![0.01],
            processor_utilization: vec![0.7],
            client_response_time: 0.3,
            client_throughput: 3.0,
            iterations: 10,
        };
        assert_eq!(s.entry_throughput(EntryId(1)), 2.0);
        assert_eq!(s.entry_residence(EntryId(0)), 0.1);
        assert_eq!(s.task_utilization(TaskId(0)), 0.5);
        assert_eq!(s.total_throughput(), 3.0);
    }
}
