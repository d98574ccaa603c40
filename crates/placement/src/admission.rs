//! Admission control: rationing scale-ups once the pool is tight.
//!
//! The controller keeps a core ledger per node — capacity, plus the
//! footprint of every admitted scaling target — and rules on each
//! scale request:
//!
//! * **scale-downs** (the request frees cores or is neutral) are always
//!   admitted, and trigger a queue drain;
//! * **scale-ups** that fit are admitted and booked;
//! * scale-ups that would fit an *empty* node queue FIFO per tenant,
//!   bounded by `queue_limit`;
//! * scale-ups larger than the node itself are rejected with
//!   [`RejectReason::NeverFits`], and a full queue rejects with
//!   [`RejectReason::QueueFull`].
//!
//! Draining walks tenants in index order and each tenant's queue front
//! to back, admitting while the head fits — so the queue is FIFO per
//! tenant and no later request of the same tenant can jump an earlier
//! one.

use std::collections::VecDeque;

use atom_cluster::{AppSpec, ScaleAction};

/// Why a scale-up was refused outright.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The target footprint exceeds the hosting node's total capacity —
    /// no amount of waiting helps.
    NeverFits {
        /// Cores the target would occupy.
        required: f64,
        /// The hosting node's total cores.
        capacity: f64,
    },
    /// The tenant's queue is at its bound.
    QueueFull {
        /// The configured per-tenant queue bound.
        limit: usize,
    },
}

/// The controller's ruling on one scale request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionVerdict {
    /// Booked immediately.
    Admitted,
    /// Waiting at this position (0 = next to drain) in the tenant's
    /// FIFO queue.
    Queued {
        /// Position in the tenant's queue at enqueue time.
        position: usize,
    },
    /// Refused with a typed reason.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

/// Per-tenant admission accounting. `requests == admitted + queued +
/// rejected` always holds; `drained ≤ queued` counts queued requests
/// that were later admitted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdmissionStats {
    /// Scale requests ruled on.
    pub requests: u64,
    /// Admitted immediately.
    pub admitted: u64,
    /// Parked in the queue (position at enqueue time irrelevant).
    pub queued: u64,
    /// Rejected (either reason).
    pub rejected: u64,
    /// Queued requests later admitted by a drain.
    pub drained: u64,
}

/// A queued scale-up, remembering the actuation delay it was issued
/// with so a drain schedules it exactly as the controller asked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingScale {
    /// The merged-spec action.
    pub action: ScaleAction,
    /// Actuation delay (seconds) requested at issue time.
    pub(crate) delay: f64,
}

/// One global service's booked scaling target.
#[derive(Debug, Clone, Copy)]
struct Booked {
    server: usize,
    replicas: usize,
    share: f64,
}

impl Booked {
    fn footprint(&self) -> f64 {
        self.replicas as f64 * self.share
    }
}

/// The admission controller over one merged deployment.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    capacity: Vec<f64>,
    committed: Vec<f64>,
    booked: Vec<Booked>,
    queues: Vec<VecDeque<PendingScale>>,
    stats: Vec<AdmissionStats>,
    /// First tenant owning each global service (for queue routing).
    service_tenant: Vec<usize>,
    queue_limit: usize,
}

impl AdmissionController {
    /// Default per-tenant queue bound.
    pub const DEFAULT_QUEUE_LIMIT: usize = 16;

    /// Builds the ledger from the merged spec's initial deployment.
    /// `service_counts[t]` is tenant `t`'s service count, in tenant
    /// order (the same tiling the cluster validates).
    pub fn new(spec: &AppSpec, service_counts: &[usize], queue_limit: usize) -> Self {
        let capacity: Vec<f64> = spec.servers.iter().map(|s| s.cores as f64).collect();
        let mut committed = vec![0.0; spec.servers.len()];
        let mut booked = Vec::with_capacity(spec.services.len());
        for s in &spec.services {
            let b = Booked {
                server: s.server.0,
                replicas: s.initial_replicas,
                share: s.initial_share,
            };
            committed[b.server] += b.footprint();
            booked.push(b);
        }
        let mut service_tenant = Vec::with_capacity(spec.services.len());
        for (ti, &n) in service_counts.iter().enumerate() {
            service_tenant.extend(std::iter::repeat_n(ti, n));
        }
        assert_eq!(
            service_tenant.len(),
            spec.services.len(),
            "service counts must tile the merged spec"
        );
        AdmissionController {
            capacity,
            committed,
            booked,
            queues: vec![VecDeque::new(); service_counts.len()],
            stats: vec![AdmissionStats::default(); service_counts.len()],
            service_tenant,
            queue_limit,
        }
    }

    /// Per-tenant accounting so far.
    pub fn stats(&self) -> &[AdmissionStats] {
        &self.stats
    }

    /// Cores currently booked on `server`.
    pub fn committed_cores(&self, server: usize) -> f64 {
        self.committed[server]
    }

    fn delta_of(&self, action: &ScaleAction) -> f64 {
        action.replicas as f64 * action.share - self.booked[action.service.0].footprint()
    }

    fn book(&mut self, action: &ScaleAction) {
        let b = &mut self.booked[action.service.0];
        self.committed[b.server] += action.replicas as f64 * action.share - b.footprint();
        b.replicas = action.replicas;
        b.share = action.share;
    }

    /// Rules on one scale request for `tenant` (merged-spec service
    /// ids). Admitted and drained actions are returned via the second
    /// tuple member so the caller can schedule them — the first entry is
    /// the request itself when admitted, followed by any queued actions
    /// a scale-down's drain released (their tenants may differ: each
    /// carries its own tenant index).
    ///
    /// # Panics
    ///
    /// Panics if the action's service does not belong to `tenant`.
    pub fn request(
        &mut self,
        tenant: usize,
        action: ScaleAction,
        delay: f64,
    ) -> (AdmissionVerdict, Vec<(usize, PendingScale)>) {
        assert_eq!(
            self.service_tenant[action.service.0], tenant,
            "action targets a service outside the tenant's slice"
        );
        self.stats[tenant].requests += 1;
        let delta = self.delta_of(&action);
        let server = self.booked[action.service.0].server;
        if delta <= 1e-9 {
            // Scale-down or neutral: always admitted, and the freed
            // cores may unblock queued scale-ups.
            self.book(&action);
            self.stats[tenant].admitted += 1;
            let mut released = vec![(tenant, PendingScale { action, delay })];
            released.extend(self.drain());
            return (AdmissionVerdict::Admitted, released);
        }
        let target = action.replicas as f64 * action.share;
        if target > self.capacity[server] + 1e-9 {
            self.stats[tenant].rejected += 1;
            return (
                AdmissionVerdict::Rejected {
                    reason: RejectReason::NeverFits {
                        required: target,
                        capacity: self.capacity[server],
                    },
                },
                Vec::new(),
            );
        }
        if self.committed[server] + delta <= self.capacity[server] + 1e-9 {
            self.book(&action);
            self.stats[tenant].admitted += 1;
            return (
                AdmissionVerdict::Admitted,
                vec![(tenant, PendingScale { action, delay })],
            );
        }
        if self.queues[tenant].len() >= self.queue_limit {
            self.stats[tenant].rejected += 1;
            return (
                AdmissionVerdict::Rejected {
                    reason: RejectReason::QueueFull {
                        limit: self.queue_limit,
                    },
                },
                Vec::new(),
            );
        }
        self.queues[tenant].push_back(PendingScale { action, delay });
        self.stats[tenant].queued += 1;
        (
            AdmissionVerdict::Queued {
                position: self.queues[tenant].len() - 1,
            },
            Vec::new(),
        )
    }

    /// Admits queued scale-ups that now fit: tenants in index order,
    /// each queue strictly front to back (a blocked head blocks the
    /// tenant's whole queue — FIFO per tenant, no overtaking).
    fn drain(&mut self) -> Vec<(usize, PendingScale)> {
        let mut released = Vec::new();
        for tenant in 0..self.queues.len() {
            while let Some(&head) = self.queues[tenant].front() {
                let delta = self.delta_of(&head.action);
                let server = self.booked[head.action.service.0].server;
                if delta > 1e-9 && self.committed[server] + delta > self.capacity[server] + 1e-9 {
                    break;
                }
                self.book(&head.action);
                self.stats[tenant].drained += 1;
                released.push((tenant, head));
                self.queues[tenant].pop_front();
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_cluster::{AppSpec, ServiceId};

    /// Two tenants × one service each on one 4-core node, 1 core booked
    /// apiece.
    fn controller() -> AdmissionController {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        for name in ["a", "b"] {
            let svc = spec.add_service(name, node, 8, 1, 1.0);
            let ep = spec.add_endpoint(svc, "op", 0.01, 1.0);
            spec.add_feature(name, svc, ep);
        }
        AdmissionController::new(&spec, &[1, 1], 4)
    }

    fn up(service: usize, replicas: usize, share: f64) -> ScaleAction {
        ScaleAction {
            service: ServiceId(service),
            replicas,
            share,
        }
    }

    #[test]
    fn admits_until_full_then_queues_then_drains_fifo() {
        let mut c = controller();
        // 2 committed of 4. Tenant 0 grows to 3 cores: committed 4.
        let (v, rel) = c.request(0, up(0, 3, 1.0), 30.0);
        assert_eq!(v, AdmissionVerdict::Admitted);
        assert_eq!(rel.len(), 1);
        // Tenant 1 wants 2 cores more: does not fit, queues at 0.
        let (v, rel) = c.request(1, up(1, 3, 1.0), 30.0);
        assert_eq!(v, AdmissionVerdict::Queued { position: 0 });
        assert!(rel.is_empty());
        // Tenant 0 shrinks back to 1 core: drain releases tenant 1's
        // queued action.
        let (v, rel) = c.request(0, up(0, 1, 1.0), 30.0);
        assert_eq!(v, AdmissionVerdict::Admitted);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel[1].0, 1);
        assert_eq!(rel[1].1.action, up(1, 3, 1.0));
        assert_eq!(c.committed_cores(0), 4.0);
        let s = c.stats()[1];
        assert_eq!((s.requests, s.queued, s.drained), (1, 1, 1));
    }

    #[test]
    fn oversized_target_is_never_fits() {
        let mut c = controller();
        let (v, _) = c.request(0, up(0, 5, 1.0), 30.0);
        assert_eq!(
            v,
            AdmissionVerdict::Rejected {
                reason: RejectReason::NeverFits {
                    required: 5.0,
                    capacity: 4.0
                }
            }
        );
    }

    #[test]
    fn full_queue_rejects() {
        let mut c = controller();
        c.request(0, up(0, 3, 1.0), 30.0); // fill the node
        for _ in 0..4 {
            let (v, _) = c.request(1, up(1, 3, 1.0), 30.0);
            assert!(matches!(v, AdmissionVerdict::Queued { .. }));
        }
        let (v, _) = c.request(1, up(1, 3, 1.0), 30.0);
        assert_eq!(
            v,
            AdmissionVerdict::Rejected {
                reason: RejectReason::QueueFull { limit: 4 }
            }
        );
    }
}
