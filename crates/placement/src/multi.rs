//! The multi-tenant cluster: placement + admission wrapped around the
//! simulator, and the per-tenant MAPE-K driver.

use atom_cluster::{Cluster, ClusterOptions, ScaleAction, ServiceId, WindowReport};
use atom_core::{Autoscaler, ExperimentResult};

use crate::admission::{AdmissionController, AdmissionStats, AdmissionVerdict};
use crate::pool::NodePool;
use crate::schedule::{place, Placement, PlacementError};
use crate::tenant::TenantSpec;

/// A deployed multi-tenant cluster: the merged simulator underneath,
/// the placement that built it, and the admission controller every
/// scale request must pass.
///
/// Controllers talk tenant-local ids ([`run_multi_tenant`] translates
/// them and routes every action through admission); test harnesses
/// that need to bypass admission can reach the raw simulator via
/// [`MultiTenantCluster::cluster_mut`].
#[derive(Clone)]
pub struct MultiTenantCluster {
    cluster: Cluster,
    placement: Placement,
    admission: AdmissionController,
    /// The tenants as deployed: [`run_multi_tenant`] sizes each one's
    /// required capacity from its own app and workload.
    tenants: Vec<TenantSpec>,
}

impl MultiTenantCluster {
    /// Places `tenants` onto `pool` (seeded by `options.seed`) and
    /// deploys the merged spec.
    ///
    /// # Errors
    ///
    /// Placement failures ([`PlacementError::EmptyPool`],
    /// [`PlacementError::InsufficientCapacity`]) and cluster-side
    /// validation failures (wrapped in [`PlacementError::Cluster`]).
    pub fn new(
        pool: &NodePool,
        tenants: &[TenantSpec],
        options: ClusterOptions,
    ) -> Result<Self, PlacementError> {
        let placement = place(pool, tenants, options.seed)?;
        let pairs: Vec<_> = tenants
            .iter()
            .zip(&placement.layouts)
            .map(|(t, &layout)| (t.workload.clone(), layout))
            .collect();
        let cluster = Cluster::new_multi_tenant(&placement.spec, pairs, options)?;
        let counts: Vec<usize> = placement.layouts.iter().map(|l| l.service_count).collect();
        let admission = AdmissionController::new(
            &placement.spec,
            &counts,
            AdmissionController::DEFAULT_QUEUE_LIMIT,
        );
        Ok(MultiTenantCluster {
            cluster,
            placement,
            admission,
            tenants: tenants.to_vec(),
        })
    }

    /// Replaces the admission controller's per-tenant queue bound
    /// (default [`AdmissionController::DEFAULT_QUEUE_LIMIT`]). Call
    /// right after [`MultiTenantCluster::new`], before any scale request
    /// — the ledger is rebuilt from the initial deployment.
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        let counts: Vec<usize> = self
            .placement
            .layouts
            .iter()
            .map(|l| l.service_count)
            .collect();
        self.admission = AdmissionController::new(&self.placement.spec, &counts, limit);
        self
    }

    /// Number of tenants deployed.
    pub(crate) fn tenant_count(&self) -> usize {
        self.placement.layouts.len()
    }

    /// Per-tenant admission accounting.
    pub fn admission_stats(&self) -> &[AdmissionStats] {
        self.admission.stats()
    }

    /// Cores the admission ledger has booked on `server`.
    pub fn committed_cores(&self, server: usize) -> f64 {
        self.admission.committed_cores(server)
    }

    /// The merged simulator (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The merged simulator. Scaling through this bypasses admission —
    /// for single-tenant equivalence tests and custom harnesses only.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Runs one monitoring window and returns the merged report.
    pub fn run_window(&mut self, duration: f64) -> WindowReport {
        self.cluster.run_window(duration)
    }

    /// Routes one tenant's scale actions (tenant-local service ids)
    /// through admission; admitted and drained actions are scheduled on
    /// the simulator with the issuing controller's `delay`. Returns the
    /// verdicts, action by action.
    ///
    /// # Panics
    ///
    /// Panics if a local service id is outside the tenant's slice.
    pub(crate) fn schedule_scaling(
        &mut self,
        tenant: usize,
        actions: Vec<ScaleAction>,
        delay: f64,
    ) -> Vec<(ScaleAction, AdmissionVerdict)> {
        let layout = self.placement.layouts[tenant];
        let mut verdicts = Vec::with_capacity(actions.len());
        for local in actions {
            assert!(
                local.service.0 < layout.service_count,
                "service {} outside tenant {tenant}'s {} services",
                local.service.0,
                layout.service_count
            );
            let global = ScaleAction {
                service: ServiceId(layout.service_offset + local.service.0),
                ..local
            };
            let (verdict, released) = self.admission.request(tenant, global, delay);
            for (_, pending) in released {
                self.cluster
                    .schedule_scaling(vec![pending.action], pending.delay);
            }
            verdicts.push((local, verdict));
        }
        verdicts
    }
}

/// Drives one autoscaler per tenant against the shared cluster for
/// `windows` monitoring windows: run a window, take each tenant's view of
/// it ([`Cluster::tenant_reports`]), and run that tenant's
/// [`ExperimentResult::window_step`], routing the decided actions through
/// admission. Controllers see tenant-local indices throughout, exactly
/// as if they owned the cluster — contention reaches them only through
/// what admission grants.
///
/// Returns, per tenant, its run record — required capacity sized from
/// its own app and workload — and the [`AdmissionVerdict`] of each entry
/// of the record's `actions`, in the same order. Every record's
/// `telemetry.cluster` holds the shared cluster's counters, and its
/// `telemetry.spans` stays empty.
///
/// # Panics
///
/// Panics unless `scalers.len() == cluster.tenant_count()`.
pub fn run_multi_tenant(
    cluster: &mut MultiTenantCluster,
    scalers: &mut [Box<dyn Autoscaler>],
    windows: usize,
    window_secs: f64,
) -> Vec<(ExperimentResult, Vec<AdmissionVerdict>)> {
    assert_eq!(
        scalers.len(),
        cluster.tenant_count(),
        "one autoscaler per tenant"
    );
    let mut runs: Vec<_> = cluster
        .tenants
        .iter()
        .zip(scalers.iter())
        .map(|(t, s)| {
            (
                ExperimentResult::new(s.name(), t.app.services.len()),
                Vec::new(),
            )
        })
        .collect();
    for _ in 0..windows {
        let merged = cluster.run_window(window_secs);
        let views = cluster.cluster.tenant_reports(&merged);
        for (ti, report) in views.into_iter().enumerate() {
            let (result, verdicts) = &mut runs[ti];
            let scaler = scalers[ti].as_mut();
            let t = &cluster.tenants[ti];
            let mix = t.workload.mix.fractions();
            let decided = result.window_step(scaler, &t.app, mix, t.workload.think_time, report);
            if !decided.is_empty() {
                let granted = cluster.schedule_scaling(ti, decided, scaler.actuation_delay());
                verdicts.extend(granted.into_iter().map(|(_, verdict)| verdict));
            }
        }
    }
    for (result, _) in &mut runs {
        result.telemetry.cluster = cluster.cluster.telemetry().clone();
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_cluster::AppSpec;
    use atom_core::{run_experiment, ExperimentConfig, UvScaler};
    use atom_workload::{LoadProfile, RequestMix, WorkloadSpec};

    fn tenant(name: &str, users: usize) -> TenantSpec {
        let mut app = AppSpec::new();
        let node = app.add_server("placeholder", 64, 1.0);
        let svc = app.add_service("api", node, 64, 1, 1.0);
        let ep = app.add_endpoint(svc, "op", 0.005, 1.0);
        app.add_feature("op", app.service_by_name("api").unwrap(), ep);
        let _ = svc;
        let workload = WorkloadSpec::new(RequestMix::uniform(1), 5.0, LoadProfile::Constant(users));
        TenantSpec::new(name, app, workload)
    }

    #[test]
    fn two_tenants_share_one_pool() {
        let mut pool = NodePool::new();
        pool.add_node("node", 8, 1.0);
        let tenants = [tenant("t0", 50), tenant("t1", 80)];
        let mut mtc =
            MultiTenantCluster::new(&pool, &tenants, ClusterOptions::new().with_seed(5)).unwrap();
        assert_eq!(mtc.tenant_count(), 2);
        let merged = mtc.run_window(120.0);
        let per = mtc.cluster().tenant_reports(&merged);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].tenant, Some(0));
        assert_eq!(per[1].tenant, Some(1));
        // Per-tenant views are tenant-local slices of the merged report.
        assert_eq!(per[0].feature_counts.len(), 1);
        assert_eq!(
            per[0].feature_counts[0] + per[1].feature_counts[0],
            merged.feature_counts.iter().sum::<u64>()
        );
        assert!((per[0].avg_users + per[1].avg_users - merged.avg_users).abs() < 1e-9);
        // The busier tenant completes more requests.
        assert!(per[1].feature_counts[0] > per[0].feature_counts[0]);
    }

    #[test]
    fn one_tenant_gets_the_single_tenant_run_record() {
        // One service on one ample node: each window has at most one
        // action, so the admitted batches equal `run_experiment`'s.
        let mut app = AppSpec::new();
        let node = app.add_server("node", 16, 1.0);
        let api = app.add_service("api", node, 64, 1, 0.2);
        let ep = app.add_endpoint(api, "op", 0.004, 1.0);
        app.add_feature("op", api, ep);
        let ramp = LoadProfile::Ramp {
            from: 50,
            to: 400,
            start: 0.0,
            duration: 600.0,
        };
        let workload = WorkloadSpec::new(RequestMix::uniform(1), 2.0, ramp);
        let options = ClusterOptions::new().with_seed(11);
        let config = ExperimentConfig {
            windows: 8,
            window_secs: 120.0,
            cluster: options.clone(),
        };
        let mut uv = UvScaler::new(&app);
        let reference = run_experiment(&app, workload.clone(), &mut uv, config).unwrap();

        let mut pool = NodePool::new();
        pool.add_node("node", 16, 1.0);
        let tenants = [TenantSpec::new("t0", app.clone(), workload)];
        let mut mtc = MultiTenantCluster::new(&pool, &tenants, options).unwrap();
        let mut scalers: Vec<Box<dyn Autoscaler>> = vec![Box::new(UvScaler::new(&app))];
        let mut runs = run_multi_tenant(&mut mtc, &mut scalers, 8, 120.0);
        assert_eq!(runs.len(), 1);
        let (mut result, verdicts) = runs.pop().unwrap();
        assert!(!result.actions.is_empty(), "UV must act on the ramp");
        assert_eq!(verdicts.len(), result.actions.len());
        assert!(verdicts.iter().all(|v| *v == AdmissionVerdict::Admitted));
        for report in &mut result.reports {
            assert_eq!(report.tenant, Some(0));
            report.tenant = None;
        }
        assert_eq!(format!("{result:?}"), format!("{reference:?}"));
    }

    #[test]
    fn scale_requests_pass_through_admission() {
        let mut pool = NodePool::new();
        pool.add_node("node", 4, 1.0);
        let tenants = [tenant("t0", 50), tenant("t1", 50)];
        let mut mtc =
            MultiTenantCluster::new(&pool, &tenants, ClusterOptions::new().with_seed(5)).unwrap();
        // 2 of 4 cores committed. Tenant 0 takes the rest...
        let v = mtc.schedule_scaling(
            0,
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 3,
                share: 1.0,
            }],
            10.0,
        );
        assert_eq!(v[0].1, AdmissionVerdict::Admitted);
        // ... so tenant 1's scale-up queues (local id 0 → global 1).
        let v = mtc.schedule_scaling(
            1,
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 2,
                share: 1.0,
            }],
            10.0,
        );
        assert_eq!(v[0].1, AdmissionVerdict::Queued { position: 0 });
        let stats = mtc.admission_stats();
        assert_eq!(stats[0].admitted, 1);
        assert_eq!(stats[1].queued, 1);
        assert_eq!(mtc.committed_cores(0), 4.0);
    }
}
