//! The knowledge base: the mapping between the LQN model and the running
//! microservices (paper §IV-A, "a map between the LQN model and the
//! microservices").

use atom_cluster::{AppSpec, ServiceId};
use atom_lqn::{EntryId, LqnModel, TaskId};

/// Scaling surface of one microservice.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBinding {
    /// Display name (matches both the cluster service and the LQN task).
    pub name: String,
    /// The cluster-side service.
    pub service: ServiceId,
    /// The model-side task.
    pub task: TaskId,
    /// Upper bound on replicas (`Q_i`).
    pub max_replicas: usize,
    /// CPU-share bounds per replica (`s_lb`, `s_ub`).
    pub share_bounds: (f64, f64),
}

/// The controller's knowledge base: LQN template plus mappings.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBinding {
    /// LQN template of the application; the analyzer/optimizer clone and
    /// mutate it per decision round.
    pub model: LqnModel,
    /// The reference (client) task in `model`.
    pub client: TaskId,
    /// Per-service scaling surfaces.
    pub services: Vec<ServiceBinding>,
    /// For each client-visible feature (cluster feature index order): the
    /// model entry the client calls for it.
    pub feature_entries: Vec<EntryId>,
}

impl ModelBinding {
    /// Derives a complete knowledge base from a deployed application's
    /// topology — the paper's §IV-A scenario where no design-time model
    /// exists and "a suitable model may be developed in principle by only
    /// monitoring the communication among the microservices": servers
    /// become processors, services become tasks (with their thread
    /// pools, parallelism, shares and replica bounds), endpoints become
    /// entries, the observed call graph becomes the synchronous calls,
    /// and the client-visible features seed the reference task's request
    /// mix.
    ///
    /// Stateful services are marked vertical-only (`max_replicas = 1`)
    /// with share bounds up to four cores; stateless services keep their
    /// deployment replica bound with shares in `[0.05, 1.0]` (one core —
    /// beyond that, horizontal scaling is the usable axis).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation or `mix` length differs from
    /// the feature count (programming errors in the scenario).
    pub fn from_app_spec(
        spec: &AppSpec,
        population: usize,
        think_time: f64,
        mix: &[f64],
    ) -> ModelBinding {
        spec.validate().expect("app spec must be valid");
        assert_eq!(mix.len(), spec.features.len(), "mix/feature mismatch");
        let mut model = LqnModel::new();
        let processors: Vec<_> = spec
            .servers
            .iter()
            .map(|srv| model.add_processor(&srv.name, srv.cores, srv.speed))
            .collect();
        let mut tasks = Vec::new();
        let mut entry_ids: Vec<Vec<EntryId>> = Vec::new();
        for svc in &spec.services {
            let task = model
                .add_task(
                    &svc.name,
                    processors[svc.server.0],
                    svc.threads,
                    svc.initial_replicas,
                )
                .expect("valid task");
            model
                .set_cpu_share(task, Some(svc.initial_share))
                .expect("valid share");
            model
                .set_parallelism(task, svc.parallelism)
                .expect("valid parallelism");
            let mut ids = Vec::new();
            for ep in &svc.endpoints {
                // Entry names are namespaced by service: LQN entry names
                // are a flat namespace, but endpoint names (e.g. "query")
                // may repeat across services.
                let e = model
                    .add_entry(format!("{}.{}", svc.name, ep.name), task, ep.demand)
                    .expect("valid entry");
                model.set_latency(e, ep.latency).expect("valid latency");
                ids.push(e);
            }
            tasks.push(task);
            entry_ids.push(ids);
        }
        for (si, svc) in spec.services.iter().enumerate() {
            for (ei, ep) in svc.endpoints.iter().enumerate() {
                for call in &ep.calls {
                    model
                        .add_call(
                            entry_ids[si][ei],
                            entry_ids[call.service.0][call.endpoint.0],
                            call.mean,
                        )
                        .expect("valid call");
                }
            }
        }
        let client = model
            .add_reference_task("clients", population, think_time)
            .expect("valid reference task");
        let ce = model.reference_entry(client).expect("reference entry");
        let mut feature_entries = Vec::new();
        for (feature, &frac) in spec.features.iter().zip(mix) {
            let entry = entry_ids[feature.service.0][feature.endpoint.0];
            model.add_call(ce, entry, frac).expect("valid feature call");
            feature_entries.push(entry);
        }
        let services = spec
            .services
            .iter()
            .enumerate()
            .map(|(si, svc)| {
                let (max_replicas, share_bounds) = if svc.stateful {
                    (1, (0.05, 4.0))
                } else {
                    (svc.max_replicas.max(1), (0.05, 1.0))
                };
                ServiceBinding {
                    name: svc.name.clone(),
                    service: ServiceId(si),
                    task: tasks[si],
                    max_replicas,
                    share_bounds,
                }
            })
            .collect();
        let binding = ModelBinding {
            model,
            client,
            services,
            feature_entries,
        };
        binding.assert_consistent();
        binding
    }

    /// Prices the deployment's placement into the model: every
    /// task-to-task call gets `net_delay` set to the network round trip
    /// its caller's and callee's *processors* pay under `delay`'s
    /// topology (co-located pairs price at zero). Calls issued by the
    /// reference task stay free, mirroring the simulated fabric, which
    /// never charges root requests. The mapping is placement-intrinsic —
    /// processor index `i` is server `i` of the topology, which
    /// [`ModelBinding::from_app_spec`] guarantees by construction; a
    /// binding built by hand must list its processors in server order.
    ///
    /// Call this whenever the cluster runs with
    /// [`ClusterOptions::with_topology`] — the LQN then predicts the
    /// same placement-dependent network residence the DES charges, and
    /// the drift audit can score the network term.
    ///
    /// [`ClusterOptions::with_topology`]: atom_cluster::ClusterOptions::with_topology
    ///
    /// # Panics
    ///
    /// Panics if a non-reference task sits on a processor the topology
    /// does not cover (a programming error: the topology was not built
    /// for this deployment's servers).
    pub fn apply_network(&mut self, delay: &atom_net::NetworkDelay) {
        let pricing: Vec<(EntryId, EntryId, f64)> = self
            .model
            .entries()
            .iter()
            .enumerate()
            .flat_map(|(ei, e)| {
                let from_task = &self.model.tasks()[e.task.0];
                if from_task.is_reference() {
                    return Vec::new();
                }
                let from = from_task.processor.0;
                e.calls
                    .iter()
                    .map(|c| {
                        let callee = self.model.entries()[c.target.0].task;
                        let to = self.model.tasks()[callee.0].processor.0;
                        (EntryId(ei), c.target, delay.round_trip(from, to))
                    })
                    .collect()
            })
            .collect();
        for (from, to, rt) in pricing {
            self.model
                .set_call_net_delay(from, to, rt)
                .expect("call was just enumerated from the model");
        }
    }

    /// The binding controlling cluster `service`, if any.
    pub fn by_service(&self, service: ServiceId) -> Option<&ServiceBinding> {
        self.services.iter().find(|s| s.service == service)
    }

    /// The bindings the controller scales, in declaration order (the GA
    /// genome order): every service.
    pub fn scalable(&self) -> impl Iterator<Item = &ServiceBinding> {
        self.services.iter()
    }

    /// Validates internal consistency against the model.
    ///
    /// # Panics
    ///
    /// Panics if a task id is out of range, a feature entry is missing,
    /// or share bounds are inverted — these are programming errors in the
    /// scenario definition, not runtime conditions.
    pub fn assert_consistent(&self) {
        for s in &self.services {
            assert!(
                s.task.0 < self.model.tasks().len(),
                "binding `{}` references unknown task",
                s.name
            );
            assert!(
                s.share_bounds.0 > 0.0 && s.share_bounds.0 <= s.share_bounds.1,
                "binding `{}` has invalid share bounds",
                s.name
            );
            assert!(
                s.max_replicas >= 1,
                "binding `{}` allows no replicas",
                s.name
            );
        }
        for &e in &self.feature_entries {
            assert!(
                e.0 < self.model.entries().len(),
                "feature entry out of range"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding() -> ModelBinding {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", 4, 1.0);
        let t = m.add_task("svc", p, 8, 1).unwrap();
        let e = m.add_entry("op", t, 0.01).unwrap();
        let c = m.add_reference_task("users", 10, 1.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), e, 1.0).unwrap();
        ModelBinding {
            model: m,
            client: c,
            services: vec![ServiceBinding {
                name: "svc".into(),
                service: ServiceId(0),
                task: t,
                max_replicas: 8,
                share_bounds: (0.1, 1.0),
            }],
            feature_entries: vec![e],
        }
    }

    #[test]
    fn lookups_work() {
        let b = binding();
        assert_eq!(b.by_service(ServiceId(0)).unwrap().name, "svc");
        assert!(b.by_service(ServiceId(9)).is_none());
        assert_eq!(b.scalable().count(), 1);
        b.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "share bounds")]
    fn inconsistent_bounds_panic() {
        let mut b = binding();
        b.services[0].share_bounds = (1.0, 0.5);
        b.assert_consistent();
    }

    #[test]
    fn apply_network_prices_cross_server_calls_only() {
        let mut spec = AppSpec::new();
        let a = spec.add_server("a", 4, 1.0);
        let b = spec.add_server("b", 4, 1.0);
        let web = spec.add_service("web", a, 8, 1, 1.0);
        let db = spec.add_service("db", b, 8, 1, 1.0);
        let cache = spec.add_service("cache", a, 8, 1, 1.0);
        let page = spec.add_endpoint(web, "page", 0.002, 1.0);
        let query = spec.add_endpoint(db, "query", 0.004, 1.0);
        let get = spec.add_endpoint(cache, "get", 0.001, 1.0);
        spec.add_call(web, page, db, query, 2.0);
        spec.add_call(web, page, cache, get, 1.0);
        spec.add_feature("page", web, page);

        let mut binding = ModelBinding::from_app_spec(&spec, 10, 1.0, &[1.0]);
        // Servers a and b in different racks: 0.5 ms rack uplinks, 1 ms
        // aggregation, bandwidth high enough that payloads are free.
        let topo = atom_net::TopologySpec::two_tier(
            vec![0, 1],
            atom_net::EdgeSpec::new(0.0005, f64::INFINITY),
            atom_net::EdgeSpec::new(0.001, f64::INFINITY),
        );
        binding.apply_network(&atom_net::NetworkDelay::new(topo));

        let call_delay = |from: &str, to: &str| {
            let f = binding.model.entry_by_name(from).unwrap();
            let t = binding.model.entry_by_name(to).unwrap();
            binding.model.entries()[f.0]
                .calls
                .iter()
                .find(|c| c.target == t)
                .unwrap()
                .net_delay
        };
        // web -> db crosses the aggregation: 2 × (0.5 + 1 + 0.5) ms.
        assert!((call_delay("web.page", "db.query") - 0.004).abs() < 1e-12);
        // web -> cache is co-located: free.
        assert_eq!(call_delay("web.page", "cache.get"), 0.0);
        // The client's feature call stays free.
        let ce = binding.model.reference_entry(binding.client).unwrap();
        assert!(binding.model.entries()[ce.0]
            .calls
            .iter()
            .all(|c| c.net_delay == 0.0));
    }
}
