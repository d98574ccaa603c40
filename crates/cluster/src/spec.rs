//! Static description of a deployed microservices application.

use serde::{Deserialize, Serialize};

use crate::error::ClusterError;

/// Identifier of a server (physical node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServerId(pub usize);

/// Identifier of a microservice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServiceId(pub usize);

/// Identifier of an endpoint within its service (local index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EndpointId(pub usize);

/// A physical node (Table V row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Display name.
    pub name: String,
    /// Online CPU cores.
    pub cores: usize,
    /// Core speed relative to the demand reference (e.g. GHz ratio).
    pub speed: f64,
}

/// A synchronous downstream call made by an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallSpec {
    /// Called service.
    pub service: ServiceId,
    /// Called endpoint (index local to that service).
    pub endpoint: EndpointId,
    /// Mean invocations per execution.
    pub mean: f64,
}

/// An endpoint (feature implementation) of a microservice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointSpec {
    /// Display name.
    pub name: String,
    /// Mean CPU demand per invocation (CPU-seconds at reference speed).
    pub demand: f64,
    /// Coefficient of variation of the demand (1.0 ⇒ exponential).
    pub demand_cv: f64,
    /// Pure delay per invocation consuming no CPU (I/O waits); seconds,
    /// exponentially distributed around this mean.
    pub latency: f64,
    /// Synchronous calls to downstream endpoints.
    pub calls: Vec<CallSpec>,
}

/// A microservice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Display name.
    pub name: String,
    /// Hosting server.
    pub server: ServerId,
    /// Concurrent requests one replica can hold (thread pool / event-loop
    /// connection limit).
    pub threads: usize,
    /// Cores one replica's code can exploit (`None` ⇒ `threads`); the
    /// Sock Shop front-end is `Some(1)`.
    pub parallelism: Option<usize>,
    /// Whether the service is stateful (databases, router). The UH
    /// baseline never scales stateful services horizontally (§V-A).
    pub stateful: bool,
    /// Replicas at deployment time.
    pub initial_replicas: usize,
    /// CPU share per replica at deployment time (cores).
    pub initial_share: f64,
    /// Upper bound on replicas (`Q_i` in §IV-B).
    pub max_replicas: usize,
    /// Delay between a scale-up order and the new replica serving traffic
    /// (container start-up time).
    pub startup_delay: f64,
    /// Endpoints exposed by the service.
    pub endpoints: Vec<EndpointSpec>,
}

/// A client-visible feature: the root endpoint a user request enters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Display name (e.g. "home", "catalogue", "carts").
    pub name: String,
    /// Entry service.
    pub service: ServiceId,
    /// Entry endpoint.
    pub endpoint: EndpointId,
}

/// The whole deployed application.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Physical nodes.
    pub servers: Vec<ServerSpec>,
    /// Microservices.
    pub services: Vec<ServiceSpec>,
    /// Client-visible features (indexed consistently with the request
    /// mix of the workload).
    pub features: Vec<FeatureSpec>,
}

impl AppSpec {
    /// Creates an empty spec.
    pub fn new() -> Self {
        AppSpec::default()
    }

    /// Adds a server.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `speed <= 0`.
    pub fn add_server(&mut self, name: impl Into<String>, cores: usize, speed: f64) -> ServerId {
        assert!(cores > 0, "server needs cores");
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        self.servers.push(ServerSpec {
            name: name.into(),
            cores,
            speed,
        });
        ServerId(self.servers.len() - 1)
    }

    /// Adds a service with sensible defaults (stateless, max 16 replicas,
    /// 2 s start-up). Tune the returned entry via [`AppSpec::service_mut`].
    ///
    /// # Panics
    ///
    /// Panics on a bad server id, zero threads/replicas, or a
    /// non-positive share.
    pub fn add_service(
        &mut self,
        name: impl Into<String>,
        server: ServerId,
        threads: usize,
        initial_replicas: usize,
        initial_share: f64,
    ) -> ServiceId {
        assert!(server.0 < self.servers.len(), "unknown server");
        assert!(threads > 0 && initial_replicas > 0, "need threads/replicas");
        assert!(
            initial_share.is_finite() && initial_share > 0.0,
            "share must be positive"
        );
        self.services.push(ServiceSpec {
            name: name.into(),
            server,
            threads,
            parallelism: None,
            stateful: false,
            initial_replicas,
            initial_share,
            max_replicas: 16,
            startup_delay: 2.0,
            endpoints: Vec::new(),
        });
        ServiceId(self.services.len() - 1)
    }

    /// Adds an endpoint to a service and returns its local id.
    ///
    /// # Panics
    ///
    /// Panics on a bad service id or negative demand/cv.
    pub fn add_endpoint(
        &mut self,
        service: ServiceId,
        name: impl Into<String>,
        demand: f64,
        demand_cv: f64,
    ) -> EndpointId {
        assert!(service.0 < self.services.len(), "unknown service");
        assert!(demand.is_finite() && demand >= 0.0, "bad demand");
        assert!(demand_cv.is_finite() && demand_cv >= 0.0, "bad demand cv");
        let eps = &mut self.services[service.0].endpoints;
        eps.push(EndpointSpec {
            name: name.into(),
            demand,
            demand_cv,
            latency: 0.0,
            calls: Vec::new(),
        });
        EndpointId(eps.len() - 1)
    }

    /// Adds a synchronous call between endpoints.
    ///
    /// # Panics
    ///
    /// Panics on unknown ids or a negative mean.
    pub fn add_call(
        &mut self,
        from_service: ServiceId,
        from_endpoint: EndpointId,
        to_service: ServiceId,
        to_endpoint: EndpointId,
        mean: f64,
    ) {
        assert!(to_service.0 < self.services.len(), "unknown callee service");
        assert!(
            to_endpoint.0 < self.services[to_service.0].endpoints.len(),
            "unknown callee endpoint"
        );
        assert!(mean.is_finite() && mean >= 0.0, "bad call mean");
        self.services[from_service.0].endpoints[from_endpoint.0]
            .calls
            .push(CallSpec {
                service: to_service,
                endpoint: to_endpoint,
                mean,
            });
    }

    /// Sets the pure (non-CPU) latency of an endpoint.
    ///
    /// # Panics
    ///
    /// Panics on unknown ids or a negative latency.
    pub fn set_latency(&mut self, service: ServiceId, endpoint: EndpointId, latency: f64) {
        assert!(service.0 < self.services.len(), "unknown service");
        assert!(latency.is_finite() && latency >= 0.0, "bad latency");
        self.services[service.0].endpoints[endpoint.0].latency = latency;
    }

    /// Registers a client-visible feature.
    ///
    /// # Panics
    ///
    /// Panics on unknown ids.
    pub fn add_feature(
        &mut self,
        name: impl Into<String>,
        service: ServiceId,
        endpoint: EndpointId,
    ) -> usize {
        assert!(service.0 < self.services.len(), "unknown service");
        assert!(
            endpoint.0 < self.services[service.0].endpoints.len(),
            "unknown endpoint"
        );
        self.features.push(FeatureSpec {
            name: name.into(),
            service,
            endpoint,
        });
        self.features.len() - 1
    }

    /// Appends a fully-built service (endpoints, calls and all) and
    /// returns its id. Placement layers use this to merge per-tenant
    /// specs into one cluster-wide spec with re-based ids; the result
    /// still goes through [`AppSpec::validate`] at deployment.
    ///
    /// # Panics
    ///
    /// Panics if the service references an unknown server.
    pub fn push_service(&mut self, svc: ServiceSpec) -> ServiceId {
        assert!(svc.server.0 < self.servers.len(), "unknown server");
        self.services.push(svc);
        ServiceId(self.services.len() - 1)
    }

    /// Appends a fully-built feature and returns its index. Companion of
    /// [`AppSpec::push_service`] for spec merging.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range service/endpoint ids.
    pub fn push_feature(&mut self, f: FeatureSpec) -> usize {
        assert!(f.service.0 < self.services.len(), "unknown service");
        assert!(
            f.endpoint.0 < self.services[f.service.0].endpoints.len(),
            "unknown endpoint"
        );
        self.features.push(f);
        self.features.len() - 1
    }

    /// Mutable access to a service for tuning defaults.
    pub fn service_mut(&mut self, id: ServiceId) -> &mut ServiceSpec {
        &mut self.services[id.0]
    }

    /// Service by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(ServiceId)
    }

    /// Validates the spec: at least one feature, every id in range (a
    /// service's server, a call's and a feature's service and endpoint),
    /// every number in its domain (cores, threads, replicas and
    /// parallelism at least one; speeds and shares positive; demands,
    /// their cv, latencies, start-up delays and call means finite and
    /// non-negative), acyclic call graph. A spec deserialised from outside
    /// the program has been through none of the `add_*` assertions, so
    /// this is the gate everything downstream relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidSpec`] with the reason.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.features.is_empty() {
            return Err(ClusterError::invalid_spec("no client-visible features"));
        }
        let amount = |x: f64| x.is_finite() && x >= 0.0;
        let endpoint_exists = |service: ServiceId, endpoint: EndpointId| {
            (self.services.get(service.0)).is_some_and(|s| endpoint.0 < s.endpoints.len())
        };
        for s in &self.servers {
            if s.cores == 0 || !(amount(s.speed) && s.speed > 0.0) {
                return Err(ClusterError::invalid_spec(format!(
                    "server `{}` needs at least one core and a positive speed",
                    s.name
                )));
            }
        }
        for s in &self.services {
            let name = &s.name;
            if s.server.0 >= self.servers.len() {
                return Err(ClusterError::invalid_spec(format!(
                    "service `{name}` runs on unknown server {}",
                    s.server.0
                )));
            }
            if s.threads == 0 || s.initial_replicas == 0 || s.parallelism == Some(0) {
                return Err(ClusterError::invalid_spec(format!(
                    "service `{name}` needs at least one thread, replica and core of parallelism"
                )));
            }
            if !(amount(s.initial_share) && s.initial_share > 0.0 && amount(s.startup_delay)) {
                return Err(ClusterError::invalid_spec(format!(
                    "service `{name}` needs a positive share and a non-negative start-up delay"
                )));
            }
            for ep in &s.endpoints {
                if !(amount(ep.demand) && amount(ep.demand_cv) && amount(ep.latency)) {
                    return Err(ClusterError::invalid_spec(format!(
                        "endpoint `{name}.{}` has a negative or non-finite demand, cv or latency",
                        ep.name
                    )));
                }
                for c in &ep.calls {
                    if !endpoint_exists(c.service, c.endpoint) {
                        return Err(ClusterError::invalid_spec(format!(
                            "endpoint `{name}.{}` calls unknown endpoint {} of service {}",
                            ep.name, c.endpoint.0, c.service.0
                        )));
                    }
                    if !amount(c.mean) {
                        return Err(ClusterError::invalid_spec(format!(
                            "endpoint `{name}.{}` has a negative or non-finite call mean",
                            ep.name
                        )));
                    }
                }
            }
        }
        for f in &self.features {
            if !endpoint_exists(f.service, f.endpoint) {
                return Err(ClusterError::invalid_spec(format!(
                    "feature `{}` enters at unknown endpoint {} of service {}",
                    f.name, f.endpoint.0, f.service.0
                )));
            }
        }
        // Cycle check (Kahn) over (service, endpoint) nodes, numbered
        // service by service.
        let mut first = Vec::with_capacity(self.services.len());
        let mut n = 0;
        for s in &self.services {
            first.push(n);
            n += s.endpoints.len();
        }
        let callees: Vec<Vec<usize>> = (self.services.iter())
            .flat_map(|s| &s.endpoints)
            .map(|ep| {
                let calls = ep.calls.iter();
                calls.map(|c| first[c.service.0] + c.endpoint.0).collect()
            })
            .collect();
        let mut indeg = vec![0usize; n];
        for &j in callees.iter().flatten() {
            indeg[j] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = stack.pop() {
            seen += 1;
            for &j in &callees[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
        }
        if seen != n {
            return Err(ClusterError::invalid_spec(
                "endpoint call graph contains a cycle",
            ));
        }
        Ok(())
    }

    /// Mean visits per client request to every `(service, endpoint)` for a
    /// given request mix (fractions per feature). Used to compute the
    /// *required* CPU capacity per service for the elasticity metrics.
    ///
    /// # Panics
    ///
    /// Panics if `mix` length differs from the feature count.
    pub(crate) fn visits_per_request(&self, mix: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(mix.len(), self.features.len(), "mix/feature mismatch");
        let mut visits: Vec<Vec<f64>> = self
            .services
            .iter()
            .map(|s| vec![0.0; s.endpoints.len()])
            .collect();
        // Seed with features, then push through the (acyclic) call graph
        // depth-first.
        fn push(spec: &AppSpec, visits: &mut [Vec<f64>], si: usize, ei: usize, amount: f64) {
            visits[si][ei] += amount;
            let calls = spec.services[si].endpoints[ei].calls.clone();
            for c in calls {
                push(spec, visits, c.service.0, c.endpoint.0, amount * c.mean);
            }
        }
        for (f, &frac) in self.features.iter().zip(mix) {
            push(self, &mut visits, f.service.0, f.endpoint.0, frac);
        }
        visits
    }

    /// CPU cores service `i` needs to serve `request_rate` client
    /// requests/second under `mix`: `Σ_endpoints visits × demand / speed`.
    pub fn required_cores(&self, mix: &[f64], request_rate: f64) -> Vec<f64> {
        let visits = self.visits_per_request(mix);
        self.services
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let speed = self.servers[s.server.0].speed;
                s.endpoints
                    .iter()
                    .enumerate()
                    .map(|(ei, ep)| visits[si][ei] * request_rate * ep.demand / speed)
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> AppSpec {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let web = spec.add_service("web", node, 8, 1, 1.0);
        let db = spec.add_service("db", node, 4, 1, 1.0);
        let page = spec.add_endpoint(web, "page", 0.01, 1.0);
        let query = spec.add_endpoint(db, "query", 0.005, 1.0);
        spec.add_call(web, page, db, query, 2.0);
        spec.add_feature("page", web, page);
        spec
    }

    #[test]
    fn validates_ok() {
        two_tier().validate().unwrap();
    }

    #[test]
    fn rejects_no_features() {
        let mut spec = two_tier();
        spec.features.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn rejects_cycles() {
        let mut spec = two_tier();
        let web = spec.service_by_name("web").unwrap();
        let db = spec.service_by_name("db").unwrap();
        spec.add_call(db, EndpointId(0), web, EndpointId(0), 1.0);
        assert!(spec.validate().is_err());
    }

    /// A spec that arrives as JSON has been through none of the `add_*`
    /// assertions: `validate` is what rejects it, with a typed error.
    #[test]
    fn rejects_dangling_ids_and_out_of_domain_numbers() {
        type Corruption = fn(&mut AppSpec);
        let corruptions: [(&str, Corruption); 12] = [
            ("unknown endpoint", |s| {
                s.services[0].endpoints[0].calls[0].service = ServiceId(99)
            }),
            ("unknown endpoint", |s| {
                s.services[0].endpoints[0].calls[0].endpoint = EndpointId(7)
            }),
            ("call mean", |s| {
                s.services[0].endpoints[0].calls[0].mean = f64::NAN
            }),
            ("feature `page`", |s| s.features[0].service = ServiceId(2)),
            ("feature `page`", |s| s.features[0].endpoint = EndpointId(1)),
            ("unknown server", |s| s.services[1].server = ServerId(1)),
            ("demand", |s| s.services[1].endpoints[0].demand = -1.0),
            ("demand", |s| {
                s.services[1].endpoints[0].latency = f64::INFINITY
            }),
            ("positive share", |s| s.services[0].initial_share = 0.0),
            ("at least one thread", |s| s.services[0].threads = 0),
            ("at least one thread", |s| {
                s.services[0].parallelism = Some(0)
            }),
            ("at least one core", |s| s.servers[0].cores = 0),
        ];
        for (expected, corrupt) in corruptions {
            let mut spec = two_tier();
            corrupt(&mut spec);
            let message = spec.validate().unwrap_err().to_string();
            assert!(message.contains(expected), "`{message}` lacks `{expected}`");
        }
    }

    #[test]
    fn visits_follow_call_means() {
        let spec = two_tier();
        let v = spec.visits_per_request(&[1.0]);
        assert_eq!(v[0][0], 1.0);
        assert_eq!(v[1][0], 2.0);
    }

    #[test]
    fn required_cores_scale_with_rate() {
        let spec = two_tier();
        let req = spec.required_cores(&[1.0], 100.0);
        // web: 100 * 0.01 = 1 core; db: 200 * 0.005 = 1 core.
        assert!((req[0] - 1.0).abs() < 1e-12);
        assert!((req[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn required_cores_respect_server_speed() {
        let mut spec = AppSpec::new();
        let slow = spec.add_server("slow", 4, 0.5);
        let svc = spec.add_service("svc", slow, 4, 1, 1.0);
        let ep = spec.add_endpoint(svc, "op", 0.01, 1.0);
        spec.add_feature("op", svc, ep);
        let req = spec.required_cores(&[1.0], 100.0);
        // Demands take twice the core-time on a half-speed server.
        assert!((req[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn service_lookup_and_mutation() {
        let mut spec = two_tier();
        let db = spec.service_by_name("db").unwrap();
        spec.service_mut(db).stateful = true;
        assert!(spec.services[db.0].stateful);
        assert!(spec.service_by_name("nope").is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let spec = two_tier();
        let json = serde_json::to_string(&spec).unwrap();
        let back: AppSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
