#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! The Sock Shop case study: the paper's running example, calibrated so
//! that the reproduction's "measurements" land near the published
//! numbers.
//!
//! Two deployments are modelled: [`SockShop::validation_app_spec`], the
//! §III-C validation subset used for Tables III/IV and Fig. 5, and
//! [`SockShop::app_spec`], the §V evaluation deployment of Table V used
//! for Figs. 7–13.
//!
//! The application is described once — services, endpoints, call graph —
//! and each deployment is a placement table over that description; the
//! LQNs (Fig. 3, [`SockShop::lqn_model`]) and the controller knowledge
//! base ([`SockShop::binding`]) are derived from the resulting `AppSpec`
//! by [`ModelBinding::from_app_spec`]. Demands are CPU-milliseconds at a
//! 1.0-GHz reference; they were calibrated against Table IV (workload 1,
//! N = 3000): e.g. the front-end's measured 387.8 requests/s at 65.9–75.2%
//! of one 1.2 GHz core pins its mean demand near 2.3 ms, and the cart
//! database's 44–48% at 55.6 requests/s pins its query cost near 6.4 ms.
//! Front-end entries carry ~0.55–0.75 s of pure (non-CPU) latency so that
//! the closed-loop response time reproduces the paper's ~388 TPS at
//! N = 3000, Z = 7 s.
//!
//! Feature order everywhere: `0 = home`, `1 = catalogue`, `2 = carts`.
//!
//! # Example
//!
//! ```
//! use atom_sockshop::SockShop;
//! use atom_lqn::analytic::{solve, SolverOptions};
//!
//! let shop = SockShop::default();
//! let model = shop.validation_lqn(3000, 7.0, &[0.57, 0.29, 0.14]);
//! let sol = solve(&model, SolverOptions::default()).unwrap();
//! // Paper Table IV: ~387.8 completed requests/s.
//! assert!((sol.total_throughput() - 388.0).abs() < 30.0);
//! ```

pub mod scenarios;

use atom_cluster::{AppSpec, EndpointId, ServerId, ServiceId};
use atom_core::{ModelBinding, ObjectiveSpec};
use atom_lqn::LqnModel;

/// Names of the six microservices, in the service-id order of the
/// evaluation deployment (the validation subset has ids of its own).
pub(crate) const SERVICE_NAMES: [&str; 6] = [
    "router",
    "front-end",
    "catalogue",
    "carts",
    "catalogue-db",
    "carts-db",
];

/// Index of the router service.
pub const SVC_ROUTER: usize = 0;
/// Index of the front-end service.
pub const SVC_FRONT_END: usize = 1;
/// Index of the catalogue service.
pub const SVC_CATALOGUE: usize = 2;
/// Index of the carts service.
pub const SVC_CARTS: usize = 3;
/// Index of the catalogue database.
pub(crate) const SVC_CATALOGUE_DB: usize = 4;
/// Index of the carts database.
pub(crate) const SVC_CARTS_DB: usize = 5;

/// The calibrated Sock Shop parameters. All demands are CPU-seconds at
/// the 1.0-GHz reference; latencies are seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SockShop {
    /// Router demand per routed request.
    pub d_router: f64,
    /// Front-end demand per `home` request.
    pub d_home: f64,
    /// Front-end demand per `catalogue` request.
    pub d_catalogue: f64,
    /// Front-end demand per `carts` request.
    pub d_carts: f64,
    /// Catalogue-service demand per `list` / `item` call.
    pub d_catalogue_svc: f64,
    /// Carts-service demand per `get` / `add` / `delete` call.
    pub d_carts_svc: f64,
    /// Catalogue-db demand per query.
    pub d_catalogue_db: f64,
    /// Carts-db demand per query.
    pub d_carts_db: f64,
    /// Front-end non-CPU latency per `home` request.
    pub l_home: f64,
    /// Front-end non-CPU latency per `catalogue` request.
    pub l_catalogue: f64,
    /// Front-end non-CPU latency per `carts` request.
    pub l_carts: f64,
    /// Demand coefficient of variation in the cluster simulator.
    pub(crate) demand_cv: f64,
}

impl Default for SockShop {
    fn default() -> Self {
        SockShop {
            d_router: 0.0012,
            d_home: 0.0027,
            d_catalogue: 0.0019,
            d_carts: 0.00155,
            d_catalogue_svc: 0.0011,
            d_carts_svc: 0.0030,
            d_catalogue_db: 0.0009,
            d_carts_db: 0.0064,
            l_home: 0.75,
            l_catalogue: 0.65,
            l_carts: 0.55,
            demand_cv: 1.0,
        }
    }
}

/// One service of a deployment: `(service, server index, CPU share per
/// replica, max replicas, start-up delay)`.
type Placement = (usize, usize, f64, usize, f64);

impl SockShop {
    /// The one description of the Sock Shop (Fig. 1 / Fig. 3): what each
    /// service is, which endpoints it exposes at what cost, and who calls
    /// whom — deployed on `servers` (`(name, cores, speed)`) as
    /// `placements`, in service-id order, says. A service the deployment
    /// leaves out (the validation subset has no router) takes its endpoints
    /// and calls with it; requests enter at the router when there is one
    /// and at the front-end otherwise.
    fn deploy(&self, servers: &[(&str, usize, f64)], placements: &[Placement]) -> AppSpec {
        let mut spec = AppSpec::new();
        for &(name, cores, speed) in servers {
            spec.add_server(name, cores, speed);
        }
        let mut ids: [Option<ServiceId>; 6] = [None; 6];
        for &(svc, server, share, max_replicas, startup_delay) in placements {
            let (threads, parallelism, stateful) = match svc {
                SVC_ROUTER => (512, Some(4), true),
                SVC_FRONT_END => (1024, Some(1), false), // Node.js event loop
                SVC_CATALOGUE | SVC_CARTS => (64, None, false),
                _ => (32, None, true), // the two databases
            };
            let id = spec.add_service(SERVICE_NAMES[svc], ServerId(server), threads, 1, share);
            let service = spec.service_mut(id);
            service.parallelism = parallelism;
            service.stateful = stateful;
            service.max_replicas = max_replicas;
            service.startup_delay = startup_delay;
            ids[svc] = Some(id);
        }
        // Calls (Fig. 1 / Table IV) as (callee, endpoint, mean): the router
        // forwards each feature to the front-end, the catalogue feature
        // fans to list + item, the carts feature spreads uniformly over
        // get / add / delete, and each of those queries its database once.
        let forward = [0, 1, 2].map(|feature| [(SVC_FRONT_END, feature, 1.0)]);
        let list_or_item = [(SVC_CATALOGUE, 0, 0.5), (SVC_CATALOGUE, 1, 0.5)];
        let any_cart_op = [0, 1, 2].map(|op| (SVC_CARTS, op, 1.0 / 3.0));
        let (cat_query, cart_query) = ([(SVC_CATALOGUE_DB, 0, 1.0)], [(SVC_CARTS_DB, 0, 1.0)]);
        // (service, endpoint, demand, latency, calls), callees before
        // callers so that every call finds its target. An endpoint's local
        // id is its position among its service's rows.
        type Calls<'a> = &'a [(usize, usize, f64)];
        #[rustfmt::skip]
        let endpoints: [(usize, &str, f64, f64, Calls); 13] = [
            (SVC_CATALOGUE_DB, "query",           self.d_catalogue_db,  0.0,              &[]),
            (SVC_CARTS_DB,     "query",           self.d_carts_db,      0.0,              &[]),
            (SVC_CATALOGUE,    "list",            self.d_catalogue_svc, 0.0,              &cat_query),
            (SVC_CATALOGUE,    "item",            self.d_catalogue_svc, 0.0,              &cat_query),
            (SVC_CARTS,        "get",             self.d_carts_svc,     0.0,              &cart_query),
            (SVC_CARTS,        "add",             self.d_carts_svc,     0.0,              &cart_query),
            (SVC_CARTS,        "delete",          self.d_carts_svc,     0.0,              &cart_query),
            (SVC_FRONT_END,    "home",            self.d_home,          self.l_home,      &[]),
            (SVC_FRONT_END,    "catalogue",       self.d_catalogue,     self.l_catalogue, &list_or_item),
            (SVC_FRONT_END,    "carts",           self.d_carts,         self.l_carts,     &any_cart_op),
            (SVC_ROUTER,       "route-home",      self.d_router,        0.0,              &forward[0]),
            (SVC_ROUTER,       "route-catalogue", self.d_router,        0.0,              &forward[1]),
            (SVC_ROUTER,       "route-carts",     self.d_router,        0.0,              &forward[2]),
        ];
        for (svc, name, demand, latency, calls) in endpoints {
            let Some(id) = ids[svc] else { continue };
            let endpoint = spec.add_endpoint(id, name, demand, self.demand_cv);
            spec.set_latency(id, endpoint, latency);
            for &(to, to_endpoint, mean) in calls {
                if let Some(to) = ids[to] {
                    spec.add_call(id, endpoint, to, EndpointId(to_endpoint), mean);
                }
            }
        }
        // Feature `i` enters at endpoint `i` of the outermost service.
        if let Some(front) = ids[SVC_ROUTER].or(ids[SVC_FRONT_END]) {
            for (i, name) in ["home", "catalogue", "carts"].into_iter().enumerate() {
                spec.add_feature(name, front, EndpointId(i));
            }
        }
        spec
    }

    /// The §V evaluation deployment: router, front-end and carts-db on the
    /// 4-core 1.2 GHz server of Table V, catalogue service, carts service
    /// and catalogue-db on the 4-core 0.8 GHz one; initial configuration
    /// sized for 500 browsing users. Service ids are the `SVC_*` constants.
    pub fn app_spec(&self) -> AppSpec {
        self.deploy(
            &[("server-1", 4, 1.2), ("server-2", 4, 0.8)],
            &[
                (SVC_ROUTER, 0, 0.15, 1, 2.0),
                (SVC_FRONT_END, 0, 0.2, 8, 4.0),
                (SVC_CATALOGUE, 1, 0.05, 8, 3.0),
                (SVC_CARTS, 1, 0.08, 8, 6.0), // JVM start-up
                (SVC_CATALOGUE_DB, 1, 0.1, 1, 2.0),
                (SVC_CARTS_DB, 0, 0.12, 1, 2.0),
            ],
        )
    }

    /// Same, but with every *stateful* service pre-allocated one full
    /// core — the setup the paper uses when evaluating UH (which cannot
    /// scale stateful services).
    pub fn app_spec_stateful_full_core(&self) -> AppSpec {
        let mut spec = self.app_spec();
        for service in spec.services.iter_mut().filter(|s| s.stateful) {
            service.initial_share = 1.0;
        }
        spec
    }

    /// The evaluation LQN (Fig. 3), the model of [`SockShop::binding`]:
    /// `users` clients at `think_time` issuing the request `mix`
    /// (home/catalogue/carts fractions).
    ///
    /// # Panics
    ///
    /// Panics if `mix` does not have three entries.
    pub fn lqn_model(&self, users: usize, think_time: f64, mix: &[f64]) -> LqnModel {
        self.binding(users, think_time, mix).model
    }

    /// The controller knowledge base for the evaluation deployment:
    /// LQN template + service mappings + scaling bounds, derived from
    /// [`SockShop::app_spec`]. The replica bounds are the spec's; so are
    /// the share bounds, except that this scenario does not let the
    /// vertical-only services (router and the two databases) drop below
    /// a tenth of a core.
    pub fn binding(&self, users: usize, think_time: f64, mix: &[f64]) -> ModelBinding {
        let spec = self.app_spec();
        let mut binding = ModelBinding::from_app_spec(&spec, users, think_time, mix);
        for (service, deployed) in binding.services.iter_mut().zip(&spec.services) {
            if deployed.stateful {
                service.share_bounds.0 = 0.1;
            }
        }
        binding
    }

    /// The paper's objective for the Sock Shop: carts transactions carry
    /// the most business value, a 1.5 s SLA per feature (roughly twice
    /// the unloaded residence — a loose SLA would let the optimizer
    /// accept slightly-saturated equilibria with zero headroom), an 80%
    /// utilisation cap, and the Table V server capacities.
    pub fn objective(&self) -> ObjectiveSpec {
        let servers = self.app_spec().servers;
        ObjectiveSpec {
            feature_weights: vec![1.0, 2.0, 5.0],
            tau_revenue: 1.0,
            tau_cost: 0.25,
            sla_response: vec![1.5, 1.5, 1.5],
            max_utilization: 0.8,
            server_capacity: (0..servers.len())
                .map(|i| (i, servers[i].cores as f64))
                .collect(),
        }
    }

    /// The §III-C validation subset: no router; front-end + carts service
    /// on server 1 (1.2 GHz), catalogue service + both databases on
    /// server 2 (0.8 GHz); one core online per server; `single_host`
    /// collapses everything onto one server (the Docker-compose setup of
    /// workloads 2 and 4).
    pub fn validation_app_spec(&self, single_host: bool) -> AppSpec {
        let servers = [("server-1", 1, 1.2), ("server-2", 1, 0.8)];
        let s2 = usize::from(!single_host);
        // A full core each; never scaled, so the `AppSpec` defaults stand.
        let placements = [
            (SVC_FRONT_END, 0),
            (SVC_CARTS, 0),
            (SVC_CATALOGUE, s2),
            (SVC_CATALOGUE_DB, s2),
            (SVC_CARTS_DB, s2),
        ]
        .map(|(svc, server)| (svc, server, 1.0, 16, 2.0));
        self.deploy(&servers[..=s2], &placements)
    }

    /// The validation LQN matching [`SockShop::validation_app_spec`]
    /// (two-host placement).
    pub fn validation_lqn(&self, users: usize, think_time: f64, mix: &[f64]) -> LqnModel {
        self.validation_lqn_with(users, think_time, mix, false)
    }

    /// The validation LQN; `single_host` collapses both servers into one.
    pub fn validation_lqn_with(
        &self,
        users: usize,
        think_time: f64,
        mix: &[f64],
        single_host: bool,
    ) -> LqnModel {
        let spec = self.validation_app_spec(single_host);
        ModelBinding::from_app_spec(&spec, users, think_time, mix).model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_lqn::analytic::{solve, SolverOptions};

    #[test]
    fn specs_validate() {
        let shop = SockShop::default();
        shop.app_spec().validate().unwrap();
        shop.app_spec_stateful_full_core().validate().unwrap();
        shop.validation_app_spec(false).validate().unwrap();
        shop.validation_app_spec(true).validate().unwrap();
    }

    #[test]
    fn validation_model_reproduces_table_iv_tps() {
        let shop = SockShop::default();
        let model = shop.validation_lqn(3000, 7.0, &[0.57, 0.29, 0.14]);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        // Paper: measured 387.8 req/s, model 414.5; accept the band.
        assert!(
            (sol.total_throughput() - 400.0).abs() < 40.0,
            "TPS {}",
            sol.total_throughput()
        );
    }

    #[test]
    fn validation_model_reproduces_table_iv_utilizations() {
        let shop = SockShop::default();
        let model = shop.validation_lqn(3000, 7.0, &[0.57, 0.29, 0.14]);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let util = |name: &str| sol.task_utilization(model.task_by_name(name).unwrap());
        // Paper Table IV: front-end 65.9–75.2, carts 14.2–16, catalogue
        // 15.4–19.2, catalogue-db 12–12.6, carts-db 44.3–48.2 (percent).
        assert!(
            (0.55..0.85).contains(&util("front-end")),
            "fe {}",
            util("front-end")
        );
        assert!(
            (0.08..0.25).contains(&util("carts")),
            "carts {}",
            util("carts")
        );
        assert!(
            (0.08..0.25).contains(&util("catalogue")),
            "cat {}",
            util("catalogue")
        );
        assert!(
            (0.06..0.20).contains(&util("catalogue-db")),
            "cdb {}",
            util("catalogue-db")
        );
        assert!(
            (0.30..0.60).contains(&util("carts-db")),
            "kdb {}",
            util("carts-db")
        );
    }

    #[test]
    fn evaluation_binding_is_consistent() {
        let shop = SockShop::default();
        let binding = shop.binding(500, 7.0, &[0.63, 0.32, 0.05]);
        binding.assert_consistent();
        assert_eq!(binding.services.len(), 6);
        assert_eq!(binding.feature_entries.len(), 3);
        // Spec service order matches binding order.
        let spec = shop.app_spec();
        for (i, s) in binding.services.iter().enumerate() {
            assert_eq!(s.name, spec.services[i].name);
        }
    }

    #[test]
    fn scaling_bounds_are_the_spec_rule_plus_the_stateful_floor() {
        let binding = SockShop::default().binding(500, 7.0, &[0.63, 0.32, 0.05]);
        let bounds: Vec<_> = binding
            .services
            .iter()
            .map(|s| (s.name.as_str(), s.max_replicas, s.share_bounds))
            .collect();
        assert_eq!(
            bounds,
            [
                ("router", 1, (0.1, 4.0)),
                ("front-end", 8, (0.05, 1.0)),
                ("catalogue", 8, (0.05, 1.0)),
                ("carts", 8, (0.05, 1.0)),
                ("catalogue-db", 1, (0.1, 4.0)),
                ("carts-db", 1, (0.1, 4.0)),
            ]
        );
    }

    #[test]
    fn objective_capacity_is_table_v() {
        assert_eq!(
            SockShop::default().objective().server_capacity,
            [(0, 4.0), (1, 4.0)]
        );
    }

    #[test]
    fn initial_config_handles_500_browsing_users() {
        let shop = SockShop::default();
        let model = shop.lqn_model(500, 7.0, &[0.63, 0.32, 0.05]);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        // Nearly all offered load completes: X ≈ 500 / (7 + R) with
        // modest R.
        assert!(
            sol.total_throughput() > 60.0,
            "X {}",
            sol.total_throughput()
        );
        for (ti, task) in model.tasks().iter().enumerate() {
            if !task.is_reference() {
                assert!(
                    sol.task_utilization[ti] < 0.95,
                    "{} overloaded: {}",
                    task.name,
                    sol.task_utilization[ti]
                );
            }
        }
    }

    #[test]
    fn heavy_ordering_load_saturates_bottlenecks() {
        let shop = SockShop::default();
        // Ordering mix at N = 3000 with the initial 500-user sizing.
        let model = shop.lqn_model(3000, 7.0, &[0.33, 0.17, 0.50]);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let util = |name: &str| sol.task_utilization(model.task_by_name(name).unwrap());
        // The carts chain saturates first at the initial sizing (Fig. 11's
        // layered-bottleneck situation), choking the offered ~428/s down.
        assert!(util("carts") > 0.85, "carts {}", util("carts"));
        // The front-end is throttled by the saturated carts chain, so its
        // own utilisation stays moderate — the starvation effect that
        // hides downstream bottlenecks from rule-based scalers.
        assert!(util("front-end") > 0.3, "front-end {}", util("front-end"));
        assert!(
            sol.total_throughput() < 400.0,
            "X {}",
            sol.total_throughput()
        );
    }

    #[test]
    fn required_cores_match_hand_calculation() {
        let shop = SockShop::default();
        let spec = shop.app_spec();
        let req = spec.required_cores(&[0.33, 0.17, 0.50], 3000.0 / 7.0);
        // carts-db: 0.5 × 428.6 × 6.4 ms / 1.2 ≈ 1.14 cores.
        assert!(
            (req[SVC_CARTS_DB] - 1.14).abs() < 0.05,
            "carts-db {}",
            req[SVC_CARTS_DB]
        );
        // router: 428.6 × 1.2 ms / 1.2 ≈ 0.43.
        assert!(
            (req[SVC_ROUTER] - 0.43).abs() < 0.03,
            "router {}",
            req[SVC_ROUTER]
        );
    }
}
