//! Knowledge bases for this crate's unit tests, derived from small
//! `AppSpec`s through [`ModelBinding::from_app_spec`] like every binding
//! outside the tests. Task `i` is service `i`, entries are
//! `service.endpoint`; a test that needs other scaling bounds sets them on
//! the result.

use atom_cluster::{AppSpec, EndpointId, ServiceId};

use crate::binding::ModelBinding;

/// One `(cores, speed)` server running `services` — `(name, threads, CPU
/// share, endpoint demands)` — as a chain: every endpoint of the first
/// service is a feature (uniform mix, endpoints named `a`, `b`, …), and
/// the first endpoint of each service calls the next service's once.
/// `users` clients think for `think_time`; every service may scale to 8
/// replicas of 0.1–1.0 cores.
pub(crate) fn chain(
    (cores, speed): (usize, f64),
    services: &[(&str, usize, f64, &[f64])],
    users: usize,
    think_time: f64,
) -> ModelBinding {
    let mut spec = AppSpec::new();
    let server = spec.add_server("p", cores, speed);
    for (i, &(name, threads, share, demands)) in services.iter().enumerate() {
        let service = spec.add_service(name, server, threads, 1, share);
        spec.service_mut(service).max_replicas = 8;
        for (demand, endpoint) in demands.iter().zip('a'..) {
            spec.add_endpoint(service, endpoint.to_string(), *demand, 1.0);
        }
        if i == 0 {
            for e in 0..demands.len() {
                spec.add_feature(format!("f{e}"), service, EndpointId(e));
            }
        } else {
            spec.add_call(ServiceId(i - 1), EndpointId(0), service, EndpointId(0), 1.0);
        }
    }
    let features = spec.features.len();
    let mix = vec![1.0 / features as f64; features];
    let mut binding = ModelBinding::from_app_spec(&spec, users, think_time, &mix);
    for service in &mut binding.services {
        service.share_bounds = (0.1, 1.0);
    }
    binding
}

/// A single `web` service (64 threads, one 10 ms endpoint) at `share` on
/// an 8-core server, `users` clients thinking 2 s.
pub(crate) fn web(share: f64, users: usize) -> ModelBinding {
    chain((8, 1.0), &[("web", 64, share, &[0.01])], users, 2.0)
}

/// `web` (64 threads, half a core, 8 ms) calling `db` (16 threads, one
/// core, 2 ms) once per request on an 8-core server, `users` clients
/// thinking 2 s: the web tier is the bottleneck.
pub(crate) fn web_db(users: usize) -> ModelBinding {
    let services = [("web", 64, 0.5, &[0.008][..]), ("db", 16, 1.0, &[0.002])];
    chain((8, 1.0), &services, users, 2.0)
}
