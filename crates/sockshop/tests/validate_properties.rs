//! `AppSpec::validate` is the only gate between a scenario file and
//! `ModelBinding::from_app_spec`: whatever ids and numbers a corrupted
//! Sock Shop spec carries, `validate` returns (it never panics), and a
//! spec it accepts derives a knowledge base without panicking.

use atom_cluster::{AppSpec, EndpointId, ServerId, ServiceId};
use atom_core::ModelBinding;
use atom_sockshop::SockShop;
use proptest::prelude::*;

const IDS: [usize; 7] = [0, 1, 2, 5, 6, 99, usize::MAX];
const NUMBERS: [f64; 8] = [
    -1.0,
    0.0,
    0.5,
    1e300,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
];

/// Overwrites one id or number of `spec`: `field` picks which kind,
/// `site` where (modulo however many there are), `value` what with.
fn corrupt(spec: &mut AppSpec, field: usize, site: usize, value: usize) {
    let id = IDS[value % IDS.len()];
    let number = NUMBERS[value % NUMBERS.len()];
    let servers = spec.servers.len();
    let features = spec.features.len();
    let service = &mut spec.services[site % 6];
    let endpoints = service.endpoints.len();
    let endpoint = &mut service.endpoints[site / 6 % endpoints];
    let field = field % 17;
    match field {
        0 => spec.servers[site % servers].cores = id,
        1 => spec.servers[site % servers].speed = number,
        2 => service.server = ServerId(id),
        3 => service.threads = id,
        4 => service.initial_replicas = id,
        5 => service.parallelism = Some(id),
        6 => service.initial_share = number,
        7 => service.startup_delay = number,
        8 => service.max_replicas = id,
        9 => endpoint.demand = number,
        10 => endpoint.demand_cv = number,
        11 => endpoint.latency = number,
        12 => spec.features[site % features].service = ServiceId(id),
        13 => spec.features[site % features].endpoint = EndpointId(id),
        // The remaining three corrupt the endpoint's first call, if any.
        _ => match endpoint.calls.first_mut() {
            Some(call) if field == 14 => call.service = ServiceId(id),
            Some(call) if field == 15 => call.endpoint = EndpointId(id),
            Some(call) => call.mean = number,
            None => {}
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_never_panics_and_guards_the_derivation(
        corruptions in proptest::collection::vec((0usize..17, 0usize..1000, 0usize..56), 1..4),
    ) {
        let mut spec = SockShop::default().app_spec();
        for (field, site, value) in corruptions {
            corrupt(&mut spec, field, site, value);
        }
        if spec.validate().is_ok() {
            let binding = ModelBinding::from_app_spec(&spec, 10, 1.0, &[0.5, 0.3, 0.2]);
            prop_assert_eq!(binding.services.len(), 6);
        }
    }
}
