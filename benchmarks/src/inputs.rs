//! Seed → inputs.
//!
//! The benchmark generates every input here, from `--seed` alone, and
//! hands the program only the generated inputs: application specs,
//! closed-loop workload specs, cluster options, model bindings and
//! controller configurations. The same seed gives the same inputs (the
//! unit tests pin that); the seed reaches the program as the cluster's
//! RNG seed and the span sampler's seed.
//!
//! Load is closed-loop throughout: N users, each issuing its next request
//! an exponential think time (mean Z = 7 s) after the previous reply —
//! the paper's Locust model. A slow system therefore receives less load.

use atom_cluster::{AppSpec, ClusterOptions, EdgeSpec, NetworkDelay, TopologySpec};
use atom_core::workload::{LoadProfile, RequestMix, WorkloadSpec};
use atom_core::{AtomConfig, ModelBinding};
use atom_sockshop::{scenarios, SockShop};

/// Think time of every workload (seconds): the paper's Z.
pub const THINK_TIME: f64 = scenarios::THINK_TIME;

/// splitmix64: derives independent sub-seeds from `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed `stream` of `seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// Inputs of a DES-only workload: constant population, no autoscaler.
#[derive(Debug, Clone, PartialEq)]
pub struct DesInputs {
    /// The application deployed.
    pub spec: AppSpec,
    /// Closed-loop workload (constant N).
    pub workload: WorkloadSpec,
    /// Cluster options carrying the seed.
    pub options: ClusterOptions,
    /// The analytic model of the deployment, for the model-error metric.
    pub binding: ModelBinding,
    /// Monitoring-window length (simulated seconds).
    pub window_secs: f64,
    /// Windows of the untimed warm-up run that set-up makes.
    pub warmup_windows: usize,
    /// Windows per timed repetition (each on a fresh cluster).
    pub rep_windows: usize,
}

/// Users of `des-sockshop`.
pub const SOCKSHOP_USERS: usize = 250;

/// `des-sockshop`: the Sock Shop under the ordering mix at N = 250 —
/// many servers and groups, a handful of jobs in flight in each.
pub fn des_sockshop(seed: u64) -> DesInputs {
    let shop = SockShop::default();
    let mix = scenarios::ordering_mix();
    DesInputs {
        spec: shop.app_spec(),
        binding: shop.binding(SOCKSHOP_USERS, THINK_TIME, mix.fractions()),
        workload: WorkloadSpec::constant(mix, SOCKSHOP_USERS, THINK_TIME),
        options: ClusterOptions::new().with_seed(sub_seed(seed, 1)),
        window_secs: scenarios::WINDOW_SECS,
        // One simulated hour warms up; a repetition is four — inside
        // the 4.66 h a cluster can be run for (see `workloads::Des`).
        warmup_windows: 12,
        rep_windows: 48,
    }
}

/// Per-request CPU demand of the wide app's one endpoint (seconds).
pub const WIDE_DEMAND: f64 = 0.005;
/// Replicas of the wide app's one service.
pub const WIDE_REPLICAS: usize = 4;
/// Utilisation the wide app is sized for.
pub const WIDE_TARGET_UTIL: f64 = 0.65;

/// A one-service app sized so `users` closed-loop users load it to
/// [`WIDE_TARGET_UTIL`]: capacity (cores) = N/Z · D / target, split over
/// [`WIDE_REPLICAS`] replicas. Thread pools are generous, so queueing is
/// CPU queueing.
pub fn wide_spec(users: usize) -> AppSpec {
    let offered = users as f64 / THINK_TIME;
    let capacity = (offered * WIDE_DEMAND / WIDE_TARGET_UTIL).max(0.5);
    let mut spec = AppSpec::new();
    let node = spec.add_server("hub", capacity.ceil() as usize + 2, 1.0);
    let svc = spec.add_service(
        "api",
        node,
        1 << 14,
        WIDE_REPLICAS,
        capacity / WIDE_REPLICAS as f64,
    );
    let ep = spec.add_endpoint(svc, "op", WIDE_DEMAND, 1.0);
    spec.add_feature("op", svc, ep);
    spec.service_mut(svc).max_replicas = 16;
    spec
}

/// The wide app split into a two-service chain across two servers, so
/// every request pays exactly one cross-server round trip (the network
/// overhead pairs run this with and without a topology).
pub fn wide_chain_spec(users: usize) -> AppSpec {
    let offered = users as f64 / THINK_TIME;
    let capacity = (offered * (WIDE_DEMAND / 2.0) / WIDE_TARGET_UTIL).max(0.5);
    let cores = capacity.ceil() as usize + 2;
    let share = capacity / WIDE_REPLICAS as f64;
    let mut spec = AppSpec::new();
    let a = spec.add_server("hub-a", cores, 1.0);
    let b = spec.add_server("hub-b", cores, 1.0);
    let api = spec.add_service("api", a, 1 << 14, WIDE_REPLICAS, share);
    let backend = spec.add_service("backend", b, 1 << 14, WIDE_REPLICAS, share);
    let op = spec.add_endpoint(api, "op", WIDE_DEMAND / 2.0, 1.0);
    let work = spec.add_endpoint(backend, "work", WIDE_DEMAND / 2.0, 1.0);
    spec.add_call(api, op, backend, work, 1.0);
    spec.add_feature("op", api, op);
    spec
}

/// A constant closed-loop population on a one-feature app.
pub fn wide_workload(users: usize) -> WorkloadSpec {
    WorkloadSpec::constant(RequestMix::uniform(1), users, THINK_TIME)
}

/// Users of `des-wide`.
pub const WIDE_USERS: usize = 1_000_000;

/// `des-wide`: the one-service app at N = 1e6 — a million pending think
/// timers and hundreds of jobs in flight per processor group.
pub fn des_wide(seed: u64) -> DesInputs {
    let spec = wide_spec(WIDE_USERS);
    DesInputs {
        binding: ModelBinding::from_app_spec(&spec, WIDE_USERS, THINK_TIME, &[1.0]),
        spec,
        workload: wide_workload(WIDE_USERS),
        options: ClusterOptions::new().with_seed(sub_seed(seed, 2)),
        window_secs: 1.0,
        warmup_windows: 1,
        rep_windows: 2,
    }
}

/// The two-rack fabric of `mapek-ramp`: the Sock Shop's two servers in
/// different racks, 1 ms / 1.25e8 B/s rack uplinks, a 10 ms / 1.25e9 B/s
/// aggregation layer.
pub fn two_rack_topology() -> TopologySpec {
    TopologySpec::two_tier(
        vec![0, 1],
        EdgeSpec::new(0.001, 1.25e8),
        EdgeSpec::new(0.010, 1.25e9),
    )
}

/// Span sampling rate of `mapek-ramp`.
pub const SPAN_RATE: f64 = 0.01;

/// One closed-loop experiment: a workload on the Sock Shop plus the
/// controller's knowledge base and configuration.
#[derive(Debug, Clone)]
pub struct LoopInputs {
    /// Mix name (`browsing` / `shopping` / `ordering`).
    pub mix: &'static str,
    /// The workload (a population ramp).
    pub workload: WorkloadSpec,
    /// Cluster options carrying the seed and the optional layers.
    pub options: ClusterOptions,
    /// The controller's model binding for this mix.
    pub binding: ModelBinding,
    /// The controller's configuration (defaults).
    pub config: AtomConfig,
    /// Monitoring-window length (simulated seconds).
    pub window_secs: f64,
    /// Windows per run.
    pub windows: usize,
}

impl PartialEq for LoopInputs {
    fn eq(&self, other: &Self) -> bool {
        // `AtomConfig` has no `PartialEq`; compare what the benchmark sets.
        self.mix == other.mix
            && self.workload == other.workload
            && self.options == other.options
            && self.binding == other.binding
            && self.config.ga == other.config.ga
            && self.window_secs == other.window_secs
            && self.windows == other.windows
    }
}

/// The controller runs at its defaults, GA seed included: `--seed`
/// varies what the controller *observes* (the cluster's RNG), not the
/// controller. Its search is chaotic in its seed — the same window costs
/// 40 or 300 ms to decide on depending on where the GA wanders — so a
/// seeded controller would swamp every host-time metric with spread that
/// says nothing about the code.
fn atom_config(shop: &SockShop) -> AtomConfig {
    AtomConfig::new(shop.objective())
}

/// `mapek-ramp`: the paper's §V-B protocol — hold 500 users, ramp to
/// 2000 over 25 minutes, hold — for the three Table VI mixes, with 1 %
/// span sampling and the two-rack topology on.
pub fn mapek_ramp(seed: u64) -> Vec<LoopInputs> {
    let shop = SockShop::default();
    let topology = two_rack_topology();
    scenarios::evaluation_mixes()
        .into_iter()
        .enumerate()
        .map(|(i, (mix, fractions))| {
            let stream = 10 + i as u64;
            let mut binding =
                shop.binding(scenarios::INITIAL_USERS, THINK_TIME, fractions.fractions());
            binding.apply_network(&NetworkDelay::new(topology.clone()));
            LoopInputs {
                mix,
                workload: scenarios::evaluation_workload(fractions, 2000),
                options: ClusterOptions::new()
                    .with_seed(sub_seed(seed, stream))
                    .with_span_sampling(SPAN_RATE, sub_seed(seed, stream + 10))
                    .with_topology(topology.clone()),
                binding,
                config: atom_config(&shop),
                window_secs: scenarios::WINDOW_SECS,
                windows: 8,
            }
        })
        .collect()
}

/// Window length the decide sweep records its inputs at (simulated
/// seconds). Shorter than the evaluation's 300 s so that recording stays
/// a small part of set-up; the controller reads rates, not counts.
pub const SWEEP_WINDOW_SECS: f64 = 60.0;

/// Ramp targets of the decide sweep's recording runs.
pub const SWEEP_TARGETS: [usize; 2] = [2000, 3000];

/// `decide-sweep`: what set-up records the controller's inputs from —
/// the three mixes, each ramped from 500 users to each of
/// [`SWEEP_TARGETS`] over five windows and held for three more, with no
/// autoscaler, so the eight windows of a run go from lightly loaded to
/// saturated.
pub fn decide_sweep(seed: u64) -> Vec<LoopInputs> {
    let shop = SockShop::default();
    let mut runs = Vec::new();
    for (mix, fractions) in scenarios::evaluation_mixes() {
        for target in SWEEP_TARGETS {
            let stream = 40 + runs.len() as u64;
            runs.push(LoopInputs {
                mix,
                binding: shop.binding(scenarios::INITIAL_USERS, THINK_TIME, fractions.fractions()),
                workload: WorkloadSpec::new(
                    fractions.clone(),
                    THINK_TIME,
                    LoadProfile::Ramp {
                        from: scenarios::INITIAL_USERS,
                        to: target,
                        start: 0.0,
                        duration: 5.0 * SWEEP_WINDOW_SECS,
                    },
                ),
                options: ClusterOptions::new().with_seed(sub_seed(seed, stream)),
                config: atom_config(&shop),
                window_secs: SWEEP_WINDOW_SECS,
                windows: 8,
            });
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(des_sockshop(7), des_sockshop(7));
        assert_eq!(des_wide(7), des_wide(7));
        assert_eq!(mapek_ramp(7), mapek_ramp(7));
        assert_eq!(decide_sweep(7), decide_sweep(7));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(des_sockshop(7).options, des_sockshop(8).options);
        assert_ne!(des_wide(7).options, des_wide(8).options);
        assert_ne!(mapek_ramp(7)[0].options, mapek_ramp(8)[0].options);
        assert_ne!(decide_sweep(7)[2].options, decide_sweep(8)[2].options);
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let m = mapek_ramp(1);
        assert_ne!(m[0].options.seed, m[1].options.seed);
        assert_ne!(m[0].options.seed, m[0].options.span_seed);
        assert_ne!(des_sockshop(1).options.seed, des_wide(1).options.seed);
    }

    #[test]
    fn the_wide_app_is_sized_for_its_target_utilisation() {
        let spec = wide_spec(WIDE_USERS);
        let svc = &spec.services[0];
        let capacity = svc.initial_share * svc.initial_replicas as f64;
        let offered = WIDE_USERS as f64 / THINK_TIME * WIDE_DEMAND;
        assert!((offered / capacity - WIDE_TARGET_UTIL).abs() < 1e-9);
        assert!(spec.validate().is_ok() && wide_chain_spec(10_000).validate().is_ok());
    }
}
