//! The fluid population backend: the think pool as an aggregate
//! per-step arrival process driven by the MVA steady state.
//!
//! Instead of one think timer per user, the population is advanced in
//! [`FluidPool::STEP`]-second steps (aligned with the monitor's
//! sub-interval grid). Each step solves the closed queueing network
//! implied by the *live* fabric state — ready replicas, current shares,
//! server speeds — for the mix-average request class, then synthesises
//! the same monitor counters the per-user DES would have produced:
//! feature/endpoint completions (with fractional carries so long runs
//! lose no mass), response-time sums, busy core-seconds, the in-system
//! gauge, and sub-interval arrival counts.
//!
//! The cost per step is one small MVA solve — independent of the
//! population — which is what makes million-user runs cheap. The price
//! is accuracy around transients; the hybrid policy exists precisely to
//! pay it only in steady state.
//!
//! Approximations (documented, deliberate):
//! * thread-pool limits and cross-service server contention beyond the
//!   share caps are not modelled (the MVA stations see share-capped
//!   replicas only);
//! * MMPP burstiness is ignored by the fluid model — its calibrated
//!   mean matches the nominal rate, so throughput is right but bursts
//!   are flattened (hybrid runs therefore stay per-user under MMPP);
//! * population changes are read from the source's continuous envelope
//!   ([`Population::average_population`]) at step resolution.

use atom_mva::{closed::solve_exact, solve_amva, AmvaOptions, ClassSpec, ClosedNetwork, Station};
use atom_sim::TimeWeighted;
use atom_workload::{Population, WorkloadSpec};

use super::PopCtx;
use crate::accum::WindowAccum;
use crate::spec::AppSpec;

/// Populations up to this size use exact single-class MVA; larger ones
/// use Bard–Schweitzer AMVA (whose cost is population-independent).
const EXACT_MAX_POPULATION: usize = 1024;

/// Live per-service capacity inputs for one fluid step, read off the
/// fabric by the cluster (the pool itself never borrows the fabric).
pub(crate) struct FluidStation {
    pub service: usize,
    pub server: usize,
    /// Ready replicas (at least 1: requests queue rather than vanish).
    pub servers: usize,
    /// Effective per-replica core cap (share bounded by parallelism).
    pub cap: f64,
    /// Server speed multiplier.
    pub speed: f64,
}

pub(crate) struct FluidInputs {
    pub stations: Vec<FluidStation>,
    /// Fraction of the step the monitoring plane was observing.
    pub observed_frac: f64,
}

/// Steady-state rates from one MVA solve, cached so constant-load steps
/// don't re-solve.
#[derive(Clone)]
struct FluidRates {
    /// Client requests per second.
    x: f64,
    /// Mean users in system (requesting, not thinking).
    in_system: f64,
    /// Per-feature response time (seconds).
    feat_resp: Vec<f64>,
    /// Per-service busy core-seconds per second (actual cores occupied).
    svc_busy_rate: Vec<f64>,
}

/// Cache key: population + the capacity configuration that went into
/// the solve (bit-exact comparison; any scale action changes it).
#[derive(Clone, PartialEq)]
struct FluidKey {
    n: usize,
    stations: Vec<(usize, usize, u64)>,
}

#[derive(Clone)]
pub(crate) struct FluidPool {
    /// Population gauge at the last completed step.
    pub population: usize,
    pub users_tw: TimeWeighted,
    /// Simulation time integrated up to.
    pub last_step: f64,
    think: f64,
    // --- static topology (per mix-average request and per feature) ---
    mix: Vec<f64>,
    /// Mix-average demand per service (core-seconds at reference speed).
    d_mix: Vec<f64>,
    /// Mix-average pure-latency (I/O) time per request.
    lat_mix: f64,
    /// Mix-average visits per (service, endpoint).
    visit_mix: Vec<Vec<f64>>,
    /// Per-feature I/O latency.
    feat_latency: Vec<f64>,
    /// Per-feature share of the mix-average demand at each service
    /// (`D_f,s / D_mix,s`; 0 where the mix never visits `s`).
    feat_dshare: Vec<Vec<f64>>,
    // --- synthesis carries (fractions owed to the next step) ---
    feature_carry: Vec<f64>,
    endpoint_carry: Vec<Vec<f64>>,
    arrival_carry: f64,
    cache: Option<(FluidKey, FluidRates)>,
}

impl FluidPool {
    /// Aggregation step (seconds); equal to the monitor sub-interval so
    /// synthesised arrivals land on the peak-rate sampling grid.
    pub(crate) const STEP: f64 = WindowAccum::SUBINTERVAL;

    pub(crate) fn new(spec: &AppSpec, workload: &WorkloadSpec, now: f64) -> Self {
        let nf = spec.features.len();
        let ns = spec.services.len();
        let mix: Vec<f64> = workload.mix.fractions().to_vec();
        let visit_mix = spec.visits_per_request(&mix);

        // Per-feature expansion: visits of a single request of feature f.
        let mut feat_demand = vec![vec![0.0; ns]; nf];
        let mut feat_latency = vec![0.0; nf];
        for f in 0..nf {
            let mut one_hot = vec![0.0; nf];
            one_hot[f] = 1.0;
            let visits = spec.visits_per_request(&one_hot);
            for si in 0..ns {
                for (ei, ep) in spec.services[si].endpoints.iter().enumerate() {
                    feat_demand[f][si] += visits[si][ei] * ep.demand;
                    feat_latency[f] += visits[si][ei] * ep.latency;
                }
            }
        }
        let d_mix: Vec<f64> = (0..ns)
            .map(|si| (0..nf).map(|f| mix[f] * feat_demand[f][si]).sum())
            .collect();
        let lat_mix: f64 = (0..nf).map(|f| mix[f] * feat_latency[f]).sum();
        let feat_dshare: Vec<Vec<f64>> = (0..nf)
            .map(|f| {
                (0..ns)
                    .map(|si| {
                        if d_mix[si] > 0.0 {
                            feat_demand[f][si] / d_mix[si]
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();

        let endpoint_carry = spec
            .services
            .iter()
            .map(|s| vec![0.0; s.endpoints.len()])
            .collect();
        FluidPool {
            population: 0,
            users_tw: TimeWeighted::new(now, 0.0),
            last_step: now,
            think: workload.think_time,
            mix,
            d_mix,
            lat_mix,
            visit_mix,
            feat_latency,
            feat_dshare,
            feature_carry: vec![0.0; nf],
            endpoint_carry,
            arrival_carry: 0.0,
            cache: None,
        }
    }

    /// Restores window continuity when the hybrid policy hands the
    /// population over mid-window.
    pub(crate) fn adopt(&mut self, users_tw: TimeWeighted, population: usize, now: f64) {
        self.users_tw = users_tw;
        self.population = population;
        self.last_step = now;
    }

    fn solve(&mut self, n: usize, stations: &[FluidStation]) -> &FluidRates {
        let key = FluidKey {
            n,
            stations: stations
                .iter()
                .map(|s| (s.service, s.servers, (s.cap * s.speed).to_bits()))
                .collect(),
        };
        let hit = matches!(&self.cache, Some((k, _)) if *k == key);
        if !hit {
            let rates = self.solve_uncached(n, stations);
            self.cache = Some((key, rates));
        }
        &self.cache.as_ref().unwrap().1
    }

    fn solve_uncached(&self, n: usize, stations: &[FluidStation]) -> FluidRates {
        let ns = self.d_mix.len();
        let nf = self.mix.len();
        let zero = || FluidRates {
            x: 0.0,
            in_system: 0.0,
            feat_resp: vec![0.0; nf],
            svc_busy_rate: vec![0.0; ns],
        };
        if n == 0 {
            return zero();
        }
        // Build the closed network: one multi-server PS station per
        // visited service (demand in seconds at that service's rate) and
        // one delay station for the aggregate I/O latency.
        let mut mva_stations = Vec::new();
        let mut station_service = Vec::new();
        for st in stations {
            let d = self.d_mix[st.service];
            if d <= 0.0 {
                continue;
            }
            let rate = (st.cap * st.speed).max(1e-9);
            mva_stations.push(Station::queueing(
                format!("s{}", st.service),
                st.servers.max(1),
                vec![d / rate],
            ));
            station_service.push(st.service);
        }
        if self.lat_mix > 0.0 {
            mva_stations.push(Station::delay("io", vec![self.lat_mix]));
        }
        if mva_stations.is_empty() {
            return zero();
        }
        let classes = vec![ClassSpec::new("users", n, self.think)];
        let solution = ClosedNetwork::new(mva_stations, classes)
            .ok()
            .and_then(|net| {
                if n <= EXACT_MAX_POPULATION {
                    solve_exact(&net).ok()
                } else {
                    solve_amva(&net, AmvaOptions).ok()
                }
            });
        let (x, residence) = match &solution {
            Some(sol) => {
                let res: Vec<f64> = (0..station_service.len())
                    .map(|k| sol.residence[k][0])
                    .collect();
                (sol.throughput[0], res)
            }
            None => {
                // Asymptotic-bounds fallback (also covers AMVA
                // non-convergence): bottleneck-capped throughput,
                // demands as residence floor.
                let d_tot: f64 = stations
                    .iter()
                    .map(|st| self.d_mix[st.service] / (st.cap * st.speed).max(1e-9))
                    .sum();
                let x_cap = stations
                    .iter()
                    .filter(|st| self.d_mix[st.service] > 0.0)
                    .map(|st| {
                        st.servers.max(1) as f64
                            / (self.d_mix[st.service] / (st.cap * st.speed).max(1e-9))
                    })
                    .fold(f64::INFINITY, f64::min);
                let x = (n as f64 / (self.think + d_tot + self.lat_mix)).min(x_cap);
                let res = stations
                    .iter()
                    .filter(|st| self.d_mix[st.service] > 0.0)
                    .map(|st| self.d_mix[st.service] / (st.cap * st.speed).max(1e-9))
                    .collect();
                (x, res)
            }
        };
        // Per-feature response: each feature's time at a station scales
        // with the demand it brings relative to the mix average, plus
        // its own I/O latency (consistent: Σ_f mix_f·R_f = R).
        let mut feat_resp = vec![0.0; nf];
        for (f, resp) in feat_resp.iter_mut().enumerate() {
            let mut r = self.feat_latency[f];
            for (k, &si) in station_service.iter().enumerate() {
                r += residence[k] * self.feat_dshare[f][si];
            }
            *resp = r;
        }
        // Busy cores: X·D/speed actual core-seconds per second, capped
        // by the replicas' aggregate share.
        let mut svc_busy_rate = vec![0.0; ns];
        for st in stations {
            if self.d_mix[st.service] <= 0.0 {
                continue;
            }
            let rate = x * self.d_mix[st.service] / st.speed.max(1e-9);
            svc_busy_rate[st.service] = rate.min(st.servers.max(1) as f64 * st.cap);
        }
        let in_system = (n as f64 - x * self.think).max(0.0);
        FluidRates {
            x,
            in_system,
            feat_resp,
            svc_busy_rate,
        }
    }

    /// Integrates the aggregate population from `last_step` to `t1`,
    /// synthesising monitor counters into `accum`.
    pub(crate) fn integrate(
        &mut self,
        t1: f64,
        inputs: &FluidInputs,
        source: &Population,
        accum: &mut WindowAccum,
    ) {
        let t0 = self.last_step;
        let dt = t1 - t0;
        if dt <= 0.0 {
            return;
        }
        let n_avg = source.average_population(t0, t1);
        // Integrate the population gauge: the previous value covers up
        // to t0, this step's average covers (t0, t1].
        self.users_tw.update(t0, n_avg);
        self.population = source.population_at(t1);
        self.last_step = t1;

        let n = n_avg.round() as usize;
        accum.roll_subinterval(t0);
        if n == 0 {
            let t = t0.max(accum.in_system_tw.last_time());
            accum.in_system_tw.update(t, 0.0);
            accum.in_system = 0;
            return;
        }
        let obs = inputs.observed_frac.clamp(0.0, 1.0);
        // Clone the (small) solved rates out so the carry updates below
        // can borrow `self` mutably.
        let rates = self.solve(n, &inputs.stations).clone();
        let x = rates.x;
        let in_system = rates.in_system;
        let nf = self.mix.len();

        // Observed completions, with fractional carries so a long run
        // of small steps loses no requests to rounding.
        for f in 0..nf {
            let raw = x * self.mix[f] * dt * obs + self.feature_carry[f];
            let add = raw.floor().max(0.0);
            self.feature_carry[f] = raw - add;
            if add > 0.0 {
                accum.feature_counts[f] += add as u64;
                accum.feature_resp_sum[f] += add * rates.feat_resp[f];
            }
        }
        for (si, svc) in self.visit_mix.iter().enumerate() {
            for (ei, &v) in svc.iter().enumerate() {
                if v <= 0.0 {
                    continue;
                }
                let raw = x * v * dt * obs + self.endpoint_carry[si][ei];
                let add = raw.floor().max(0.0);
                self.endpoint_carry[si][ei] = raw - add;
                accum.endpoint_counts[si][ei] += add as u64;
            }
        }
        let raw = x * dt * obs + self.arrival_carry;
        let add = raw.floor().max(0.0);
        self.arrival_carry = raw - add;
        accum.subinterval_arrivals += add as u64;

        // Busy cores are processor state, not scrape counters: they do
        // not go dark with the monitor (matching the per-user backend).
        for st in &inputs.stations {
            let b = rates.svc_busy_rate[st.service] * dt;
            accum.fluid_service_busy[st.service] += b;
            accum.fluid_server_busy[st.server] += b;
        }

        // The in-system gauge: steady-state N − X·Z over this step.
        // Residual discrete requests draining after a hybrid switch may
        // have advanced the gauge past t0; never step the clock backwards.
        let t = t0.max(accum.in_system_tw.last_time());
        accum.in_system_tw.update(t, in_system);
        accum.in_system = in_system.round() as usize;
        accum.peak_in_system = accum.peak_in_system.max(accum.in_system);
    }
}

/// The population-plane entry points (see [`super::Backend`]).
impl FluidPool {
    pub(crate) fn set_population(&mut self, ctx: &mut PopCtx<'_>, population: usize) {
        // The pool is driven by the profile envelope through
        // `integrate`; a discrete change can only seed state up to the
        // current integration point (the initial population). Change
        // events left over from a per-user phase land beyond
        // `last_step` and are ignored — the next step reads the
        // profile directly, and letting them advance the gauge would
        // rewind time under the pending integration step.
        if ctx.engine.now <= self.last_step {
            self.population = population;
            self.users_tw.update(ctx.engine.now, population as f64);
        }
    }

    pub(crate) fn user_live(&self, _user: u32) -> bool {
        // Stale per-user events after a hybrid switch: ignored.
        false
    }

    pub(crate) fn request_complete(&mut self, _ctx: &mut PopCtx<'_>, _user: u32) {
        // Residual per-user requests draining after a hybrid switch
        // complete against the aggregate: nothing to reschedule.
    }

    pub(crate) fn users_at_end(&self) -> usize {
        self.population
    }

    pub(crate) fn window_users(&mut self, end: f64) -> f64 {
        let avg = self.users_tw.average(end);
        self.users_tw.update(end, self.users_tw.current());
        self.users_tw.reset(end);
        avg
    }
}
