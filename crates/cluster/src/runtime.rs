//! The live cluster: construction, the event loop, and the hybrid
//! backend policy.
//!
//! The runtime is layered (see [crate] docs):
//!
//! * [`atom_sim::Engine`] — clock, timer-wheel calendar, processor due
//!   index; `crate::event` — the timers it carries;
//! * [`crate::backend`] — the user population (`PerUserDes` or
//!   `FluidPool`, behind the `Backend` enum);
//! * `crate::fabric` — servers, replicas, scaling actuation, faults
//!   (the episodes in progress are `crate::faults::FaultState`);
//! * `crate::request` — request chains through the call graph;
//! * `crate::accum` — window accumulators and report collection.
//!
//! This module owns the [`Cluster`] struct that ties them together, the
//! event dispatch loop, and the hybrid fluid/per-user switching policy.

use atom_sim::processor::PsProcessor;
use atom_sim::{Due, Engine, ProcessorTable, SimRng, TimeWeighted};
use atom_workload::burstiness::Mmpp2;
use atom_workload::WorkloadSpec;

use crate::accum::WindowAccum;
use crate::backend::{Backend, BackendMode, FluidPool, PerUserDes, PopCtx};
use crate::error::ClusterError;
use crate::event::{idx16, idx32, Event};
use crate::fabric::{effective_cap, Fabric, Replica, ReplicaState, ServiceRt};
use crate::faults::{FaultSchedule, FaultState};
use crate::monitor::WindowReport;
use crate::spans::{SampledSpan, SpanLayer};
use crate::spec::{AppSpec, EndpointId, ServiceId};
use crate::telemetry::ClusterTelemetry;

/// Options for constructing a [`Cluster`].
///
/// Non-exhaustive: build with [`ClusterOptions::new`] (or `default()`)
/// and the `with_*` setters, so new knobs — like the fault schedule —
/// can be added without breaking downstream construction sites.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOptions {
    /// RNG seed (everything downstream is deterministic in it).
    pub seed: u64,
    /// Relative (multiplicative, Gaussian) noise on reported CPU
    /// utilisations, mimicking real cAdvisor-style counters; `0`
    /// disables it. The demand-estimation experiment (Fig. 4) uses a few
    /// percent; control experiments default to exact readings.
    pub(crate) monitor_noise: f64,
    /// Injected fault schedule (crashes, outages, monitor dropouts,
    /// actuation failures, slow starts); empty by default. Fault events
    /// enter the cluster's own event calendar, so a faulty run is as
    /// deterministic in the seed as a fault-free one.
    pub(crate) faults: FaultSchedule,
    /// How the user population is simulated: exact per-user DES (the
    /// default), fluid aggregation, or the hybrid of the two. Million-
    /// user runs want [`BackendMode::Fluid`] or [`BackendMode::Hybrid`].
    pub(crate) backend: BackendMode,
    /// Fraction of client requests captured as span trees (0 disables —
    /// the default). The decision is a seeded hash, never a simulation
    /// RNG draw, so sampled and unsampled runs share identical dynamics.
    pub(crate) span_sample_rate: f64,
    /// Seed of the span-sampling hash, independent of the simulation
    /// seed so the sampled subset can be varied without changing a run.
    pub span_seed: u64,
    /// Tail-biased span sampling: additionally keep the slowest root
    /// request completing in each monitoring window, whatever the
    /// sampling rate. Like rate sampling this never draws from the
    /// simulation RNG, so enabling it is observationally inert.
    pub(crate) span_tail: bool,
    /// The network fabric between servers. `None` (the default) keeps
    /// inter-service calls free and the simulation bitwise identical to
    /// pre-topology builds; with a topology, cross-server calls pay
    /// their round trip through the fabric's deterministic link queues.
    pub topology: Option<atom_net::TopologySpec>,
}

impl ClusterOptions {
    /// The default options: seed 1, exact monitor readings, no faults,
    /// per-user backend.
    pub fn new() -> Self {
        ClusterOptions {
            seed: 1,
            monitor_noise: 0.0,
            faults: FaultSchedule::new(),
            backend: BackendMode::PerUser,
            span_sample_rate: 0.0,
            span_seed: 0,
            span_tail: false,
            topology: None,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the relative monitor noise (0 disables).
    #[must_use]
    pub fn with_monitor_noise(mut self, noise: f64) -> Self {
        self.monitor_noise = noise;
        self
    }

    /// Sets the injected fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the population backend mode.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendMode) -> Self {
        self.backend = backend;
        self
    }

    /// Enables span sampling: capture `rate` of client requests as span
    /// trees, with the sampled subset keyed by `seed`.
    #[must_use]
    pub fn with_span_sampling(mut self, rate: f64, seed: u64) -> Self {
        self.span_sample_rate = rate;
        self.span_seed = seed;
        self
    }

    /// Additionally keeps the slowest root request of every monitoring
    /// window as a span tree (tail-biased sampling).
    #[must_use]
    pub fn with_span_tail(mut self, tail: bool) -> Self {
        self.span_tail = tail;
        self
    }

    /// Attaches a network topology: cross-server calls then pay their
    /// round trip through deterministic per-edge link queues, and the
    /// window reports carry per-edge utilisation.
    #[must_use]
    pub fn with_topology(mut self, topology: atom_net::TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions::new()
    }
}

/// A scaling order for one service: the target replica count and
/// per-replica CPU share (absolute, not a delta).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleAction {
    /// Service to scale.
    pub service: ServiceId,
    /// Target number of replicas.
    pub replicas: usize,
    /// Target CPU share per replica (cores).
    pub share: f64,
}

impl std::fmt::Display for ScaleAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "service {} -> {} x {:.2} cores",
            self.service.0, self.replicas, self.share
        )
    }
}

/// How long after the last transient the hybrid policy stays on the
/// per-user backend before handing back to the fluid one (seconds).
const HYBRID_HOLD: f64 = 120.0;

/// Relative population change within one fluid step that the hybrid
/// policy treats as a spike (and drops to per-user for).
const SPIKE_THRESHOLD: f64 = 0.5;

/// The slice of a merged multi-tenant [`AppSpec`] owned by one tenant:
/// `feature_count` features starting at `feature_offset`, and
/// `service_count` services starting at `service_offset`. The layouts of
/// a cluster's tenants must tile the merged spec contiguously and in
/// tenant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLayout {
    /// First merged-spec feature index owned by the tenant.
    pub feature_offset: usize,
    /// Number of consecutive features owned.
    pub feature_count: usize,
    /// First merged-spec service index owned by the tenant.
    pub service_offset: usize,
    /// Number of consecutive services owned.
    pub service_count: usize,
}

impl TenantLayout {
    /// The layout of a tenant that owns the whole spec (the
    /// single-tenant case).
    pub(crate) fn whole(spec: &AppSpec) -> Self {
        TenantLayout {
            feature_offset: 0,
            feature_count: spec.features.len(),
            service_offset: 0,
            service_count: spec.services.len(),
        }
    }

    /// The tenant's feature index range in the merged spec.
    pub(crate) fn features(&self) -> std::ops::Range<usize> {
        self.feature_offset..self.feature_offset + self.feature_count
    }

    /// The tenant's service index range in the merged spec.
    pub(crate) fn services(&self) -> std::ops::Range<usize> {
        self.service_offset..self.service_offset + self.service_count
    }
}

/// One tenant's live state: its population backend, its workload, the
/// slice of the merged spec it owns, and its average users over the
/// most recent window.
#[derive(Clone)]
pub(crate) struct TenantRt {
    pub(crate) backend: Backend,
    pub(crate) workload: WorkloadSpec,
    pub(crate) layout: TenantLayout,
    pub(crate) window_avg_users: f64,
}

/// The running cluster. See the [crate docs](crate).
#[derive(Clone)]
pub struct Cluster {
    pub(crate) spec: AppSpec,
    pub(crate) rng: SimRng,
    pub(crate) engine: Engine<Event>,
    pub(crate) fabric: Fabric,
    /// One entry per tenant, in tenant order. Single-tenant clusters
    /// (the [`Cluster::new`] path) hold exactly one entry whose layout
    /// covers the whole spec; the fluid/hybrid machinery operates on
    /// tenant 0 only (multi-tenant clusters are per-user by contract).
    pub(crate) tenants: Vec<TenantRt>,
    pub(crate) accum: WindowAccum,
    pub(crate) options: ClusterOptions,
    pub(crate) telemetry: ClusterTelemetry,
    /// The sampled span layer (`atom-trace`); inert when the sampling
    /// rate is zero.
    pub(crate) spans: SpanLayer,
    /// The simulated network fabric; `None` without a topology, in
    /// which case no network code runs on the request path.
    pub(crate) net: Option<atom_net::LinkFabric>,
    /// End of the window currently (or most recently) being run — the
    /// horizon up to which population changes must be (re)scheduled when
    /// the hybrid policy switches to the per-user backend mid-window.
    current_window_end: f64,
    /// Hybrid policy: the per-user backend holds until this time.
    transient_until: f64,
    /// Invalidates `FluidStep` events scheduled before a backend switch.
    fluid_gen: u32,
}

impl Cluster {
    /// Deploys `spec` under `workload`.
    ///
    /// # Errors
    ///
    /// Propagates [`AppSpec::validate`] failures and rejects a workload
    /// whose mix length differs from the spec's feature count.
    pub fn new(
        spec: &AppSpec,
        workload: WorkloadSpec,
        options: ClusterOptions,
    ) -> Result<Self, ClusterError> {
        let layout = TenantLayout::whole(spec);
        Cluster::new_multi_tenant(spec, vec![(workload, layout)], options)
    }

    /// Deploys a merged multi-tenant `spec`: one `(workload, layout)`
    /// pair per tenant, in tenant order. The layouts must tile the
    /// merged spec's features and services contiguously. Multi-tenant
    /// clusters run the per-user backend only (the fluid aggregation has
    /// no notion of per-tenant populations).
    ///
    /// # Errors
    ///
    /// Propagates [`AppSpec::validate`] failures; rejects empty tenant
    /// lists, non-tiling layouts, per-tenant mix-length mismatches, and
    /// non-`PerUser` backend modes with more than one tenant.
    pub fn new_multi_tenant(
        spec: &AppSpec,
        tenants: Vec<(WorkloadSpec, TenantLayout)>,
        options: ClusterOptions,
    ) -> Result<Self, ClusterError> {
        spec.validate()?;
        if tenants.is_empty() {
            return Err(ClusterError::invalid_parameter(
                "a cluster needs at least one tenant",
            ));
        }
        // Events name a tenant or a service in 16 bits (`event::idx16`).
        let names = usize::from(u16::MAX) + 1;
        if tenants.len() > names {
            return Err(ClusterError::invalid_parameter(format!(
                "a cluster holds at most {names} tenants, not {}",
                tenants.len()
            )));
        }
        if spec.services.len() > names {
            return Err(ClusterError::invalid_parameter(format!(
                "a cluster runs at most {names} services, not {}",
                spec.services.len()
            )));
        }
        if tenants.len() > 1 && options.backend != BackendMode::PerUser {
            return Err(ClusterError::invalid_parameter(
                "multi-tenant clusters support only the per-user backend",
            ));
        }
        let (mut next_feature, mut next_service) = (0usize, 0usize);
        for (ti, (workload, layout)) in tenants.iter().enumerate() {
            if layout.feature_offset != next_feature || layout.service_offset != next_service {
                return Err(ClusterError::invalid_parameter(format!(
                    "tenant {ti}'s layout does not tile the merged spec contiguously"
                )));
            }
            next_feature += layout.feature_count;
            next_service += layout.service_count;
            if workload.mix.len() != layout.feature_count {
                return Err(ClusterError::invalid_parameter(format!(
                    "tenant {ti}'s workload mix has {} features, its layout owns {}",
                    workload.mix.len(),
                    layout.feature_count
                )));
            }
        }
        if next_feature != spec.features.len() || next_service != spec.services.len() {
            return Err(ClusterError::invalid_parameter(format!(
                "tenant layouts cover {next_feature} features / {next_service} services, \
                 the merged spec has {} / {}",
                spec.features.len(),
                spec.services.len()
            )));
        }
        if let Some(topology) = &options.topology {
            if let Err(why) = topology.validate() {
                return Err(ClusterError::invalid_parameter(format!(
                    "invalid topology: {why}"
                )));
            }
            if topology.server_rack.len() != spec.servers.len() {
                return Err(ClusterError::invalid_parameter(format!(
                    "topology maps {} servers, the spec has {}",
                    topology.server_rack.len(),
                    spec.servers.len()
                )));
            }
        }
        if let Err(why) = options
            .faults
            .validate(spec.services.len(), spec.servers.len())
        {
            return Err(ClusterError::invalid_parameter(why));
        }
        let mut rng = SimRng::seed_from(options.seed);
        let mut processors: Vec<PsProcessor> = spec
            .servers
            .iter()
            .map(|s| PsProcessor::new(s.cores as f64, s.speed))
            .collect();
        let mut services = Vec::new();
        for s in &spec.services {
            // A replica's usable rate is capped by both its share and the
            // CPU parallelism of its code (a single-threaded service
            // cannot exploit a >1-core share — paper §II-B).
            let cap = effective_cap(s.initial_share, s.parallelism);
            let mut replicas = Vec::new();
            for _ in 0..s.initial_replicas {
                replicas.push(Replica {
                    group: processors[s.server.0].add_group(cap),
                    state: ReplicaState::Ready,
                    busy_threads: 0,
                    queue: std::collections::VecDeque::new(),
                });
            }
            let alloc0 = s.initial_replicas as f64 * s.initial_share;
            services.push(ServiceRt {
                server: s.server.0,
                threads: s.threads,
                share: s.initial_share,
                target: s.initial_replicas,
                replicas,
                next_replica: 0,
                alloc: TimeWeighted::new(0.0, alloc0),
                busy_at_window: 0.0,
                up: TimeWeighted::new(0.0, if s.initial_replicas > 0 { 1.0 } else { 0.0 }),
            });
        }
        // MMPP calibration draws the RNG before anything else does — per
        // tenant, in tenant order; preserved verbatim from the monolithic
        // runtime so single-tenant seeds map to identical runs.
        let mut tenant_rts: Vec<TenantRt> = Vec::with_capacity(tenants.len());
        for (ti, (workload, layout)) in tenants.into_iter().enumerate() {
            let mmpp = workload.burstiness.map(|b| {
                let nominal =
                    workload.source.population_at(0.0) as f64 / workload.think_time.max(1e-9);
                Mmpp2::calibrated(nominal.max(1e-9), b, &mut rng)
            });
            // An MMPP-modulated workload has no steady state the fluid
            // model could represent, so hybrid starts (and stays)
            // per-user there.
            let start_fluid = match options.backend {
                BackendMode::PerUser => false,
                BackendMode::Fluid => true,
                BackendMode::Hybrid => workload.burstiness.is_none(),
            };
            let backend = if start_fluid {
                Backend::Fluid(Box::new(FluidPool::new(spec, &workload, 0.0)))
            } else {
                Backend::PerUser(PerUserDes::new(mmpp, idx16(ti)))
            };
            tenant_rts.push(TenantRt {
                backend,
                workload,
                layout,
                window_avg_users: 0.0,
            });
        }
        let start_fluid = matches!(tenant_rts[0].backend, Backend::Fluid(_));
        let np = spec.servers.len();
        let ns = spec.services.len();
        let fabric = Fabric {
            processors: ProcessorTable::new(processors),
            services,
            invocations: Vec::new(),
            free_invs: Vec::new(),
            call_pool: Vec::new(),
            pending_batches: Vec::new(),
            faults: FaultState::new(),
            probe: None,
            probe_samples: Vec::new(),
        };
        let accum = WindowAccum::new(
            spec.features.len(),
            spec.services.iter().map(|s| s.endpoints.len()).collect(),
            np,
            ns,
        );
        let n_tenants = tenant_rts.len();
        let spans = SpanLayer::new(
            options.span_sample_rate,
            options.span_seed,
            ns,
            options.span_tail,
        );
        let net = options.topology.clone().map(atom_net::LinkFabric::new);
        let mut cluster = Cluster {
            spec: spec.clone(),
            rng,
            engine: Engine::new(np),
            fabric,
            tenants: tenant_rts,
            accum,
            options,
            telemetry: ClusterTelemetry::default(),
            spans,
            net,
            current_window_end: 0.0,
            transient_until: 0.0,
            fluid_gen: 0,
        };
        // The whole fault schedule enters the calendar upfront: fault
        // times are absolute, known, and few.
        for (idx, e) in cluster.options.faults.events().iter().enumerate() {
            cluster
                .engine
                .push(e.time, Event::Fault { idx: idx32(idx) });
        }
        if start_fluid {
            cluster
                .engine
                .push(FluidPool::STEP, Event::FluidStep { generation: 0 });
        }
        // Spawn the initial population; future changes are scheduled
        // window by window (an unbounded upfront scan would blow up for
        // long-period or oscillating profiles).
        for ti in 0..n_tenants {
            let initial = cluster.tenants[ti].workload.source.population_at(0.0);
            cluster.backend_set_population(ti, initial);
        }
        Ok(cluster)
    }

    /// Current simulation time (seconds).
    pub fn now(&self) -> f64 {
        self.engine.now
    }

    /// Serving (starting + ready) replica count of a service: the last
    /// scale order it reconciled to. Draining replicas are not counted.
    pub fn replicas(&self, service: ServiceId) -> usize {
        self.fabric.services[service.0].serving_count()
    }

    /// Ready replica count of a service.
    pub fn ready_replicas(&self, service: ServiceId) -> usize {
        self.fabric.services[service.0].ready_count()
    }

    /// Current per-replica CPU share of a service.
    pub fn share(&self, service: ServiceId) -> f64 {
        self.fabric.services[service.0].share
    }

    /// Records `(queue length at arrival, response time)` samples for one
    /// endpoint; collect them with [`Cluster::take_probe_samples`].
    pub fn set_probe(&mut self, service: ServiceId, endpoint: EndpointId) {
        self.fabric.probe = Some((service.0, endpoint.0));
        self.fabric.probe_samples.clear();
    }

    /// Drains collected probe samples.
    pub fn take_probe_samples(&mut self) -> Vec<(f64, f64)> {
        std::mem::take(&mut self.fabric.probe_samples)
    }

    /// Arms a one-shot request trace: the next client request (of the
    /// given feature, or any feature when `None`) is captured with a span
    /// per service hop, whatever rate
    /// [`ClusterOptions::with_span_sampling`] set — and without touching
    /// span statistics or telemetry. Collect it with
    /// [`Cluster::take_trace`].
    pub fn arm_trace(&mut self, feature: Option<usize>) {
        self.spans.arm(feature);
    }

    /// The armed request's spans once it completed, parents before
    /// children (the root, with the request's feature, first).
    pub fn take_trace(&mut self) -> Option<Vec<SampledSpan>> {
        self.spans.take_forced()
    }

    /// Drains the completed sampled spans accumulated since the last
    /// drain (empty unless span sampling is enabled). Spans of one
    /// request are contiguous, parents before children.
    pub fn take_spans(&mut self) -> Vec<SampledSpan> {
        self.spans.take_completed()
    }

    /// Schedules a batch of scaling actions to be applied `delay` seconds
    /// from now (an autoscaler's actuation latency, e.g. ATOM's 2.5 min
    /// optimization-plus-planning delay).
    pub fn schedule_scaling(&mut self, actions: Vec<ScaleAction>, delay: f64) {
        let batches = &mut self.fabric.pending_batches;
        let batch = batches
            .iter()
            .position(Option::is_none)
            .unwrap_or(batches.len());
        if batch == batches.len() {
            batches.push(None);
        }
        batches[batch] = Some((self.engine.now, actions));
        self.engine.push(
            self.engine.now + delay.max(0.0),
            Event::ApplyScaling {
                batch: idx32(batch),
            },
        );
    }

    /// Telemetry accumulated since construction (DES event counts,
    /// issue-to-ready scale latencies, backend switches). Observational
    /// only: reading or ignoring it never changes a run.
    pub fn telemetry(&self) -> &ClusterTelemetry {
        &self.telemetry
    }

    /// Runs the simulation for `duration` seconds and reports the window.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn run_window(&mut self, duration: f64) -> WindowReport {
        assert!(duration > 0.0, "window duration must be positive");
        let end = self.engine.now + duration;
        self.current_window_end = end;
        // Schedule this window's population changes lazily — but only
        // for the per-user backend: the fluid one reads the profile's
        // continuous envelope directly, and a million-user ramp expanded
        // into discrete change points would defeat the aggregation.
        let now = self.engine.now;
        for ti in 0..self.tenants.len() {
            if matches!(self.tenants[ti].backend, Backend::PerUser(_)) {
                self.schedule_population_changes(ti, now, end);
            }
        }
        // A source that classifies its own burst onsets (trace replay)
        // schedules them as explicit hints; the hybrid policy then skips
        // its sampled step-boundary jump check, which would otherwise
        // read a busy trace's routine bin-to-bin steps as wall-to-wall
        // spikes and pin the run in per-user mode.
        if self.options.backend == BackendMode::Hybrid {
            let hints = self.tenants[0]
                .workload
                .source
                .spike_points(now, end, SPIKE_THRESHOLD);
            for t in hints.unwrap_or_default() {
                self.engine.push(t, Event::SpikeHint);
            }
        }
        while let Some((t, due)) = self.engine.pop_due(end) {
            self.engine.now = t.max(self.engine.now);
            match due {
                Due::Timer(ev) => self.dispatch(ev),
                Due::Completion { proc } => {
                    self.telemetry.processor_check_events += 1;
                    while let Some(inv) =
                        self.fabric.processors.pop_finished(&mut self.engine, proc)
                    {
                        self.demand_done(inv);
                    }
                }
            }
        }
        self.engine.now = end;
        // The fluid backend integrates the partial tail step so the
        // report covers exactly [start, end]. The tail runs the same
        // spike check as a regular step: a population jump landing
        // exactly on a window boundary must not slip past the hybrid
        // policy.
        self.fluid_advance(end);
        self.collect_window(end)
    }

    // ------------------------------------------------------------------
    // event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::UserReady { tenant, user } => {
                self.telemetry.user_ready_events += 1;
                self.user_ready(tenant, user);
            }
            Event::PopulationChange { tenant, population } => {
                self.telemetry.population_change_events += 1;
                self.backend_set_population(usize::from(tenant), population as usize);
            }
            Event::ReplicaReady { service, replica } => {
                self.telemetry.replica_ready_events += 1;
                self.replica_ready(usize::from(service), replica as usize);
            }
            Event::ApplyScaling { batch } => {
                self.telemetry.apply_scaling_events += 1;
                // A capacity change invalidates the fluid steady state
                // while queues re-equilibrate.
                if self.apply_scaling(batch as usize) {
                    self.note_transient();
                }
            }
            Event::LatencyDone { inv } => {
                self.telemetry.latency_done_events += 1;
                self.proceed_to_calls(inv as usize);
            }
            Event::NetTransit { caller } => {
                self.telemetry.net_transit_events += 1;
                self.transit_done(caller as usize);
            }
            Event::Fault { idx } => {
                self.telemetry.fault_events += 1;
                self.apply_fault(idx as usize);
                self.note_transient();
            }
            Event::FluidStep { generation } => {
                self.telemetry.fluid_step_events += 1;
                if generation != self.fluid_gen {
                    return; // scheduled before a backend switch
                }
                self.fluid_advance(self.engine.now);
                if matches!(self.tenants[0].backend, Backend::Fluid(_)) {
                    self.engine.push(
                        self.engine.now + FluidPool::STEP,
                        Event::FluidStep {
                            generation: self.fluid_gen,
                        },
                    );
                }
            }
            Event::SpikeHint => {
                self.telemetry.spike_hint_events += 1;
                self.note_transient();
            }
            Event::BackendCheck => {
                self.telemetry.backend_check_events += 1;
                if self.options.backend == BackendMode::Hybrid
                    && self.engine.now + 1e-9 >= self.transient_until
                    && matches!(self.tenants[0].backend, Backend::PerUser(_))
                    && self.tenants[0].workload.burstiness.is_none()
                {
                    self.switch_to_fluid();
                }
            }
        }
    }

    /// Puts tenant `ti`'s population change points in `[t0, t1]` on the
    /// calendar, for its per-user backend.
    fn schedule_population_changes(&mut self, ti: usize, t0: f64, t1: f64) {
        for (t, population) in self.tenants[ti].workload.source.change_points(t0, t1) {
            self.engine.push(
                t,
                Event::PopulationChange {
                    tenant: idx16(ti),
                    population: idx32(population),
                },
            );
        }
    }

    /// Routes a population change through one tenant's live backend.
    fn backend_set_population(&mut self, tenant: usize, population: usize) {
        let TenantRt {
            backend, workload, ..
        } = &mut self.tenants[tenant];
        let mut ctx = PopCtx {
            engine: &mut self.engine,
            rng: &mut self.rng,
            workload,
        };
        backend.set_population(&mut ctx, population);
    }

    // ------------------------------------------------------------------
    // hybrid switching policy
    // ------------------------------------------------------------------

    /// Marks a transient (scale actuation, fault, population spike): in
    /// hybrid mode the cluster runs per-user from now until the hold
    /// expires, then a `BackendCheck` considers handing back to fluid.
    fn note_transient(&mut self) {
        if self.options.backend != BackendMode::Hybrid {
            return;
        }
        self.transient_until = self.engine.now + HYBRID_HOLD;
        if matches!(self.tenants[0].backend, Backend::Fluid(_)) {
            self.switch_to_per_user();
        }
        self.engine.push(self.transient_until, Event::BackendCheck);
    }

    /// Fluid → per-user handover: integrate the fluid state up to now,
    /// then materialise discrete users at the profile's current
    /// population. In-flight request chains are unaffected (there are
    /// none from the fluid side; residual ones from an earlier per-user
    /// phase keep draining).
    fn switch_to_per_user(&mut self) {
        let now = self.engine.now;
        self.fluid_step_to(now);
        let users_tw = match &self.tenants[0].backend {
            Backend::Fluid(p) => p.users_tw,
            Backend::PerUser(_) => return,
        };
        // Invalidate pending FluidStep events for the retired pool.
        self.fluid_gen += 1;
        let mut per = PerUserDes::new(None, 0);
        per.adopt(users_tw);
        self.tenants[0].backend = Backend::PerUser(per);
        self.telemetry.backend_switches += 1;
        self.accum.window_switches += 1;
        // The fluid model kept an analytic in-system estimate; discrete
        // accounting restarts from the live root invocations (none right
        // after a pure-fluid phase).
        let live_roots = self
            .fabric
            .invocations
            .iter()
            .flatten()
            .filter(|i| i.root.is_some())
            .count();
        self.accum.in_system = live_roots;
        self.accum.in_system_tw.update(now, live_roots as f64);
        self.accum.peak_in_system = self.accum.peak_in_system.max(live_roots);
        let pop = self.tenants[0].workload.source.population_at(now);
        self.backend_set_population(0, pop);
        // The per-user backend needs the rest of this window's discrete
        // change points (the fluid one read the source directly).
        self.schedule_population_changes(0, now, self.current_window_end);
    }

    /// Per-user → fluid handover: the discrete users evaporate into the
    /// aggregate. Their pending `UserReady` events stay in the calendar
    /// but die against `user_live` = false; in-flight request chains
    /// drain normally and their completions are no-ops on the pool.
    fn switch_to_fluid(&mut self) {
        let now = self.engine.now;
        let (users_tw, population) = match &self.tenants[0].backend {
            Backend::PerUser(p) => (p.users_tw(), p.users_at_end()),
            Backend::Fluid(_) => return,
        };
        self.fluid_gen += 1;
        let mut pool = FluidPool::new(&self.spec, &self.tenants[0].workload, now);
        pool.adopt(users_tw, population, now);
        self.tenants[0].backend = Backend::Fluid(Box::new(pool));
        self.telemetry.backend_switches += 1;
        self.accum.window_switches += 1;
        // First step on the next aggregation-grid point strictly ahead.
        let next = (now / FluidPool::STEP).floor() * FluidPool::STEP + FluidPool::STEP;
        self.engine.push(
            next,
            Event::FluidStep {
                generation: self.fluid_gen,
            },
        );
    }

    /// Advances the fluid integration to `t1` and, in hybrid mode for a
    /// source that gives no spike hints, treats a relative population
    /// jump of [`SPIKE_THRESHOLD`] or more across the step as a
    /// transient (switching to the per-user backend). No-op on the
    /// per-user backend.
    fn fluid_advance(&mut self, t1: f64) {
        let (t0, prev_pop) = match &self.tenants[0].backend {
            Backend::Fluid(p) => (p.last_step, p.population),
            Backend::PerUser(_) => return,
        };
        self.fluid_step_to(t1);
        if self.options.backend == BackendMode::Hybrid
            && self.tenants[0]
                .workload
                .source
                .spike_points(t0, t1, SPIKE_THRESHOLD)
                .is_none()
        {
            if let Backend::Fluid(p) = &self.tenants[0].backend {
                let jump = (p.population as f64 - prev_pop as f64).abs() / prev_pop.max(1) as f64;
                if jump >= SPIKE_THRESHOLD {
                    self.note_transient();
                }
            }
        }
    }

    /// Advances the fluid pool's integration to `t1` (no-op on the
    /// per-user backend or for a zero-length step).
    fn fluid_step_to(&mut self, t1: f64) {
        let last = match &self.tenants[0].backend {
            Backend::Fluid(p) => p.last_step,
            Backend::PerUser(_) => return,
        };
        if t1 <= last {
            return;
        }
        let inputs = self.fluid_inputs(last, t1);
        let TenantRt {
            backend, workload, ..
        } = &mut self.tenants[0];
        if let Backend::Fluid(pool) = backend {
            pool.integrate(t1, &inputs, &workload.source, &mut self.accum);
        }
    }

    /// Reads the live capacity configuration off the fabric for one
    /// fluid step over `[t0, t1]`.
    fn fluid_inputs(&self, t0: f64, t1: f64) -> crate::backend::fluid::FluidInputs {
        let stations = self
            .fabric
            .services
            .iter()
            .enumerate()
            .map(|(si, s)| crate::backend::fluid::FluidStation {
                service: si,
                server: s.server,
                servers: s.ready_count().max(1),
                cap: effective_cap(s.share, self.spec.services[si].parallelism),
                speed: self.spec.servers[s.server].speed,
            })
            .collect();
        let span = (t1 - t0).max(1e-12);
        let dark = self.fabric.faults.dark_seconds(t0, t1);
        crate::backend::fluid::FluidInputs {
            stations,
            observed_frac: (1.0 - dark / span).clamp(0.0, 1.0),
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.engine.now)
            .field("services", &self.fabric.services.len())
            .field(
                "users",
                &self
                    .tenants
                    .iter()
                    .map(|t| t.backend.users_at_end())
                    .sum::<usize>(),
            )
            .field("backend", &self.tenants[0].backend.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::faults::FaultKind;
    use atom_workload::{LoadProfile, RequestMix};

    fn one_service_spec(demand: f64, share: f64, threads: usize) -> AppSpec {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let svc = spec.add_service("api", node, threads, 1, share);
        let ep = spec.add_endpoint(svc, "op", demand, 1.0);
        spec.add_feature("op", svc, ep);
        spec
    }

    fn constant_workload(users: usize, z: f64) -> WorkloadSpec {
        WorkloadSpec::constant(RequestMix::uniform(1), users, z)
    }

    #[test]
    fn throughput_matches_mva_reference() {
        // 20 users, Z=1, D=0.05, ample threads: X ≈ exact M/M/1//N value.
        let spec = one_service_spec(0.05, 1.0, 64);
        let mut cluster =
            Cluster::new(&spec, constant_workload(20, 1.0), ClusterOptions::default()).unwrap();
        cluster.run_window(200.0); // warm-up
        let r = cluster.run_window(2000.0);
        let exact = {
            use atom_mva::{closed::solve_exact, ClassSpec, ClosedNetwork, Station};
            let net = ClosedNetwork::new(
                vec![Station::queueing("s", 1, vec![0.05])],
                vec![ClassSpec::new("c", 20, 1.0)],
            )
            .unwrap();
            solve_exact(&net).unwrap().throughput[0]
        };
        let rel = (r.total_tps - exact).abs() / exact;
        assert!(rel < 0.05, "sim {} vs exact {exact}", r.total_tps);
    }

    #[test]
    fn a_fired_scaling_batch_frees_its_slot() {
        let spec = one_service_spec(0.05, 1.0, 8);
        let mut cluster =
            Cluster::new(&spec, constant_workload(5, 1.0), ClusterOptions::default()).unwrap();
        let (mut scheduled, mut peak) = (0, 0);
        for window in 0..200 {
            // Delays of 0.5 s to 3.5 s against 1 s windows: up to three
            // batches are in flight at once, and they fire out of the
            // order their slots were taken.
            let actions = vec![ScaleAction {
                service: ServiceId(0),
                replicas: 1 + window % 2,
                share: 1.0,
            }];
            cluster.schedule_scaling(actions, 0.5 + (window % 4) as f64);
            scheduled += 1;
            peak = peak.max(scheduled - cluster.telemetry().apply_scaling_events);
            assert!(
                cluster.fabric.pending_batches.len() as u64 <= peak,
                "window {window}: {} batches stored, at most {peak} were in flight",
                cluster.fabric.pending_batches.len()
            );
            cluster.run_window(1.0);
        }
        assert_eq!(peak, 3);
    }

    #[test]
    fn telemetry_counts_events_and_scale_latency() {
        let spec = one_service_spec(0.01, 0.2, 64);
        let mut cluster =
            Cluster::new(&spec, constant_workload(50, 1.0), ClusterOptions::default()).unwrap();
        cluster.run_window(100.0);
        let after_warmup = cluster.telemetry().clone();
        assert!(after_warmup.user_ready_events > 0, "users must have cycled");
        assert!(after_warmup.total_events() > after_warmup.user_ready_events);
        assert!(after_warmup.scale_latencies.is_empty());

        // A scale-up issued with 5 s actuation delay: each new replica's
        // latency sample is delay + its start-up time.
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 3,
                share: 0.2,
            }],
            5.0,
        );
        cluster.run_window(100.0);
        let t = cluster.telemetry();
        assert_eq!(t.scale_latencies.len(), 2, "two new replicas spawned");
        let startup = spec.services[0].startup_delay;
        for &lat in &t.scale_latencies {
            assert!(
                (lat - (5.0 + startup)).abs() < 1e-9,
                "latency {lat} != delay 5 + startup {startup}"
            );
        }
        assert!(t.scale_latency_stats().unwrap().mean > 5.0);
        assert_eq!(t.dropped_batches, 0);
    }

    #[test]
    fn share_cap_limits_capacity() {
        let spec = one_service_spec(0.01, 0.2, 64);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(500, 1.0),
            ClusterOptions::default(),
        )
        .unwrap();
        cluster.run_window(100.0);
        let r = cluster.run_window(500.0);
        // Capacity = 0.2/0.01 = 20/s.
        assert!(r.total_tps < 21.0, "tps {}", r.total_tps);
        assert!(r.total_tps > 18.0, "tps {}", r.total_tps);
        let svc = ServiceId(0);
        assert!(r.service_utilization[svc.0] > 0.9);
    }

    #[test]
    fn horizontal_scale_up_increases_capacity() {
        let spec = one_service_spec(0.01, 0.2, 64);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(500, 1.0),
            ClusterOptions::default(),
        )
        .unwrap();
        cluster.run_window(200.0);
        let before = cluster.run_window(300.0);
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 4,
                share: 0.2,
            }],
            0.0,
        );
        cluster.run_window(60.0); // let startup + transient pass
        let after = cluster.run_window(300.0);
        assert!(
            after.total_tps > 2.5 * before.total_tps,
            "before {} after {}",
            before.total_tps,
            after.total_tps
        );
        assert_eq!(cluster.ready_replicas(ServiceId(0)), 4);
        assert_eq!(after.service_replicas[0], 4);
    }

    #[test]
    fn vertical_scale_up_increases_capacity() {
        let spec = one_service_spec(0.01, 0.2, 64);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(500, 1.0),
            ClusterOptions::default(),
        )
        .unwrap();
        cluster.run_window(200.0);
        let before = cluster.run_window(300.0);
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 1,
                share: 0.8,
            }],
            0.0,
        );
        cluster.run_window(30.0);
        let after = cluster.run_window(300.0);
        assert!(
            after.total_tps > 3.0 * before.total_tps,
            "before {} after {}",
            before.total_tps,
            after.total_tps
        );
        assert!((cluster.share(ServiceId(0)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn scale_down_drains_gracefully() {
        let spec = one_service_spec(0.01, 0.5, 16);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(100, 1.0),
            ClusterOptions::default(),
        )
        .unwrap();
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 3,
                share: 0.5,
            }],
            0.0,
        );
        cluster.run_window(100.0);
        assert_eq!(cluster.ready_replicas(ServiceId(0)), 3);
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 1,
                share: 0.5,
            }],
            0.0,
        );
        cluster.run_window(100.0);
        assert_eq!(cluster.ready_replicas(ServiceId(0)), 1);
        // The cluster keeps serving.
        let r = cluster.run_window(100.0);
        assert!(r.total_tps > 0.0);
    }

    /// One single-threaded service with two replicas at half a core,
    /// saturated (100 users, Z = 1 s, D = 50 ms), so a replica ordered
    /// away drains for a while; `faults` as given.
    fn draining_cluster(faults: FaultSchedule) -> Cluster {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let svc = spec.add_service("api", node, 1, 2, 0.5);
        let ep = spec.add_endpoint(svc, "op", 0.05, 1.0);
        spec.add_feature("op", svc, ep);
        Cluster::new(
            &spec,
            constant_workload(100, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap()
    }

    fn order(replicas: usize) -> Vec<ScaleAction> {
        vec![ScaleAction {
            service: ServiceId(0),
            replicas,
            share: 0.5,
        }]
    }

    #[test]
    fn a_scale_up_during_a_drain_starts_a_new_replica() {
        let mut cluster = draining_cluster(FaultSchedule::new());
        cluster.schedule_scaling(order(1), 10.0);
        cluster.schedule_scaling(order(2), 11.0);
        cluster.run_window(11.5);
        // A new replica is starting; the drainer is not revived.
        assert_eq!(cluster.replicas(ServiceId(0)), 2);
        assert_eq!(cluster.ready_replicas(ServiceId(0)), 1);
        let r = cluster.run_window(200.5);
        assert_eq!(r.service_replicas, vec![2]);
        assert_eq!(r.service_ready_replicas, vec![2]);
    }

    #[test]
    fn an_outage_replaces_only_the_serving_replicas() {
        let outage = FaultSchedule::new().at(
            10.5,
            FaultKind::ServerOutage {
                server: 0,
                duration: 5.0,
            },
        );
        let mut cluster = draining_cluster(outage);
        cluster.schedule_scaling(order(1), 10.0);
        let r = cluster.run_window(211.0);
        assert_eq!(r.service_replicas, vec![1]);
        assert_eq!(r.service_ready_replicas, vec![1]);
    }

    #[test]
    fn a_scale_order_sent_to_a_fork_leaves_the_original_untouched() {
        let spec = one_service_spec(0.01, 0.5, 16);
        let mut original =
            Cluster::new(&spec, constant_workload(50, 1.0), ClusterOptions::default()).unwrap();
        original.run_window(30.0);
        let mut fork = original.clone();
        let mut reference = original.clone();
        fork.schedule_scaling(order(3), 0.0);
        let forked = fork.run_window(30.0);
        assert_eq!(forked.service_replicas, vec![3]);
        let r = original.run_window(30.0);
        assert_eq!(r.service_replicas, vec![1]);
        assert_ne!(r, forked);
        assert_eq!(r, reference.run_window(30.0));
        assert_eq!(original.telemetry(), reference.telemetry());
    }

    #[test]
    fn ramp_profile_grows_population() {
        let spec = one_service_spec(0.001, 4.0, 64);
        let workload = WorkloadSpec::new(
            RequestMix::uniform(1),
            1.0,
            LoadProfile::Ramp {
                from: 10,
                to: 100,
                start: 0.0,
                duration: 100.0,
            },
        );
        let mut cluster = Cluster::new(&spec, workload, ClusterOptions::default()).unwrap();
        let first = cluster.run_window(20.0);
        cluster.run_window(80.0);
        let last = cluster.run_window(50.0);
        assert!(last.avg_users > 3.0 * first.avg_users);
        assert_eq!(last.users_at_end, 100);
        assert!(last.total_tps > 2.0 * first.total_tps);
    }

    #[test]
    fn population_decrease_retires_users() {
        let spec = one_service_spec(0.001, 4.0, 64);
        let workload = WorkloadSpec::new(
            RequestMix::uniform(1),
            0.5,
            LoadProfile::Steps(vec![(0.0, 50), (100.0, 5)]),
        );
        let mut cluster = Cluster::new(&spec, workload, ClusterOptions::default()).unwrap();
        cluster.run_window(100.0);
        cluster.run_window(50.0);
        let r = cluster.run_window(50.0);
        assert_eq!(r.users_at_end, 5);
        assert!(r.avg_users < 7.0);
    }

    #[test]
    fn probe_collects_arrival_queue_samples() {
        let spec = one_service_spec(0.02, 0.5, 8);
        let mut cluster =
            Cluster::new(&spec, constant_workload(30, 0.5), ClusterOptions::default()).unwrap();
        cluster.set_probe(ServiceId(0), EndpointId(0));
        cluster.run_window(200.0);
        let samples = cluster.take_probe_samples();
        assert!(samples.len() > 100);
        assert!(samples.iter().all(|&(q, r)| q >= 0.0 && r > 0.0));
        // Responses should correlate positively with seen queue length.
        let n = samples.len() as f64;
        let mq = samples.iter().map(|s| s.0).sum::<f64>() / n;
        let mr = samples.iter().map(|s| s.1).sum::<f64>() / n;
        let cov: f64 = samples.iter().map(|s| (s.0 - mq) * (s.1 - mr)).sum();
        assert!(cov > 0.0, "queue length and response should correlate");
        assert!(cluster.take_probe_samples().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = one_service_spec(0.01, 1.0, 8);
        let run = |seed| {
            let mut c = Cluster::new(
                &spec,
                constant_workload(20, 1.0),
                ClusterOptions {
                    seed,
                    ..Default::default()
                },
            )
            .unwrap();
            c.run_window(100.0).total_tps
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn a_single_tenant_cluster_has_one_tenant_view() {
        let spec = one_service_spec(0.01, 0.5, 64);
        let options = ClusterOptions::new().with_span_sampling(1.0, 7);
        let mut cluster = Cluster::new(&spec, constant_workload(40, 1.0), options).unwrap();
        for _ in 0..2 {
            let merged = cluster.run_window(60.0);
            assert!(merged.span_stats.is_some());
            let views = cluster.tenant_reports(&merged);
            assert_eq!(views.len(), 1);
            let mut view = views[0].clone();
            assert_eq!(view.tenant, Some(0));
            view.tenant = None;
            assert_eq!(view, merged);
        }
    }

    #[test]
    fn rejects_mix_feature_mismatch() {
        let spec = one_service_spec(0.01, 1.0, 8);
        let workload = WorkloadSpec::constant(RequestMix::uniform(2), 5, 1.0);
        assert!(matches!(
            Cluster::new(&spec, workload, ClusterOptions::default()),
            Err(ClusterError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rejects_more_services_than_an_event_can_name() {
        let mut spec = one_service_spec(0.01, 1.0, 8);
        let node = spec.services[0].server;
        for i in 0..=u16::MAX {
            spec.add_service(format!("s{i}"), node, 1, 1, 1.0);
        }
        assert_eq!(spec.services.len(), 65_537);
        let Err(err) = Cluster::new(&spec, constant_workload(1, 1.0), ClusterOptions::default())
        else {
            panic!("a cluster of 65 537 services was built");
        };
        assert_eq!(
            err,
            ClusterError::invalid_parameter("a cluster runs at most 65536 services, not 65537")
        );
    }

    #[test]
    fn rejects_more_tenants_than_an_event_can_name() {
        let spec = one_service_spec(0.01, 1.0, 8);
        let layout = TenantLayout {
            feature_offset: 0,
            feature_count: 1,
            service_offset: 0,
            service_count: 1,
        };
        let tenants = vec![(constant_workload(1, 1.0), layout); 65_537];
        let Err(err) = Cluster::new_multi_tenant(&spec, tenants, ClusterOptions::default()) else {
            panic!("a cluster of 65 537 tenants was built");
        };
        assert_eq!(
            err,
            ClusterError::invalid_parameter("a cluster holds at most 65536 tenants, not 65537")
        );
    }

    #[test]
    fn multi_service_chain_routes_calls() {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let web = spec.add_service("web", node, 32, 1, 1.0);
        let db = spec.add_service("db", node, 8, 1, 1.0);
        let page = spec.add_endpoint(web, "page", 0.002, 1.0);
        let query = spec.add_endpoint(db, "query", 0.004, 1.0);
        spec.add_call(web, page, db, query, 2.0);
        spec.add_feature("page", web, page);
        let mut cluster =
            Cluster::new(&spec, constant_workload(50, 1.0), ClusterOptions::default()).unwrap();
        cluster.run_window(100.0);
        let r = cluster.run_window(400.0);
        // db does 2x the calls: busy cores ratio ≈ (2*0.004)/(0.002) = 4.
        let ratio = r.service_busy_cores[1] / r.service_busy_cores[0];
        assert!((ratio - 4.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn peak_arrival_rate_tracks_offered_load() {
        let spec = one_service_spec(0.001, 4.0, 64);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(100, 1.0),
            ClusterOptions::default(),
        )
        .unwrap();
        cluster.run_window(60.0);
        let r = cluster.run_window(300.0);
        // Steady closed workload: the peak sub-interval rate is close to
        // the mean rate (~100/s), not wildly above it.
        assert!(
            r.peak_arrival_rate > 0.8 * r.total_tps,
            "peak {}",
            r.peak_arrival_rate
        );
        assert!(
            r.peak_arrival_rate < 1.5 * r.total_tps,
            "peak {}",
            r.peak_arrival_rate
        );
    }

    #[test]
    fn bursty_peak_rate_far_exceeds_average() {
        use atom_workload::BurstinessSpec;
        let spec = one_service_spec(0.0001, 4.0, 64);
        let workload = WorkloadSpec::new(RequestMix::uniform(1), 1.0, LoadProfile::Constant(200))
            .with_burstiness(BurstinessSpec {
                index_of_dispersion: 2000.0,
                burst_fraction: 0.1,
                burst_multiplier: 8.0,
            });
        let mut cluster = Cluster::new(&spec, workload, ClusterOptions::default()).unwrap();
        let mut max_ratio = 0.0f64;
        for _ in 0..10 {
            let r = cluster.run_window(300.0);
            if r.total_tps > 0.0 {
                max_ratio = max_ratio.max(r.peak_arrival_rate / r.total_tps);
            }
        }
        assert!(
            max_ratio > 2.0,
            "bursts should push the peak sub-interval rate well above the window mean, got {max_ratio}"
        );
    }

    #[test]
    fn monitor_noise_perturbs_only_readings() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let run = |noise: f64| {
            let mut c = Cluster::new(
                &spec,
                constant_workload(20, 1.0),
                ClusterOptions {
                    seed: 5,
                    monitor_noise: noise,
                    ..Default::default()
                },
            )
            .unwrap();
            c.run_window(400.0)
        };
        let clean = run(0.0);
        let noisy = run(0.25);
        // The workload dynamics are identical (noise applies at read
        // time), so completions match exactly...
        assert_eq!(clean.feature_counts, noisy.feature_counts);
        // ...but the utilisation readings differ.
        assert!(
            (clean.service_busy_cores[0] - noisy.service_busy_cores[0]).abs() > 1e-6,
            "noise should perturb utilisation readings"
        );
    }

    #[test]
    fn parallelism_caps_vertical_scaling() {
        // A single-threaded service cannot use a 2-core share: Fig. 2b.
        let mut spec = one_service_spec(0.01, 2.0, 64);
        spec.services[0].parallelism = Some(1);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(500, 1.0),
            ClusterOptions::default(),
        )
        .unwrap();
        cluster.run_window(100.0);
        let r = cluster.run_window(400.0);
        // Capacity is one core (100/s), not two.
        assert!(r.total_tps < 103.0, "tps {}", r.total_tps);
        assert!(r.total_tps > 90.0, "tps {}", r.total_tps);
    }

    #[test]
    fn trace_captures_the_full_call_tree() {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let web = spec.add_service("web", node, 32, 1, 1.0);
        let db = spec.add_service("db", node, 8, 1, 1.0);
        let page = spec.add_endpoint(web, "page", 0.002, 1.0);
        let query = spec.add_endpoint(db, "query", 0.004, 1.0);
        spec.add_call(web, page, db, query, 2.0);
        spec.add_feature("page", web, page);
        let mut cluster =
            Cluster::new(&spec, constant_workload(10, 1.0), ClusterOptions::default()).unwrap();
        cluster.arm_trace(Some(0));
        cluster.run_window(30.0);
        let trace = cluster.take_trace().expect("a request completed");
        assert_eq!(trace[0].feature, 0);
        // Root span at web + (0..=2 sampled) db child spans.
        assert_eq!(trace[0].service, 0);
        assert_eq!(trace[0].parent, None);
        for child in &trace[1..] {
            assert_eq!(child.service, 1);
            assert_eq!(child.parent, Some(0));
            // Children nest within the root's lifetime.
            assert!(child.arrival >= trace[0].start - 1e-9);
            assert!(child.end <= trace[0].end + 1e-9);
            assert!(child.start >= child.arrival);
            assert!(child.end >= child.start);
        }
        // One-shot: a second take yields nothing until re-armed.
        assert!(cluster.take_trace().is_none());
        cluster.arm_trace(None);
        let r = cluster.run_window(30.0);
        assert!(cluster.take_trace().is_some());
        // Armed but unsampled: the sampling side saw nothing.
        assert_eq!(r.span_stats, None);
        assert!(cluster.take_spans().is_empty());
        let t = cluster.telemetry();
        assert_eq!(
            (
                t.span_requests_sampled,
                t.spans_recorded,
                t.span_requests_dropped
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn sampled_spans_capture_call_trees() {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let web = spec.add_service("web", node, 32, 1, 1.0);
        let db = spec.add_service("db", node, 8, 1, 1.0);
        let page = spec.add_endpoint(web, "page", 0.002, 1.0);
        let query = spec.add_endpoint(db, "query", 0.004, 1.0);
        spec.add_call(web, page, db, query, 2.0);
        spec.add_feature("page", web, page);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(10, 1.0),
            ClusterOptions::new().with_span_sampling(1.0, 7),
        )
        .unwrap();
        let report = cluster.run_window(60.0);
        let spans = cluster.take_spans();
        assert!(!spans.is_empty());
        // Roots lead their trees; children nest inside the root span and
        // carry the root's request id.
        let mut root = None;
        for s in &spans {
            match s.parent {
                None => {
                    assert_eq!(s.service, 0);
                    root = Some(*s);
                }
                Some(p) => {
                    let r = root.expect("parent precedes child");
                    assert_eq!(s.request, r.request);
                    assert_eq!(s.service, 1);
                    assert_eq!(s.parent, Some(0));
                    assert!(s.arrival >= r.start - 1e-9);
                    assert!(s.end <= r.end + 1e-9);
                    assert!(s.queue_wait() >= 0.0 && s.residence() >= s.service_time());
                    let _ = p;
                }
            }
        }
        // Window aggregates cover both services and reconcile with the
        // telemetry counters.
        let stats = report.span_stats.as_ref().expect("sampling enabled");
        assert_eq!(stats.len(), 2);
        assert!(stats[0].samples > 0 && stats[1].samples > 0);
        assert!(stats[0].residence_p50 <= stats[0].residence_p95);
        let t = cluster.telemetry();
        assert!(t.span_requests_sampled > 0);
        assert_eq!(t.spans_recorded, spans.len() as u64);
        assert_eq!(t.span_requests_dropped, 0);
        // Drained: a second take is empty until more requests complete.
        assert!(cluster.take_spans().is_empty());
    }

    #[test]
    fn sampling_is_inert_on_the_dynamics() {
        // Identical seeds with sampling off, at 30%, and at 100% must
        // produce byte-identical window dynamics: the sampling decision
        // is a hash, never an RNG draw.
        let spec = one_service_spec(0.01, 0.5, 16);
        let run = |rate: f64| {
            let mut c = Cluster::new(
                &spec,
                constant_workload(50, 1.0),
                ClusterOptions::new()
                    .with_seed(11)
                    .with_span_sampling(rate, 3),
            )
            .unwrap();
            let mut reports = Vec::new();
            for _ in 0..3 {
                let mut r = c.run_window(120.0);
                r.span_stats = None; // the only field allowed to differ
                reports.push(r);
            }
            reports
        };
        let off = run(0.0);
        let some = run(0.3);
        let all = run(1.0);
        assert_eq!(off, some);
        assert_eq!(off, all);
    }

    #[test]
    fn sampling_disabled_reports_no_span_stats() {
        let spec = one_service_spec(0.01, 0.5, 16);
        let mut cluster =
            Cluster::new(&spec, constant_workload(20, 1.0), ClusterOptions::default()).unwrap();
        let r = cluster.run_window(60.0);
        assert_eq!(r.span_stats, None);
        assert!(cluster.take_spans().is_empty());
        assert_eq!(cluster.telemetry().span_requests_sampled, 0);
    }

    #[test]
    fn sampled_spans_are_deterministic_in_the_seeds() {
        let spec = one_service_spec(0.01, 0.5, 16);
        let run = || {
            let mut c = Cluster::new(
                &spec,
                constant_workload(30, 1.0),
                ClusterOptions::new()
                    .with_seed(5)
                    .with_span_sampling(0.5, 9),
            )
            .unwrap();
            c.run_window(200.0);
            c.take_spans()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
    }

    #[test]
    fn bursty_workload_produces_surges() {
        use atom_workload::BurstinessSpec;
        let spec = one_service_spec(0.001, 4.0, 64);
        let workload = WorkloadSpec::new(RequestMix::uniform(1), 1.0, LoadProfile::Constant(50))
            .with_burstiness(BurstinessSpec {
                index_of_dispersion: 4000.0,
                burst_fraction: 0.1,
                burst_multiplier: 8.0,
            });
        let mut cluster = Cluster::new(&spec, workload, ClusterOptions::default()).unwrap();
        let mut tps = Vec::new();
        for _ in 0..60 {
            tps.push(cluster.run_window(30.0).total_tps);
        }
        let mean = tps.iter().sum::<f64>() / tps.len() as f64;
        let var = tps.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tps.len() as f64;
        let cv = var.sqrt() / mean;
        // A Poisson-like closed workload would have tiny window-to-window
        // variability; the bursty one must show pronounced surges.
        assert!(cv > 0.3, "cv {cv} too small for bursty workload");
    }

    // ------------------------------------------------------------------
    // fault injection
    // ------------------------------------------------------------------

    #[test]
    fn replica_crash_dips_ready_then_recovers() {
        // Single replica, startup_delay 2 s: a crash at t=5 leaves the
        // service unavailable on [5, 7).
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new().at(5.0, FaultKind::ReplicaCrash { service: 0 });
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        let r = cluster.run_window(6.0);
        // At t=6 the replacement is still starting: live but not ready.
        assert_eq!(r.service_replicas, vec![1]);
        assert_eq!(r.service_ready_replicas, vec![0]);
        assert!(
            r.service_availability[0] > 0.7 && r.service_availability[0] < 0.95,
            "availability {}",
            r.service_availability[0]
        );
        let r = cluster.run_window(60.0);
        assert_eq!(r.service_ready_replicas, vec![1]);
        assert!(r.service_availability[0] > 0.95);
        assert!(r.total_tps > 0.0, "cluster must keep serving after a crash");
    }

    #[test]
    fn server_outage_downs_everything_until_recovery() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new().at(
            5.0,
            FaultKind::ServerOutage {
                server: 0,
                duration: 10.0,
            },
        );
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        // Down on [5, 15), replacement ready at 17: availability over
        // [0, 20) is (5 + 3) / 20 = 0.4.
        let r = cluster.run_window(20.0);
        assert!(
            (r.service_availability[0] - 0.4).abs() < 0.05,
            "availability {}",
            r.service_availability[0]
        );
        assert_eq!(r.service_replicas, vec![1]);
        assert_eq!(r.service_ready_replicas, vec![1]);
        let r = cluster.run_window(60.0);
        assert!(r.total_tps > 0.0, "backlog must drain after the outage");
        assert!(r.service_availability[0] > 0.99);
    }

    #[test]
    fn monitor_dropout_blanks_scrapes_but_not_orchestrator_state() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new().at(0.0, FaultKind::MonitorDropout { duration: 60.0 });
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        let dark = cluster.run_window(60.0);
        assert!((dark.monitor_dropout_fraction - 1.0).abs() < 1e-9);
        assert!(dark.degraded(0.25));
        // Scrape-based counters saw nothing...
        assert_eq!(dark.feature_counts, vec![0]);
        assert_eq!(dark.total_tps, 0.0);
        // ...while orchestrator state is intact.
        assert_eq!(dark.users_at_end, 20);
        assert_eq!(dark.service_replicas, vec![1]);
        assert_eq!(dark.service_availability, vec![1.0]);
        // The lights come back on in the next window.
        let bright = cluster.run_window(60.0);
        assert_eq!(bright.monitor_dropout_fraction, 0.0);
        assert!(bright.feature_counts[0] > 0);
    }

    #[test]
    fn partial_dropout_reports_dark_fraction() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new().at(45.0, FaultKind::MonitorDropout { duration: 30.0 });
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        // Dark on [45, 75): 15 s of the first window, 15 s of the second.
        let r1 = cluster.run_window(60.0);
        assert!((r1.monitor_dropout_fraction - 0.25).abs() < 1e-9);
        let r2 = cluster.run_window(60.0);
        assert!((r2.monitor_dropout_fraction - 0.25).abs() < 1e-9);
        let r3 = cluster.run_window(60.0);
        assert_eq!(r3.monitor_dropout_fraction, 0.0);
    }

    #[test]
    fn overlapping_dropouts_count_each_dark_second_once() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new()
            .at(0.0, FaultKind::MonitorDropout { duration: 100.0 })
            .at(50.0, FaultKind::MonitorDropout { duration: 100.0 });
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        // Dark on [0, 150): half of the window, not 200 s of it.
        let r = cluster.run_window(300.0);
        assert_eq!(r.monitor_dropout_fraction, 0.5);
    }

    #[test]
    fn actuation_failure_drops_batches_and_counts_them() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new().at(0.0, FaultKind::ActuationFailure { duration: 50.0 });
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        let batch = vec![ScaleAction {
            service: ServiceId(0),
            replicas: 3,
            share: 1.0,
        }];
        cluster.schedule_scaling(batch.clone(), 10.0);
        let r = cluster.run_window(60.0);
        assert_eq!(r.failed_actuations, 1);
        assert_eq!(r.service_replicas, vec![1], "dropped batch must not scale");
        // Retrying after the API is back succeeds and the counter resets.
        cluster.schedule_scaling(batch, 10.0);
        let r = cluster.run_window(60.0);
        assert_eq!(r.failed_actuations, 0);
        assert_eq!(r.service_replicas, vec![3]);
        assert_eq!(cluster.ready_replicas(ServiceId(0)), 3);
    }

    #[test]
    fn slow_start_delays_readiness() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new().at(
            0.0,
            FaultKind::SlowStart {
                factor: 5.0,
                duration: 100.0,
            },
        );
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 2,
                share: 1.0,
            }],
            0.0,
        );
        // Start-up takes 2 × 5 = 10 s instead of 2 s.
        let r = cluster.run_window(5.0);
        assert_eq!(r.service_replicas, vec![2]);
        assert_eq!(r.service_ready_replicas, vec![1]);
        let r = cluster.run_window(10.0);
        assert_eq!(r.service_ready_replicas, vec![2]);
    }

    #[test]
    fn a_weaker_slow_start_does_not_weaken_a_stronger_one() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new()
            .at(
                0.0,
                FaultKind::SlowStart {
                    factor: 5.0,
                    duration: 100.0,
                },
            )
            .at(
                1.0,
                FaultKind::SlowStart {
                    factor: 1.5,
                    duration: 10.0,
                },
            );
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(20, 1.0),
            ClusterOptions::new().with_faults(faults),
        )
        .unwrap();
        cluster.run_window(20.0);
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 2,
                share: 1.0,
            }],
            0.0,
        );
        // At 20 s only the 5x episode is still running: start-up takes
        // 2 × 5 = 10 s, so the replica is ready at 30 s.
        let r = cluster.run_window(9.0);
        assert_eq!(r.service_ready_replicas, vec![1]);
        let r = cluster.run_window(2.0);
        assert_eq!(r.service_ready_replicas, vec![2]);
        assert_eq!(cluster.telemetry().scale_latencies, vec![10.0]);
    }

    #[test]
    fn invalid_fault_schedule_is_rejected_at_build() {
        let spec = one_service_spec(0.01, 1.0, 16);
        let faults = FaultSchedule::new().at(5.0, FaultKind::ReplicaCrash { service: 7 });
        assert!(matches!(
            Cluster::new(
                &spec,
                constant_workload(20, 1.0),
                ClusterOptions::new().with_faults(faults),
            ),
            Err(ClusterError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn scale_action_display_is_readable() {
        let a = ScaleAction {
            service: ServiceId(2),
            replicas: 3,
            share: 1.5,
        };
        assert_eq!(a.to_string(), "service 2 -> 3 x 1.50 cores");
    }

    // ------------------------------------------------------------------
    // fluid / hybrid backends
    // ------------------------------------------------------------------

    #[test]
    fn fluid_backend_reports_fluid_kind_and_serves() {
        let spec = one_service_spec(0.01, 1.0, 64);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(100, 1.0),
            ClusterOptions::new().with_backend(BackendMode::Fluid),
        )
        .unwrap();
        let r = cluster.run_window(300.0);
        assert_eq!(r.backend, BackendKind::Fluid);
        assert!(r.total_tps > 0.0, "fluid backend must synthesise traffic");
        assert_eq!(r.users_at_end, 100);
        assert!(cluster.telemetry().fluid_step_events > 0);
        // No discrete users ever cycled.
        assert_eq!(cluster.telemetry().user_ready_events, 0);
    }

    #[test]
    fn hybrid_switches_to_per_user_on_scaling_and_back() {
        let spec = one_service_spec(0.01, 0.5, 64);
        let mut cluster = Cluster::new(
            &spec,
            constant_workload(100, 1.0),
            ClusterOptions::new().with_backend(BackendMode::Hybrid),
        )
        .unwrap();
        let r = cluster.run_window(300.0);
        assert_eq!(r.backend, BackendKind::Fluid, "steady state runs fluid");
        assert_eq!(r.backend_switches, 0);
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(0),
                replicas: 2,
                share: 0.5,
            }],
            0.0,
        );
        let r = cluster.run_window(60.0);
        assert_eq!(r.backend, BackendKind::PerUser, "transient runs per-user");
        assert_eq!(r.backend_switches, 1);
        // After the hold expires the policy hands back to fluid.
        let r = cluster.run_window(300.0);
        assert_eq!(r.backend, BackendKind::Fluid);
        assert_eq!(r.backend_switches, 1);
        assert_eq!(cluster.telemetry().backend_switches, 2);
        assert!(cluster.telemetry().backend_check_events > 0);
    }

    #[test]
    fn hybrid_stays_per_user_under_burstiness() {
        use atom_workload::BurstinessSpec;
        let spec = one_service_spec(0.001, 4.0, 64);
        let workload = WorkloadSpec::new(RequestMix::uniform(1), 1.0, LoadProfile::Constant(50))
            .with_burstiness(BurstinessSpec {
                index_of_dispersion: 2000.0,
                burst_fraction: 0.1,
                burst_multiplier: 8.0,
            });
        let mut cluster = Cluster::new(
            &spec,
            workload,
            ClusterOptions::new().with_backend(BackendMode::Hybrid),
        )
        .unwrap();
        let r = cluster.run_window(300.0);
        assert_eq!(r.backend, BackendKind::PerUser);
        assert_eq!(cluster.telemetry().backend_switches, 0);
    }
}
