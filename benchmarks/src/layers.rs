//! Per-layer costs: one small loop per layer of the program, driven
//! through the crates' public types.
//!
//! Each metric is the median over [`REPEATS`] repeats of a loop that
//! runs for at least [`LOOP`]. Suffixes: `.pN` pending timers, `.jN`
//! active jobs in the group, `.nN` users. Inputs are fixed (not seeded
//! by `--seed`): a layer cost should move only when the layer does.
//!
//! The suite runs inside every traced run, after the workload's own
//! repetitions, so it is sized to finish in a few seconds; the numbers
//! say where an end-to-end change comes from, they are not bounded.

use std::hint::black_box;
use std::time::{Duration, Instant};

use atom_cluster::{
    BackendMode, Cluster, ClusterOptions, EdgeSpec, NetworkDelay, ScaleAction, ServiceId,
    TopologySpec,
};
use atom_core::evaluator::CandidateEvaluator;
use atom_core::optimizer::{decode, lattice_genome, search_with};
use atom_core::solver::{solve_with, SolverOptions, SolverWorkspace};
use atom_core::AtomConfig;
use atom_forecast::Ensemble;
use atom_ga::{optimize_batched, Budget, Evaluation, GaOptions, Gene, GeneValue};
use atom_lqn::sim::{simulate, SimOptions};
use atom_lqn::DecisionVector;
use atom_mva::amva::{solve_amva, AmvaOptions};
use atom_mva::closed::solve_exact;
use atom_mva::network::{ClassSpec, ClosedNetwork, Station};
use atom_net::LinkFabric;
use atom_obs::{Journal, Record, Registry};
use atom_sim::{EventQueue, PsProcessor, SimRng, TimerWheel};
use atom_sockshop::{scenarios, SockShop};

use crate::inputs::{
    two_rack_topology, wide_chain_spec, wide_spec, wide_workload, SPAN_RATE, THINK_TIME,
};
use crate::stats::{median, Summary};

/// Repeats per metric.
pub const REPEATS: usize = 5;
/// Shortest timed loop of one repeat.
pub const LOOP: Duration = Duration::from_millis(20);
/// Off/on pairs behind each overhead percentage.
pub const OVERHEAD_PAIRS: usize = 7;

/// One per-layer measurement.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Its value: the median over repeats (for a count, the count).
    pub value: f64,
    /// Spread over repeats (`None` for exact counts).
    pub spread: Option<Summary>,
}

fn timing(name: &'static str, samples: &[f64]) -> Layer {
    Layer {
        name,
        value: median(samples),
        spread: Some(Summary::of(samples)),
    }
}

fn count(name: &'static str, value: f64) -> Layer {
    Layer {
        name,
        value,
        spread: None,
    }
}

/// Per-operation nanoseconds of `chunk`, which performs some operations
/// and returns how many: [`REPEATS`] samples, each a loop of at least
/// [`LOOP`].
fn ns_per_op(mut chunk: impl FnMut() -> u64) -> Vec<f64> {
    (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            let mut ops = 0;
            while started.elapsed() < LOOP {
                ops += chunk();
            }
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

/// As [`ns_per_op`] for chunks that time themselves (set-up excluded):
/// `chunk` returns the timed duration and the operations it covered.
fn ns_per_op_timed(mut chunk: impl FnMut() -> (Duration, u64)) -> Vec<f64> {
    (0..REPEATS)
        .map(|_| {
            let (mut spent, mut ops) = (Duration::ZERO, 0);
            while spent < LOOP {
                let (d, n) = chunk();
                spent += d;
                ops += n;
            }
            spent.as_nanos() as f64 / ops as f64
        })
        .collect()
}

fn scaled(samples: Vec<f64>, by: f64) -> Vec<f64> {
    samples.into_iter().map(|v| v * by).collect()
}

// ---------------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------------

/// Pops and pushes per timed batch of the hold model: small against
/// both populations, large against a clock read.
const HOLD_BATCH: usize = 64;

/// The hold model on a `TimerWheel` holding `pending` timers: pop one,
/// push one an exponential think time ahead. Pops and pushes are timed
/// in alternating batches so each gets its own figure.
fn wheel_hold(pending: usize, push: &'static str, pop: &'static str, out: &mut Vec<Layer>) {
    let mut rng = SimRng::seed_from(11);
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    for i in 0..pending {
        wheel.push(rng.exponential(THINK_TIME), i as u32);
    }
    let mut batch = Vec::with_capacity(HOLD_BATCH);
    let (mut push_ns, mut pop_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (mut pushing, mut popping, mut ops) = (Duration::ZERO, Duration::ZERO, 0u64);
        while pushing + popping < 2 * LOOP {
            let t0 = Instant::now();
            for _ in 0..HOLD_BATCH {
                batch.push(wheel.pop().expect("the wheel never drains"));
            }
            popping += t0.elapsed();
            for entry in &mut batch {
                entry.0 += rng.exponential(THINK_TIME);
            }
            let t1 = Instant::now();
            for (t, e) in batch.drain(..) {
                wheel.push(t, e);
            }
            pushing += t1.elapsed();
            ops += HOLD_BATCH as u64;
        }
        push_ns.push(pushing.as_nanos() as f64 / ops as f64);
        pop_ns.push(popping.as_nanos() as f64 / ops as f64);
    }
    black_box(wheel.len());
    out.push(timing(push, &push_ns));
    out.push(timing(pop, &pop_ns));
}

fn calendar_hold(out: &mut Vec<Layer>) {
    let mut rng = SimRng::seed_from(12);
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..1000 {
        queue.push(rng.exponential(THINK_TIME), i);
    }
    let samples = ns_per_op(|| {
        for _ in 0..HOLD_BATCH {
            let (t, e) = queue.pop().expect("the queue never drains");
            queue.push(t + rng.exponential(THINK_TIME), e);
        }
        HOLD_BATCH as u64
    });
    black_box(queue.len());
    out.push(timing("sim.calendar.push_pop_ns.p1e3", &samples));
}

/// A processor holding `jobs` jobs in one group whose cap gives each a
/// full core: complete the next job, add one. Completions
/// (`next_completion` + `remove_job`) and adds are timed in alternating
/// batches of `jobs / 8`.
fn processor_cycle(
    jobs: usize,
    add: &'static str,
    complete: &'static str,
    set_cap: Option<&'static str>,
    out: &mut Vec<Layer>,
) {
    let mut rng = SimRng::seed_from(13);
    let cap = jobs as f64;
    let mut cpu = PsProcessor::new(2.0 * cap, 1.0);
    let group = cpu.add_group(cap);
    let mut now = 0.0;
    for _ in 0..jobs {
        cpu.add_job(now, group, rng.exponential(0.005));
    }
    let batch = (jobs / 8).max(1);
    let (mut add_ns, mut complete_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (mut adding, mut completing, mut ops) = (Duration::ZERO, Duration::ZERO, 0u64);
        while adding + completing < 2 * LOOP {
            let t0 = Instant::now();
            for _ in 0..batch {
                let (t, job) = cpu.next_completion(now).expect("jobs are active");
                now = t;
                black_box(cpu.remove_job(now, job));
            }
            completing += t0.elapsed();
            let t1 = Instant::now();
            for _ in 0..batch {
                black_box(cpu.add_job(now, group, rng.exponential(0.005)));
            }
            adding += t1.elapsed();
            ops += batch as u64;
        }
        add_ns.push(adding.as_nanos() as f64 / ops as f64);
        complete_ns.push(completing.as_nanos() as f64 / ops as f64);
    }
    out.push(timing(add, &add_ns));
    out.push(timing(complete, &complete_ns));
    if let Some(name) = set_cap {
        let mut wide = true;
        let samples = ns_per_op(|| {
            wide = !wide;
            cpu.set_group_cap(now, group, if wide { cap } else { 0.5 * cap });
            1
        });
        out.push(timing(name, &samples));
    }
    black_box(cpu.active_jobs());
}

fn sim_layers(out: &mut Vec<Layer>) {
    wheel_hold(
        1_000,
        "sim.wheel.push_ns.p1e3",
        "sim.wheel.pop_ns.p1e3",
        out,
    );
    wheel_hold(
        1_000_000,
        "sim.wheel.push_ns.p1e6",
        "sim.wheel.pop_ns.p1e6",
        out,
    );
    calendar_hold(out);
    processor_cycle(
        16,
        "sim.processor.add_ns.j16",
        "sim.processor.complete_ns.j16",
        None,
        out,
    );
    processor_cycle(
        1024,
        "sim.processor.add_ns.j1024",
        "sim.processor.complete_ns.j1024",
        Some("sim.processor.set_cap_ns.j1024"),
        out,
    );
}

// ---------------------------------------------------------------------------
// net
// ---------------------------------------------------------------------------

fn net_layers(out: &mut Vec<Layer>) {
    // One cross-rack call per simulated millisecond: ~13 % link load, so
    // the FIFO queues are exercised without growing.
    let mut fabric = LinkFabric::new(two_rack_topology());
    let mut now = 0.0;
    let samples = ns_per_op(|| {
        for _ in 0..HOLD_BATCH {
            now += 0.001;
            black_box(fabric.round_trip(0, 1, now));
        }
        HOLD_BATCH as u64
    });
    out.push(timing("net.fabric.round_trip_ns", &samples));
    let delay = NetworkDelay::new(two_rack_topology());
    let samples = ns_per_op(|| {
        for _ in 0..HOLD_BATCH {
            black_box(delay.round_trip(black_box(0), black_box(1)));
        }
        HOLD_BATCH as u64
    });
    out.push(timing("net.delay.round_trip_ns", &samples));
}

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

fn wide_cluster(users: usize, options: ClusterOptions) -> Cluster {
    Cluster::new(&wide_spec(users), wide_workload(users), options)
        .expect("the wide app is a valid deployment")
}

/// Wall nanoseconds per DES event of the per-user wide app at `users`,
/// over windows of `window_secs` (sized for a few tens of thousands of
/// events each).
fn ns_per_event(users: usize, window_secs: f64, name: &'static str, out: &mut Vec<Layer>) {
    let mut cluster = wide_cluster(users, ClusterOptions::new().with_seed(21));
    cluster.run_window(window_secs);
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let before = cluster.telemetry().total_events();
            let started = Instant::now();
            black_box(cluster.run_window(window_secs));
            let wall = started.elapsed();
            wall.as_nanos() as f64 / (cluster.telemetry().total_events() - before) as f64
        })
        .collect();
    out.push(timing(name, &samples));
}

/// Median of the paired on/off wall ratios of `pairs` interleaved window
/// pairs, as an overhead percentage. The two clusters advance in
/// lock-step, one window each per pair, the order alternating from pair
/// to pair so that drift cancels.
fn paired_overhead(off: &mut Cluster, on: &mut Cluster, window_secs: f64) -> Vec<f64> {
    let window = |c: &mut Cluster| {
        let started = Instant::now();
        black_box(c.run_window(window_secs));
        black_box(c.take_spans());
        started.elapsed().as_secs_f64()
    };
    window(off);
    window(on);
    (0..OVERHEAD_PAIRS)
        .map(|pair| {
            let (t_off, t_on) = if pair % 2 == 0 {
                let a = window(off);
                (a, window(on))
            } else {
                let b = window(on);
                (window(off), b)
            };
            100.0 * (t_on / t_off - 1.0)
        })
        .collect()
}

/// Users and window length of the overhead pairs.
const OVERHEAD_USERS: usize = 100_000;
const OVERHEAD_WINDOW_SECS: f64 = 3.0;

fn cluster_layers(out: &mut Vec<Layer>) {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            let cluster = wide_cluster(1_000_000, ClusterOptions::new().with_seed(22));
            let wall = started.elapsed();
            black_box(cluster.now());
            wall.as_secs_f64() * 1e3
        })
        .collect();
    out.push(timing("cluster.new_ms.n1e6", &samples));

    ns_per_event(1_000, 60.0, "cluster.run_window.ns_per_event.n1e3", out);
    ns_per_event(100_000, 1.0, "cluster.run_window.ns_per_event.n1e5", out);
    ns_per_event(1_000_000, 0.1, "cluster.run_window.ns_per_event.n1e6", out);

    // Span layer: the same seed with sampling off and at 1 %. Sampling is
    // observationally inert, so each pair simulates identical events.
    let base = ClusterOptions::new().with_seed(23);
    let mut off = wide_cluster(OVERHEAD_USERS, base.clone());
    let mut on = wide_cluster(OVERHEAD_USERS, base.with_span_sampling(SPAN_RATE, 23));
    let pcts = paired_overhead(&mut off, &mut on, OVERHEAD_WINDOW_SECS);
    out.push(timing("cluster.spans.overhead_pct", &pcts));
    out.push(count(
        "cluster.spans.recorded",
        on.telemetry().spans_recorded as f64,
    ));

    // Link fabric: a two-server chain with no topology and with its
    // servers in separate racks of a low-latency fabric (delays small
    // enough that the closed loop offers the same load either way).
    let chain = wide_chain_spec(OVERHEAD_USERS);
    let fabric = TopologySpec::two_tier(
        vec![0, 1],
        EdgeSpec::new(0.0001, 1.25e9),
        EdgeSpec::new(0.0005, 1.25e10),
    );
    let base = ClusterOptions::new().with_seed(24);
    let build = |options: ClusterOptions| {
        Cluster::new(&chain, wide_workload(OVERHEAD_USERS), options)
            .expect("the chain app is a valid deployment")
    };
    let mut off = build(base.clone());
    let mut on = build(base.with_topology(fabric));
    let pcts = paired_overhead(&mut off, &mut on, OVERHEAD_WINDOW_SECS);
    out.push(timing("cluster.net.overhead_pct", &pcts));
    out.push(count(
        "cluster.net.transits",
        on.telemetry().net_transit_events as f64,
    ));

    // Fluid backend: wall per aggregation step, one simulated hour on a
    // fresh cluster per sample chunk.
    let samples = ns_per_op_timed(|| {
        let options = ClusterOptions::new()
            .with_seed(25)
            .with_backend(BackendMode::Fluid);
        let mut fluid = wide_cluster(100_000, options);
        let started = Instant::now();
        black_box(fluid.run_window(3600.0));
        (
            started.elapsed(),
            fluid.telemetry().fluid_step_events.max(1),
        )
    });
    out.push(timing(
        "cluster.backend.fluid_step_us",
        &scaled(samples, 1e-3),
    ));

    // Hybrid backend: fluid in steady state, a per-user excursion around
    // a (capacity-neutral) scaling batch one minute in.
    const HYBRID_USERS: usize = 10_000;
    const HYBRID_SIM_SECS: f64 = 600.0;
    let mut switches = 0;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let options = ClusterOptions::new()
                .with_seed(26)
                .with_backend(BackendMode::Hybrid);
            let mut hybrid = wide_cluster(HYBRID_USERS, options);
            let started = Instant::now();
            let share = hybrid.share(ServiceId(0));
            let replicas = hybrid.replicas(ServiceId(0));
            hybrid.schedule_scaling(
                vec![ScaleAction {
                    service: ServiceId(0),
                    replicas,
                    share,
                }],
                60.0,
            );
            for _ in 0..4 {
                black_box(hybrid.run_window(HYBRID_SIM_SECS / 4.0));
            }
            switches = hybrid.telemetry().backend_switches;
            started.elapsed().as_secs_f64() * 3600.0 / HYBRID_SIM_SECS
        })
        .collect();
    out.push(timing(
        "cluster.backend.hybrid_wall_s_per_sim_hour.n1e4",
        &samples,
    ));
    out.push(count("cluster.backend.switches", switches as f64));
}

// ---------------------------------------------------------------------------
// mva, lqn
// ---------------------------------------------------------------------------

fn three_station_network(population: usize) -> ClosedNetwork {
    ClosedNetwork::new(
        vec![
            Station::queueing("web", 4, vec![0.004]),
            Station::queueing("app", 2, vec![0.003]),
            Station::queueing("db", 1, vec![0.002]),
        ],
        vec![ClassSpec::new("users", population, THINK_TIME)],
    )
    .expect("a valid closed network")
}

/// Users of the Sock Shop model the decide-side layers solve.
const MODEL_USERS: usize = 1500;

fn mva_lqn_layers(out: &mut Vec<Layer>) {
    let net = three_station_network(1024);
    let samples = ns_per_op(|| {
        black_box(solve_exact(black_box(&net)).expect("exact MVA solves"));
        1
    });
    out.push(timing("mva.exact_us.n1024", &scaled(samples, 1e-3)));
    let net = three_station_network(1_000_000);
    let samples = ns_per_op(|| {
        black_box(solve_amva(black_box(&net), AmvaOptions::default()).expect("AMVA solves"));
        1
    });
    out.push(timing("mva.amva_us.n1e6", &scaled(samples, 1e-3)));

    let mix = scenarios::ordering_mix();
    let model = SockShop::default().lqn_model(MODEL_USERS, THINK_TIME, mix.fractions());
    let mut workspace = SolverWorkspace::new();
    let cold = SolverOptions::candidate();
    let solution = solve_with(&model, cold, &mut workspace).expect("the Sock Shop model solves");
    let warm = cold.with_warm_start(Some(solution.client_throughput));
    let mut iterations = [0usize; 2];
    for (i, (options, name)) in [(cold, "lqn.solve_cold_us"), (warm, "lqn.solve_warm_us")]
        .into_iter()
        .enumerate()
    {
        let samples = ns_per_op(|| {
            let s = solve_with(black_box(&model), options, &mut workspace).expect("solves");
            iterations[i] = s.iterations;
            black_box(s.client_throughput);
            1
        });
        out.push(timing(name, &scaled(samples, 1e-3)));
    }
    out.push(count("lqn.solve_cold_iterations", iterations[0] as f64));
    out.push(count("lqn.solve_warm_iterations", iterations[1] as f64));

    let options = SimOptions {
        horizon: 120.0,
        warmup: 20.0,
        seed: 31,
        demand_cv: 1.0,
    };
    let small = SockShop::default().lqn_model(250, THINK_TIME, mix.fractions());
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            let s = simulate(black_box(&small), options).expect("the LQN simulator runs");
            let wall = started.elapsed().as_secs_f64();
            s.client_throughput * (options.horizon - options.warmup) / wall
        })
        .collect();
    out.push(timing("lqn.sim.requests_per_wall_s", &samples));
}

// ---------------------------------------------------------------------------
// ga, core
// ---------------------------------------------------------------------------

/// `n` distinct lattice decisions over `genome`, drawn from a fixed seed.
fn lattice_decisions(
    genome: &[Gene],
    decode: impl Fn(&[GeneValue]) -> DecisionVector,
    n: usize,
) -> Vec<DecisionVector> {
    let mut rng = SimRng::seed_from(41);
    let mut out: Vec<DecisionVector> = Vec::with_capacity(n);
    while out.len() < n {
        let genes: Vec<GeneValue> = genome
            .iter()
            .map(|g| match *g {
                Gene::Int { lo, hi } => {
                    GeneValue::Int(lo + (rng.uniform() * (hi - lo + 1) as f64) as i64)
                }
                Gene::Float { lo, hi } => GeneValue::Float(rng.uniform_in(lo, hi)),
            })
            .collect();
        let d = decode(&genes);
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

fn decide_layers(out: &mut Vec<Layer>) {
    let shop = SockShop::default();
    let mix = scenarios::ordering_mix();
    let samples = ns_per_op(|| {
        black_box(shop.binding(MODEL_USERS, THINK_TIME, mix.fractions()));
        1
    });
    out.push(timing("core.binding.build_us", &scaled(samples, 1e-3)));

    let binding = shop.binding(MODEL_USERS, THINK_TIME, mix.fractions());
    let objective = shop.objective();
    let scalable: Vec<_> = binding.scalable().collect();
    let genome = lattice_genome(&scalable);
    let ga = AtomConfig::new(objective.clone()).ga;

    // The GA's own cost: breeding and selection against a constant
    // fitness.
    let generations = 50;
    let options = GaOptions {
        budget: Budget::Generations(generations),
        niching: true,
        ..ga
    };
    let samples = ns_per_op(|| {
        let r = optimize_batched(&genome, options, |batch| {
            vec![Evaluation::feasible(1.0); batch.len()]
        });
        black_box(r.evaluations);
        generations as u64
    });
    out.push(timing("ga.generation_us", &scaled(samples, 1e-3)));

    let decisions = lattice_decisions(&genome, |g| decode(&scalable, g), 32);
    let fresh = || CandidateEvaluator::new(&binding, &binding.model, &objective);

    let mut evaluator = fresh();
    evaluator.evaluate(&decisions[0]);
    let samples = ns_per_op(|| {
        for _ in 0..HOLD_BATCH {
            black_box(evaluator.evaluate(black_box(&decisions[0])));
        }
        HOLD_BATCH as u64
    });
    out.push(timing("core.evaluator.hit_ns", &samples));

    let samples = ns_per_op_timed(|| {
        let mut evaluator = fresh();
        let started = Instant::now();
        for d in &decisions {
            black_box(evaluator.evaluate(d));
        }
        (started.elapsed(), decisions.len() as u64)
    });
    out.push(timing("core.evaluator.miss_us", &scaled(samples, 1e-3)));

    let samples = ns_per_op_timed(|| {
        let mut evaluator = fresh();
        let started = Instant::now();
        black_box(evaluator.evaluate_batch(&decisions[..16]));
        (started.elapsed(), 1)
    });
    out.push(timing("core.evaluator.batch16_us", &scaled(samples, 1e-3)));

    // One full search at the controller's default budget. The input is
    // fixed and the GA seeded, so the counts repeat exactly.
    let mut stats = None;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut evaluator = fresh();
            let started = Instant::now();
            let result = search_with(&mut evaluator, ga);
            let wall = started.elapsed().as_secs_f64() * 1e3;
            stats = Some((result.stats, result.ga.generations));
            wall
        })
        .collect();
    out.push(timing("core.optimizer.search_ms", &samples));
    let (stats, generations) = stats.expect("the search ran");
    out.push(count("core.evaluator.hit_rate", stats.hit_rate()));
    out.push(count("core.evaluator.solves", stats.solves as f64));
    out.push(count("core.evaluator.hits", stats.cache_hits as f64));
    out.push(count("ga.generations", generations as f64));
}

// ---------------------------------------------------------------------------
// forecast, obs
// ---------------------------------------------------------------------------

fn forecast_obs_layers(out: &mut Vec<Layer>) {
    let mut ensemble = Ensemble::new(8, 0);
    let mut x = 500.0;
    let samples = ns_per_op(|| {
        x = if x > 3000.0 { 500.0 } else { x + 37.0 };
        ensemble.observe(x);
        black_box(ensemble.forecast(1.0));
        1
    });
    out.push(timing("forecast.ensemble.step_us", &scaled(samples, 1e-3)));

    let mut journal = Journal::with_capacity(4096);
    let mut t = 0.0;
    let samples = ns_per_op(|| {
        for _ in 0..HOLD_BATCH {
            t += 1.0;
            black_box(journal.push(t, Record::Note(String::new())));
        }
        HOLD_BATCH as u64
    });
    out.push(timing("obs.journal.push_ns", &samples));

    let mut registry = Registry::new();
    for i in 0..32 {
        registry.add(&format!("atom_events_total_{i}"), i);
        registry.set_gauge(&format!("atom_gauge_{i}"), i as f64 * 0.5);
    }
    for i in 0..256 {
        registry.observe("atom_decide_seconds", i as f64 * 1e-3);
    }
    let samples = ns_per_op(|| {
        black_box(registry.prometheus_text());
        1
    });
    out.push(timing("obs.registry.render_us", &scaled(samples, 1e-3)));
}

/// Runs the whole suite.
pub fn run_suite() -> Vec<Layer> {
    let mut out = Vec::new();
    sim_layers(&mut out);
    net_layers(&mut out);
    cluster_layers(&mut out);
    mva_lqn_layers(&mut out);
    decide_layers(&mut out);
    forecast_obs_layers(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_timing_reports_positive_costs() {
        let mut out = Vec::new();
        wheel_hold(100, "push", "pop", &mut out);
        processor_cycle(16, "add", "complete", Some("cap"), &mut out);
        assert_eq!(out.len(), 5);
        for layer in &out {
            assert!(layer.value > 0.0 && layer.value.is_finite(), "{layer:?}");
            assert_eq!(layer.spread.as_ref().map(|s| s.n), Some(REPEATS));
        }
    }

    #[test]
    fn paired_overhead_of_identical_clusters_is_near_zero() {
        let mut a = wide_cluster(2_000, ClusterOptions::new().with_seed(1));
        let mut b = wide_cluster(2_000, ClusterOptions::new().with_seed(1));
        let pcts = paired_overhead(&mut a, &mut b, 30.0);
        assert_eq!(pcts.len(), OVERHEAD_PAIRS);
        assert!(median(&pcts).abs() < 25.0, "{pcts:?}");
    }

    #[test]
    fn lattice_decisions_are_distinct_and_repeatable() {
        let binding = SockShop::default().binding(500, THINK_TIME, &[0.33, 0.17, 0.5]);
        let scalable: Vec<_> = binding.scalable().collect();
        let genome = lattice_genome(&scalable);
        let a = lattice_decisions(&genome, |g| decode(&scalable, g), 8);
        let b = lattice_decisions(&genome, |g| decode(&scalable, g), 8);
        assert_eq!(a, b);
        for (i, d) in a.iter().enumerate() {
            assert!(!a[..i].contains(d));
        }
    }
}
