//! The four workloads.
//!
//! Each is a [`Workload`]: an untimed [`set_up`](Workload::set_up) that
//! builds everything the repetitions run on, and a timed
//! [`repeat`](Workload::repeat). They drive the program through its
//! public API only, and every call into a layer goes through the
//! [`Tracer`], which costs one branch while tracing is off.
//!
//! | workload | simulate | decide | why |
//! |---|---|---|---|
//! | `des-sockshop` | many groups × few jobs | — | calendar, request chains, window accumulators |
//! | `des-wide` | few groups × many jobs | — | 1e6 pending timers, long processor scans |
//! | `decide-sweep` | — | light → saturated inputs | LQN solve, evaluator memo, GA, planner |
//! | `mapek-ramp` | ramp, spans + fabric on | every window | both paths at their real ratio |

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use atom_cluster::{AppSpec, Cluster, ScaleAction, WindowReport};
use atom_core::{Atom, Autoscaler, ModelBinding};
use atom_lqn::DecisionVector;
use atom_metrics::{CapacityTrace, CapacityWindow};

use crate::checks::{check_decision, check_window, Tally};
use crate::inputs::{self, DesInputs, LoopInputs, THINK_TIME};
use crate::trace::Tracer;

/// The spans the workloads record, in reporting order, each with the
/// per-layer metric that reports its share of the traced run.
pub const SPAN_SHARES: [(&str, &str); 7] = [
    ("setup", "trace.share_pct.setup"),
    ("cluster.new", "trace.share_pct.cluster.new"),
    ("cluster.run_window", "trace.share_pct.cluster.run_window"),
    ("cluster.take_spans", "trace.share_pct.cluster.take_spans"),
    ("scaler.decide", "trace.share_pct.scaler.decide"),
    (
        "cluster.schedule_scaling",
        "trace.share_pct.cluster.schedule_scaling",
    ),
    ("fold", "trace.share_pct.fold"),
];

/// FNV-1a over bytes: the digest of what was simulated and decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, report: &WindowReport) {
        let json = serde_json::to_string(report).expect("a window report serialises");
        self.update(json.as_bytes());
    }

    fn actions(&mut self, actions: &[ScaleAction]) {
        for a in actions {
            self.update(&(a.service.0 as u64).to_le_bytes());
            self.update(&(a.replicas as u64).to_le_bytes());
            self.update(&a.share.to_bits().to_le_bytes());
        }
        self.update(&[0xff]);
    }
}

/// What one timed repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds of the whole repetition.
    pub wall_s: f64,
    /// Simulated seconds it covered.
    pub sim_s: f64,
    /// Wall ms of each monitoring-window step: simulating the window,
    /// deciding on it, or both — whatever the workload does per window.
    pub window_wall_ms: Vec<f64>,
    /// Wall ms of each `Cluster::run_window` call.
    pub run_window_ms: Vec<f64>,
    /// Wall ms of each `Autoscaler::decide` call.
    pub decide_ms: Vec<f64>,
    /// DES events dispatched.
    pub events: u64,
    /// Client requests completed.
    pub requests: u64,
    /// Cross-server round trips the link fabric priced.
    pub net_transits: u64,
    /// GA candidate evaluations (memo hits included).
    pub evaluations: u64,
    /// Scaling actions issued.
    pub actions: u64,
    /// Digest after each window or decision, in order.
    pub digests: Vec<u64>,
    /// Per window, for the attribution estimate's operating point:
    /// time-averaged users.
    pub avg_users: Vec<f64>,
    /// Per window: time-averaged requests in the system.
    pub avg_in_system: Vec<f64>,
    /// Servers (one processor each) the requests spread over.
    pub servers: usize,
    /// Endpoint invocations completed: the jobs the processors served.
    pub jobs: f64,
    /// Under-provisioning time `T_u` (s), summed over services and runs.
    pub tu_s: f64,
    /// Under-provisioning area `A_u` (core-s), likewise.
    pub au_core_s: f64,
    /// The drift audit's last rolling residence sMAPE of each run.
    pub residence_smape: Vec<f64>,
    /// Checked operations.
    pub tally: Tally,
}

impl Rep {
    /// The digest after the repetition's last operation.
    pub fn digest(&self) -> u64 {
        self.digests.last().copied().unwrap_or_default()
    }

    /// Adds the GA candidate evaluations a decision's journal record
    /// counts.
    fn count_evaluations(&mut self, record: Option<&atom_obs::DecisionRecord>) {
        if let Some(e) = record.and_then(|r| r.evaluator) {
            self.evaluations += e.candidates;
        }
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Its fixed name.
    const NAME: &'static str;
    /// Fewest timed repetitions a run makes.
    const MIN_REPS: usize;

    /// Builds the state the repetitions run on. Untimed by the
    /// repetitions; timed as `setup_s`.
    fn set_up(seed: u64, tracer: &mut Tracer) -> Self;

    /// One timed repetition.
    fn repeat(&mut self, tracer: &mut Tracer) -> Rep;

    /// Digest of what set-up simulated (0 when it simulates nothing).
    fn setup_digest(&self) -> u64;

    /// |analytic-model TPS − simulated TPS| / simulated TPS in percent
    /// over the given repetitions, for workloads that hold the system at
    /// one steady state (0 elsewhere: there is no single state to model).
    fn model_tps_err_pct(&self, _reps: &[Rep]) -> f64 {
        0.0
    }

    /// Checks across repetitions (same input ⇒ same output).
    fn cross_check(&self, _reps: &[Rep]) -> Tally {
        Tally::default()
    }
}

/// The MAPE-K loop of `atom_core::run_experiment`, written out so that
/// each call into a layer can carry a span and a wall-clock sample:
/// monitor a window → drain spans → decide → schedule the actions →
/// fold the window into the results.
struct WindowLoop<'a> {
    spec: &'a AppSpec,
    mix: Vec<f64>,
    window_secs: f64,
    digest: Digest,
    capacity: Vec<CapacityTrace>,
    reports: Vec<WindowReport>,
}

impl<'a> WindowLoop<'a> {
    fn new(spec: &'a AppSpec, mix: &[f64], window_secs: f64) -> Self {
        WindowLoop {
            spec,
            mix: mix.to_vec(),
            window_secs,
            digest: Digest::default(),
            capacity: vec![CapacityTrace::new(); spec.services.len()],
            reports: Vec::new(),
        }
    }

    /// Runs `windows` windows of `cluster`, with `scaler` deciding after
    /// each when there is one. `op` numbers the windows.
    fn run(
        &mut self,
        cluster: &mut Cluster,
        mut scaler: Option<(&mut Atom, &ModelBinding)>,
        windows: usize,
        op: &mut u64,
        tracer: &mut Tracer,
        rep: &mut Rep,
    ) {
        let events_before = cluster.telemetry().total_events();
        let transits_before = cluster.telemetry().net_transit_events;
        for _ in 0..windows {
            *op += 1;
            let started = Instant::now();
            let secs = self.window_secs;
            let report = tracer.span("cluster.run_window", *op, || cluster.run_window(secs));
            rep.run_window_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            // Drained per window, as `run_experiment` does (empty unless
            // span sampling is on).
            drop(tracer.span("cluster.take_spans", *op, || cluster.take_spans()));
            let mut issued: Option<Vec<ScaleAction>> = Some(Vec::new());
            let mut record = None;
            if let Some((atom, binding)) = scaler.as_mut() {
                let deciding = Instant::now();
                issued = tracer.span("scaler.decide", *op, || {
                    catch_unwind(AssertUnwindSafe(|| atom.decide(&report))).ok()
                });
                rep.decide_ms.push(deciding.elapsed().as_secs_f64() * 1e3);
                rep.tally.record(check_decision(binding, issued.as_deref()));
                if let Some(actions) = issued.as_ref().filter(|a| !a.is_empty()) {
                    let delay = atom.actuation_delay();
                    tracer.span("cluster.schedule_scaling", *op, || {
                        cluster.schedule_scaling(actions.clone(), delay);
                    });
                }
                record = atom.take_decision_record();
            }
            let fold = tracer.begin("fold", *op);
            self.fold(&report, issued.as_deref().unwrap_or_default(), rep);
            if let Some(smape) = record
                .as_ref()
                .and_then(|r| r.drift.as_ref())
                .and_then(|d| d.rolling_smape)
            {
                // Overwritten each window: the run's last audit stays.
                *rep.residence_smape.last_mut().expect("a run is open") = smape;
            }
            rep.count_evaluations(record.as_ref());
            self.reports.push(report);
            tracer.end(fold);
            rep.window_wall_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
        }
        rep.sim_s += windows as f64 * self.window_secs;
        rep.events += cluster.telemetry().total_events() - events_before;
        rep.net_transits += cluster.telemetry().net_transit_events - transits_before;
    }

    /// Folds one window into the digest, the counters and the capacity
    /// traces behind `T_u` / `A_u` (required capacity from the window's
    /// *offered* load, as `run_experiment` computes it).
    fn fold(&mut self, report: &WindowReport, actions: &[ScaleAction], rep: &mut Rep) {
        self.digest.report(report);
        self.digest.actions(actions);
        rep.digests.push(self.digest.0);
        rep.requests += report.feature_counts.iter().sum::<u64>();
        rep.actions += actions.len() as u64;
        rep.avg_users.push(report.avg_users);
        rep.avg_in_system.push(report.avg_in_system);
        rep.servers = self.spec.servers.len();
        rep.jobs += report.endpoint_tps.iter().flatten().sum::<f64>() * report.duration();
        let required = self
            .spec
            .required_cores(&self.mix, report.avg_users / THINK_TIME);
        for (si, trace) in self.capacity.iter_mut().enumerate() {
            trace.push(CapacityWindow {
                start: report.start,
                end: report.end,
                required: required[si],
                allocated: report.service_alloc_cores[si],
            });
        }
    }

    /// Checks the windows run so far (outside any timed region) and adds
    /// the run's `T_u` / `A_u` to `rep`.
    fn finish(self, rep: &mut Rep) {
        let mut previous = None;
        for report in &self.reports {
            rep.tally
                .record(check_window(self.spec, THINK_TIME, report, previous));
            previous = Some(report);
        }
        rep.tu_s += self
            .capacity
            .iter()
            .map(CapacityTrace::underprovision_time)
            .sum::<f64>();
        rep.au_core_s += self
            .capacity
            .iter()
            .map(CapacityTrace::underprovision_area)
            .sum::<f64>();
    }
}

/// Every repetition runs the same inputs, so every repetition must end
/// each window (and each decision) on the digest the first one did, and
/// start with the windows set-up's warm-up run saw.
fn reproduces(reps: &[Rep], warmup: &[u64]) -> Tally {
    let mut tally = Tally::default();
    for (i, rep) in reps.iter().enumerate() {
        let same = rep.digests.starts_with(warmup) && rep.digests == reps[0].digests;
        tally.record(if same {
            Ok(())
        } else {
            Err(format!(
                "repetition {i} did not reproduce the windows and actions of the same inputs"
            ))
        });
    }
    tally
}

/// A DES-only workload: a constant population, no autoscaler. Every
/// repetition deploys a fresh cluster and simulates the same windows.
///
/// A fresh cluster, rather than one long-lived one, because a cluster
/// must not be run past 2^24 ms (4.66 simulated hours): the Little's-law
/// check of this benchmark found that `atom_sim::TimerWheel` re-files
/// events that overflowed its top level only once the wheel is empty, so
/// think timers scheduled across a top-level boundary can sit out hours
/// of simulated time while in-flight requests keep the wheel occupied
/// (throughput drops from 32 to 1 req/s at N = 250). Fixing the wheel is
/// a later issue; until then no workload here crosses that boundary.
pub struct Des<K> {
    inputs: DesInputs,
    /// Digests of the set-up's warm-up windows.
    warmup: Vec<u64>,
    kind: PhantomData<K>,
}

/// Which DES-only workload a [`Des`] is: its name and its inputs.
pub trait DesKind {
    /// The workload's fixed name.
    const NAME: &'static str;
    /// Its inputs for `seed`.
    fn inputs(seed: u64) -> DesInputs;
}

/// `des-sockshop`: see [`inputs::des_sockshop`].
pub struct Sockshop;

impl DesKind for Sockshop {
    const NAME: &'static str = "des-sockshop";
    fn inputs(seed: u64) -> DesInputs {
        inputs::des_sockshop(seed)
    }
}

/// `des-wide`: see [`inputs::des_wide`].
pub struct Wide;

impl DesKind for Wide {
    const NAME: &'static str = "des-wide";
    fn inputs(seed: u64) -> DesInputs {
        inputs::des_wide(seed)
    }
}

/// The `des-sockshop` workload.
pub type DesSockshop = Des<Sockshop>;
/// The `des-wide` workload.
pub type DesWide = Des<Wide>;

/// Deploys a fresh cluster of `inputs` and simulates `windows` windows.
fn simulate(inputs: &DesInputs, windows: usize, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut lp = WindowLoop::new(
        &inputs.spec,
        inputs.workload.mix.fractions(),
        inputs.window_secs,
    );
    let started = Instant::now();
    let mut cluster = tracer.span("cluster.new", 0, || {
        Cluster::new(
            &inputs.spec,
            inputs.workload.clone(),
            inputs.options.clone(),
        )
        .expect("the generated inputs are valid")
    });
    lp.run(&mut cluster, None, windows, &mut 0, tracer, &mut rep);
    rep.wall_s = started.elapsed().as_secs_f64();
    lp.finish(&mut rep);
    rep
}

impl<K: DesKind> Workload for Des<K> {
    const NAME: &'static str = K::NAME;
    const MIN_REPS: usize = 3;

    fn set_up(seed: u64, tracer: &mut Tracer) -> Self {
        let inputs = K::inputs(seed);
        let warm = simulate(&inputs, inputs.warmup_windows, tracer);
        Des {
            warmup: warm.digests,
            inputs,
            kind: PhantomData,
        }
    }

    fn repeat(&mut self, tracer: &mut Tracer) -> Rep {
        simulate(&self.inputs, self.inputs.rep_windows, tracer)
    }

    fn setup_digest(&self) -> u64 {
        self.warmup.last().copied().unwrap_or_default()
    }

    fn cross_check(&self, reps: &[Rep]) -> Tally {
        reproduces(reps, &self.warmup)
    }

    /// Analytic-LQN TPS of the deployed configuration against the DES's
    /// mean TPS over `reps`.
    fn model_tps_err_pct(&self, reps: &[Rep]) -> f64 {
        let sim_s: f64 = reps.iter().map(|r| r.sim_s).sum();
        let requests: u64 = reps.iter().map(|r| r.requests).sum();
        if sim_s <= 0.0 || requests == 0 {
            return 0.0;
        }
        let simulated = requests as f64 / sim_s;
        let predicted =
            atom_core::optimizer::predicted_tps(&self.inputs.binding.model, &DecisionVector::new())
                .expect("the deployed configuration solves");
        100.0 * (predicted - simulated).abs() / simulated
    }
}

/// Runs one closed-loop experiment of `input` for `windows` windows:
/// fresh cluster, fresh controller.
fn run_loop(
    spec: &AppSpec,
    input: &LoopInputs,
    windows: usize,
    op: &mut u64,
    tracer: &mut Tracer,
    rep: &mut Rep,
) {
    let mut cluster = tracer.span("cluster.new", *op, || {
        Cluster::new(spec, input.workload.clone(), input.options.clone())
            .expect("the generated inputs are valid")
    });
    let mut atom = Atom::new(input.binding.clone(), input.config.clone());
    rep.residence_smape.push(0.0);
    let mut lp = WindowLoop::new(spec, input.workload.mix.fractions(), input.window_secs);
    lp.run(
        &mut cluster,
        Some((&mut atom, &input.binding)),
        windows,
        op,
        tracer,
        rep,
    );
    lp.finish(rep);
}

/// `mapek-ramp`: see [`inputs::mapek_ramp`].
pub struct MapekRamp {
    spec: AppSpec,
    inputs: Vec<LoopInputs>,
    /// Digests of the set-up's warm-up windows (a prefix of the first
    /// mix's run): every pass must reproduce them.
    warmup: Vec<u64>,
}

/// Windows of the first mix that `mapek-ramp`'s set-up runs untimed.
const MAPEK_WARMUP_WINDOWS: usize = 3;

impl Workload for MapekRamp {
    const NAME: &'static str = "mapek-ramp";
    const MIN_REPS: usize = 1;

    fn set_up(seed: u64, tracer: &mut Tracer) -> Self {
        let spec = atom_sockshop::SockShop::default().app_spec();
        let inputs = inputs::mapek_ramp(seed);
        let mut warm = Rep::default();
        run_loop(
            &spec,
            &inputs[0],
            MAPEK_WARMUP_WINDOWS,
            &mut 0,
            tracer,
            &mut warm,
        );
        MapekRamp {
            spec,
            inputs,
            warmup: warm.digests,
        }
    }

    fn repeat(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut op = 0;
        let started = Instant::now();
        for input in &self.inputs {
            run_loop(&self.spec, input, input.windows, &mut op, tracer, &mut rep);
        }
        rep.wall_s = started.elapsed().as_secs_f64();
        rep
    }

    fn setup_digest(&self) -> u64 {
        self.warmup.last().copied().unwrap_or_default()
    }

    fn cross_check(&self, reps: &[Rep]) -> Tally {
        reproduces(reps, &self.warmup)
    }
}

/// `decide-sweep`: see [`inputs::decide_sweep`].
pub struct DecideSweep {
    /// The recorded controller inputs: which recording run (hence which
    /// binding), and the window report.
    recorded: Vec<(usize, WindowReport)>,
    inputs: Vec<LoopInputs>,
    setup_digest: u64,
}

impl Workload for DecideSweep {
    const NAME: &'static str = "decide-sweep";
    const MIN_REPS: usize = 2;

    fn set_up(seed: u64, tracer: &mut Tracer) -> Self {
        let spec = atom_sockshop::SockShop::default().app_spec();
        let inputs = inputs::decide_sweep(seed);
        let mut recorded = Vec::new();
        let mut digest = Digest::default();
        for (mi, input) in inputs.iter().enumerate() {
            let mut cluster = tracer.span("cluster.new", 0, || {
                Cluster::new(&spec, input.workload.clone(), input.options.clone())
                    .expect("the generated inputs are valid")
            });
            for w in 0..input.windows {
                let report = tracer.span("cluster.run_window", w as u64, || {
                    cluster.run_window(input.window_secs)
                });
                digest.report(&report);
                recorded.push((mi, report));
            }
        }
        DecideSweep {
            recorded,
            inputs,
            setup_digest: digest.0,
        }
    }

    fn repeat(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Digest::default();
        let started = Instant::now();
        for (op, (mi, report)) in self.recorded.iter().enumerate() {
            let op = op as u64 + 1;
            let input = &self.inputs[*mi];
            let step = Instant::now();
            let mut atom = Atom::new(input.binding.clone(), input.config.clone());
            let deciding = Instant::now();
            let actions = tracer.span("scaler.decide", op, || {
                catch_unwind(AssertUnwindSafe(|| atom.decide(report))).ok()
            });
            rep.decide_ms.push(deciding.elapsed().as_secs_f64() * 1e3);
            let fold = tracer.begin("fold", op);
            rep.tally
                .record(check_decision(&input.binding, actions.as_deref()));
            let actions = actions.unwrap_or_default();
            digest.actions(&actions);
            rep.digests.push(digest.0);
            rep.actions += actions.len() as u64;
            rep.count_evaluations(atom.take_decision_record().as_ref());
            rep.sim_s += report.duration();
            tracer.end(fold);
            rep.window_wall_ms.push(step.elapsed().as_secs_f64() * 1e3);
        }
        rep.wall_s = started.elapsed().as_secs_f64();
        rep
    }

    fn setup_digest(&self) -> u64 {
        self.setup_digest
    }

    fn cross_check(&self, reps: &[Rep]) -> Tally {
        reproduces(reps, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_core::{run_experiment, ExperimentConfig};
    use atom_ga::Budget;

    /// The written-out loop must measure what `run_experiment` measures.
    #[test]
    fn the_window_loop_reproduces_run_experiment() {
        let spec = atom_sockshop::SockShop::default().app_spec();
        let mut input = inputs::mapek_ramp(3).swap_remove(2);
        input.config.ga.budget = Budget::Evaluations(60);
        input.window_secs = 60.0;
        let windows = 4;

        let mut rep = Rep::default();
        run_loop(&spec, &input, windows, &mut 0, &mut Tracer::off(), &mut rep);

        let mut atom = Atom::new(input.binding.clone(), input.config.clone());
        let reference = run_experiment(
            &spec,
            input.workload.clone(),
            &mut atom,
            ExperimentConfig {
                windows,
                window_secs: input.window_secs,
                cluster: input.options.clone(),
            },
        )
        .expect("the reference run starts");

        assert_eq!(rep.tu_s, reference.underprovision_time(None));
        assert_eq!(rep.au_core_s, reference.underprovision_area(None));
        assert_eq!(rep.actions as usize, reference.actions.len());
        assert_eq!(rep.events, reference.telemetry.cluster.total_events());
        let requests: u64 = reference
            .reports
            .iter()
            .flat_map(|r| r.feature_counts.iter())
            .sum();
        assert_eq!(rep.requests, requests);
        assert_eq!(
            (rep.tally.failed, rep.tally.attempted),
            (0, 2 * windows as u64)
        );
        assert_eq!(rep.window_wall_ms.len(), windows);
        assert_eq!(rep.decide_ms.len(), windows);
        assert!(rep.evaluations > 0 && rep.net_transits > 0);
        assert!(!reference.telemetry.spans.is_empty());
    }

    #[test]
    fn the_decide_sweep_repeats_itself_and_reads_its_seed() {
        let mut off = Tracer::off();
        let mut a = DecideSweep::set_up(5, &mut off);
        for input in &mut a.inputs {
            input.config.ga.budget = Budget::Evaluations(40);
        }
        a.recorded.truncate(3);
        let first = a.repeat(&mut off);
        let second = a.repeat(&mut off);
        assert_eq!(first.digests, second.digests);
        assert_eq!(first.decide_ms.len(), 3);
        assert_eq!(a.cross_check(&[first, second]).failed, 0);
        assert_eq!(
            a.setup_digest(),
            DecideSweep::set_up(5, &mut off).setup_digest()
        );
        assert_ne!(
            a.setup_digest(),
            DecideSweep::set_up(6, &mut off).setup_digest()
        );
    }

    #[test]
    fn a_des_repetition_counts_events_and_passes_its_checks() {
        /// `des-sockshop`, shortened.
        struct Short;
        impl DesKind for Short {
            const NAME: &'static str = "short";
            fn inputs(seed: u64) -> DesInputs {
                DesInputs {
                    warmup_windows: 1,
                    rep_windows: 2,
                    ..inputs::des_sockshop(seed)
                }
            }
        }
        let mut off = Tracer::off();
        let mut des = Des::<Short>::set_up(1, &mut off);
        let rep = des.repeat(&mut off);
        assert_eq!(rep.sim_s, 600.0);
        assert!(rep.events > rep.requests && rep.requests > 0);
        assert_eq!(
            (rep.tally.attempted, rep.tally.failed),
            (2, 0),
            "{:?}",
            rep.tally
        );
        assert!(des.model_tps_err_pct(std::slice::from_ref(&rep)) < 10.0);
        // A fresh cluster per repetition: the same windows every time,
        // starting with the ones the warm-up saw.
        let again = des.repeat(&mut off);
        assert_eq!(reproduces(&[rep, again], &des.warmup).failed, 0);
    }
}
