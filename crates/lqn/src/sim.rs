//! Discrete-event simulation of an LQN (the LQSIM stand-in).
//!
//! The simulator executes the LQN's semantics directly:
//!
//! * the reference task is a closed population of users alternating
//!   exponential think times and synchronous requests drawn from the
//!   request mix (the client entry's call means);
//! * each server task has `replicas` replicas; a replica is a container on
//!   its processor — a [`PsProcessor`] group capped at the task's usable
//!   cores — with a thread pool of `multiplicity` threads and a FIFO
//!   admission queue; callers pick replicas round-robin (the router);
//! * an invocation holds a thread for its whole lifetime: it first
//!   executes its host demand on the CPU (exponentially distributed around
//!   the mean by default, for honest model-vs-measurement comparisons),
//!   then performs its synchronous calls one at a time, blocking on each.
//!
//! Output is an [`LqnSolution`], so analytic and simulated results diff
//! directly (paper Tables III/IV, Fig. 5).

use atom_sim::processor::{GroupId, PsProcessor};
use atom_sim::{Due, Engine, ProcessorTable, SimRng};

use crate::error::LqnError;
use crate::model::{EntryId, LqnModel, TaskId, TaskKind};
use crate::solution::LqnSolution;

/// Options for [`simulate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Simulated horizon in seconds (measurement stops here).
    pub horizon: f64,
    /// Warm-up period discarded from all statistics.
    pub warmup: f64,
    /// RNG seed.
    pub seed: u64,
    /// Coefficient of variation of service demands: 1.0 reproduces
    /// exponential demands (LQSIM's default); 0.0 makes them
    /// deterministic.
    pub demand_cv: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            horizon: 600.0,
            warmup: 60.0,
            seed: 1,
            demand_cv: 1.0,
        }
    }
}

/// The simulator's timers; processor completions come from the
/// engine's due index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A user finished thinking and issues its next request.
    UserReady { user: usize },
    /// An invocation finished its pure-latency (non-CPU) stage.
    LatencyDone { inv: usize },
}

#[derive(Debug, Clone, Copy)]
enum InvState {
    /// Waiting in a replica's admission queue.
    Queued,
    /// Executing host demand on the CPU.
    Executing,
    /// Blocked on the `idx`-th expanded call.
    Calling { idx: usize },
}

#[derive(Debug, Clone)]
struct Invocation {
    entry: EntryId,
    task: usize,
    replica: usize,
    /// Caller invocation to resume on completion; `None` for client-level
    /// requests.
    caller: Option<usize>,
    /// Client user that ultimately issued this chain (for cycle metrics).
    user: usize,
    state: InvState,
    /// Expanded call list (entry repeated per sampled invocation count).
    calls: Vec<EntryId>,
    arrival_time: f64,
    service_start: f64,
}

struct Replica {
    group: GroupId,
    busy_threads: usize,
    queue: std::collections::VecDeque<usize>,
}

struct TaskRt {
    processor: usize,
    threads: usize,
    replicas: Vec<Replica>,
    next_replica: usize,
    wait_sum: f64,
    wait_count: u64,
}

/// Simulates the model and returns measured metrics.
///
/// # Errors
///
/// * [`LqnError::InvalidModel`] — no/multiple reference tasks or a cyclic
///   call graph;
/// * [`LqnError::InvalidParameter`] — non-positive horizon, negative
///   warm-up, warm-up ≥ horizon, or negative `demand_cv`.
///
/// # Examples
///
/// ```
/// use atom_lqn::model::LqnModel;
/// use atom_lqn::sim::{simulate, SimOptions};
/// # fn main() -> Result<(), atom_lqn::LqnError> {
/// let mut m = LqnModel::new();
/// let p = m.add_processor("cpu", 1, 1.0);
/// let t = m.add_task("svc", p, 4, 1)?;
/// let e = m.add_entry("op", t, 0.05)?;
/// let c = m.add_reference_task("users", 5, 1.0)?;
/// m.add_call(m.reference_entry(c)?, e, 1.0)?;
/// let opts = SimOptions { horizon: 50.0, warmup: 5.0, ..Default::default() };
/// let sol = simulate(&m, opts)?;
/// assert!(sol.client_throughput > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn simulate(model: &LqnModel, options: SimOptions) -> Result<LqnSolution, LqnError> {
    if !(options.horizon > 0.0 && options.horizon.is_finite()) {
        return Err(LqnError::InvalidParameter {
            what: format!("horizon must be positive, got {}", options.horizon),
        });
    }
    if !(options.warmup >= 0.0 && options.warmup < options.horizon) {
        return Err(LqnError::InvalidParameter {
            what: "warmup must satisfy 0 <= warmup < horizon".into(),
        });
    }
    if options.demand_cv < 0.0 || options.demand_cv.is_nan() {
        return Err(LqnError::InvalidParameter {
            what: "demand_cv must be >= 0".into(),
        });
    }
    model.topo_order()?; // rejects cycles
    let reference = model.the_reference_task()?;
    let ref_entry = model.reference_entry(reference)?;
    let (population, think_time) = match model.task(reference).kind {
        TaskKind::Reference { think_time } => (model.task(reference).multiplicity, think_time),
        TaskKind::Server => unreachable!(),
    };

    let mut sim = SimulatorState::build(model, options, reference);
    sim.run(model, population, think_time, ref_entry);
    Ok(sim.into_solution(model, options, reference))
}

struct SimulatorState {
    rng: SimRng,
    engine: Engine<Event>,
    /// The processors, with the invocation of each executing CPU job.
    processors: ProcessorTable<usize>,
    tasks: Vec<Option<TaskRt>>,
    invocations: Vec<Option<Invocation>>,
    free_invs: Vec<usize>,
    options: SimOptions,
    // --- measurement ---
    entry_completions: Vec<u64>,
    entry_residence_sum: Vec<f64>,
    entry_service_sum: Vec<f64>,
    cycle_completions: u64,
    cycle_response_sum: f64,
    /// Busy core-second snapshots taken at warm-up end.
    proc_busy_at_warmup: Vec<f64>,
    task_busy_at_warmup: Vec<f64>,
    think_time: f64,
}

impl SimulatorState {
    fn build(model: &LqnModel, options: SimOptions, reference: TaskId) -> Self {
        let mut processors: Vec<PsProcessor> = model
            .processors()
            .iter()
            .map(|p| PsProcessor::new((p.cores.min(1 << 20)) as f64, p.speed))
            .collect();
        let mut tasks = Vec::new();
        for (ti, t) in model.tasks().iter().enumerate() {
            if ti == reference.0 || t.is_reference() {
                tasks.push(None);
                continue;
            }
            let cap = t.usable_cores_per_replica();
            let replicas = (0..t.replicas)
                .map(|_| Replica {
                    group: processors[t.processor.0].add_group(cap),
                    busy_threads: 0,
                    queue: std::collections::VecDeque::new(),
                })
                .collect();
            tasks.push(Some(TaskRt {
                processor: t.processor.0,
                threads: t.multiplicity,
                replicas,
                next_replica: 0,
                wait_sum: 0.0,
                wait_count: 0,
            }));
        }
        let ne = model.entries().len();
        SimulatorState {
            rng: SimRng::seed_from(options.seed),
            engine: Engine::new(processors.len()),
            processors: ProcessorTable::new(processors),
            tasks,
            invocations: Vec::new(),
            free_invs: Vec::new(),
            options,
            entry_completions: vec![0; ne],
            entry_residence_sum: vec![0.0; ne],
            entry_service_sum: vec![0.0; ne],
            cycle_completions: 0,
            cycle_response_sum: 0.0,
            proc_busy_at_warmup: Vec::new(),
            task_busy_at_warmup: Vec::new(),
            think_time: 0.0,
        }
    }

    fn run(&mut self, model: &LqnModel, population: usize, think_time: f64, ref_entry: EntryId) {
        self.think_time = think_time;
        // Start every user thinking (random initial phase).
        for user in 0..population {
            let t = self.rng.exponential(think_time.max(1e-12));
            self.engine.push(t, Event::UserReady { user });
        }
        self.run_until(model, self.options.warmup, ref_entry);
        self.snapshot_warmup(model);
        self.run_until(model, self.options.horizon, ref_entry);
    }

    /// Handles every event due at or before `end`.
    fn run_until(&mut self, model: &LqnModel, end: f64, ref_entry: EntryId) {
        while let Some((now, due)) = self.engine.pop_due(end) {
            self.engine.now = now;
            match due {
                Due::Timer(Event::UserReady { user }) => {
                    self.user_ready(model, now, user, ref_entry)
                }
                Due::Timer(Event::LatencyDone { inv }) => self.proceed_to_calls(model, now, inv),
                Due::Completion { proc } => {
                    while let Some(inv) = self.processors.pop_finished(&mut self.engine, proc) {
                        self.demand_done(model, now, inv);
                    }
                }
            }
        }
    }

    /// Restarts the statistics at exactly `options.warmup`. The busy
    /// integrals are read, not advanced, so where the warm-up ends never
    /// changes the run itself.
    fn snapshot_warmup(&mut self, model: &LqnModel) {
        let warmup = self.options.warmup;
        self.proc_busy_at_warmup = (0..model.processors().len())
            .map(|pi| self.processors[pi].busy_core_seconds_at(warmup))
            .collect();
        self.task_busy_at_warmup = (0..model.tasks().len())
            .map(|ti| self.task_busy(ti, warmup))
            .collect();
        // Reset wait statistics so they reflect steady state only.
        for t in self.tasks.iter_mut().flatten() {
            t.wait_sum = 0.0;
            t.wait_count = 0;
        }
        for c in self.entry_completions.iter_mut() {
            *c = 0;
        }
        for s in self.entry_residence_sum.iter_mut() {
            *s = 0.0;
        }
        for s in self.entry_service_sum.iter_mut() {
            *s = 0.0;
        }
        self.cycle_completions = 0;
        self.cycle_response_sum = 0.0;
    }

    /// Busy core-seconds of task `ti`'s replicas up to `now`.
    fn task_busy(&self, ti: usize, now: f64) -> f64 {
        match &self.tasks[ti] {
            Some(rt) => {
                let p = &self.processors[rt.processor];
                rt.replicas
                    .iter()
                    .map(|r| p.group_busy_core_seconds_at(now, r.group))
                    .sum()
            }
            None => 0.0,
        }
    }

    /// Expands an entry's calls into a concrete sampled sequence.
    fn expand_calls(&mut self, model: &LqnModel, entry: EntryId) -> Vec<EntryId> {
        let mut out = Vec::new();
        for c in &model.entry(entry).calls {
            let count = self.rng.call_count(c.mean);
            out.extend(std::iter::repeat_n(c.target, count));
        }
        out
    }

    fn user_ready(&mut self, model: &LqnModel, now: f64, user: usize, ref_entry: EntryId) {
        let calls = self.expand_calls(model, ref_entry);
        if calls.is_empty() {
            // Mix sampled to zero requests this cycle: think again.
            self.complete_cycle(now, now, user);
            return;
        }
        // Model the client cycle as a virtual invocation with no demand.
        let inv = self.alloc_invocation(Invocation {
            entry: ref_entry,
            task: usize::MAX,
            replica: 0,
            caller: None,
            user,
            state: InvState::Calling { idx: 0 },
            calls,
            arrival_time: now,
            service_start: now,
        });
        let first = self.invocations[inv].as_ref().unwrap().calls[0];
        self.start_call(model, now, first, Some(inv), user);
    }

    fn alloc_invocation(&mut self, inv: Invocation) -> usize {
        match self.free_invs.pop() {
            Some(slot) => {
                self.invocations[slot] = Some(inv);
                slot
            }
            None => {
                self.invocations.push(Some(inv));
                self.invocations.len() - 1
            }
        }
    }

    fn start_call(
        &mut self,
        model: &LqnModel,
        now: f64,
        entry: EntryId,
        caller: Option<usize>,
        user: usize,
    ) {
        let task_id = model.entry(entry).task.0;
        let calls = self.expand_calls(model, entry);
        let rt = self.tasks[task_id].as_mut().expect("server task");
        let replica = rt.next_replica % rt.replicas.len();
        rt.next_replica = rt.next_replica.wrapping_add(1);
        let inv = self.alloc_invocation(Invocation {
            entry,
            task: task_id,
            replica,
            caller,
            user,
            state: InvState::Queued,
            calls,
            arrival_time: now,
            service_start: now,
        });
        let rt = self.tasks[task_id].as_mut().unwrap();
        if rt.replicas[replica].busy_threads < rt.threads {
            rt.replicas[replica].busy_threads += 1;
            self.begin_service(model, now, inv);
        } else {
            rt.replicas[replica].queue.push_back(inv);
        }
    }

    fn begin_service(&mut self, model: &LqnModel, now: f64, inv: usize) {
        let (entry, task_id, replica, arrival) = {
            let i = self.invocations[inv].as_ref().unwrap();
            (i.entry, i.task, i.replica, i.arrival_time)
        };
        {
            let rt = self.tasks[task_id].as_mut().unwrap();
            rt.wait_sum += now - arrival;
            rt.wait_count += 1;
        }
        let i = self.invocations[inv].as_mut().unwrap();
        i.service_start = now;
        i.state = InvState::Executing;
        let demand = self
            .rng
            .demand(model.entry(entry).demand, self.options.demand_cv);
        if demand == 0.0 {
            self.demand_done(model, now, inv);
            return;
        }
        let rt = self.tasks[task_id].as_ref().unwrap();
        let group = rt.replicas[replica].group;
        self.processors
            .add_job(&mut self.engine, rt.processor, group, demand, inv);
    }

    fn demand_done(&mut self, model: &LqnModel, now: f64, inv: usize) {
        // Pure-latency stage (I/O waits) before the synchronous calls.
        let entry = self.invocations[inv].as_ref().unwrap().entry;
        let latency = model.entry(entry).latency;
        if latency > 0.0 {
            let wait = self.rng.exponential(latency);
            self.engine.push(now + wait, Event::LatencyDone { inv });
            return;
        }
        self.proceed_to_calls(model, now, inv);
    }

    fn proceed_to_calls(&mut self, model: &LqnModel, now: f64, inv: usize) {
        // Proceed to calls (if any), else finish.
        let has_calls = !self.invocations[inv].as_ref().unwrap().calls.is_empty();
        if has_calls {
            self.invocations[inv].as_mut().unwrap().state = InvState::Calling { idx: 0 };
            let (target, user) = {
                let i = self.invocations[inv].as_ref().unwrap();
                (i.calls[0], i.user)
            };
            self.start_call(model, now, target, Some(inv), user);
        } else {
            self.finish_invocation(model, now, inv);
        }
    }

    fn child_done(&mut self, model: &LqnModel, now: f64, inv: usize) {
        let (next_idx, total, user, is_client) = {
            let i = self.invocations[inv].as_ref().unwrap();
            let idx = match i.state {
                InvState::Calling { idx } => idx + 1,
                _ => unreachable!("child completed while caller not in Calling state"),
            };
            (idx, i.calls.len(), i.user, i.task == usize::MAX)
        };
        if next_idx < total {
            self.invocations[inv].as_mut().unwrap().state = InvState::Calling { idx: next_idx };
            let target = self.invocations[inv].as_ref().unwrap().calls[next_idx];
            self.start_call(model, now, target, Some(inv), user);
        } else if is_client {
            let arrival = self.invocations[inv].as_ref().unwrap().arrival_time;
            self.release_invocation(inv);
            self.complete_cycle(arrival, now, user);
        } else {
            self.finish_invocation(model, now, inv);
        }
    }

    fn complete_cycle(&mut self, arrival: f64, now: f64, user: usize) {
        self.cycle_completions += 1;
        self.cycle_response_sum += now - arrival;
        let think = self.rng.exponential(self.think_time);
        self.engine.push(now + think, Event::UserReady { user });
    }

    fn finish_invocation(&mut self, model: &LqnModel, now: f64, inv: usize) {
        let (entry, task_id, replica, arrival, service_start, caller) = {
            let i = self.invocations[inv].as_ref().unwrap();
            (
                i.entry,
                i.task,
                i.replica,
                i.arrival_time,
                i.service_start,
                i.caller,
            )
        };
        self.entry_completions[entry.0] += 1;
        self.entry_residence_sum[entry.0] += now - arrival;
        self.entry_service_sum[entry.0] += now - service_start;
        self.release_invocation(inv);
        // Free the thread; admit the next queued invocation if any.
        let rt = self.tasks[task_id].as_mut().unwrap();
        if let Some(next) = rt.replicas[replica].queue.pop_front() {
            self.begin_service(model, now, next);
        } else {
            rt.replicas[replica].busy_threads -= 1;
        }
        if let Some(parent) = caller {
            self.child_done(model, now, parent);
        }
    }

    fn release_invocation(&mut self, inv: usize) {
        self.invocations[inv] = None;
        self.free_invs.push(inv);
    }

    fn into_solution(
        self,
        model: &LqnModel,
        options: SimOptions,
        _reference: TaskId,
    ) -> LqnSolution {
        let end = options.horizon;
        let span = end - options.warmup;
        let ne = model.entries().len();
        let nt = model.tasks().len();
        let np = model.processors().len();

        let mut entry_throughput = vec![0.0; ne];
        let mut entry_residence = vec![0.0; ne];
        let mut entry_service_time = vec![0.0; ne];
        for i in 0..ne {
            if self.entry_completions[i] > 0 {
                let n = self.entry_completions[i] as f64;
                entry_throughput[i] = n / span;
                entry_residence[i] = self.entry_residence_sum[i] / n;
                entry_service_time[i] = self.entry_service_sum[i] / n;
            }
        }
        let mut task_utilization = vec![0.0; nt];
        let mut task_wait = vec![0.0; nt];
        let mut processor_utilization = vec![0.0; np];
        for ti in 0..nt {
            let busy_end = self.task_busy(ti, end);
            if let Some(rt) = &self.tasks[ti] {
                let task = model.task(crate::model::TaskId(ti));
                let host = model.processor(task.processor).cores as f64;
                let alloc = task.replicas as f64 * task.usable_cores_per_replica().min(host);
                let base = self.task_busy_at_warmup.get(ti).copied().unwrap_or(0.0);
                if alloc > 0.0 && span > 0.0 {
                    task_utilization[ti] = (busy_end - base) / (alloc * span);
                }
                if rt.wait_count > 0 {
                    task_wait[ti] = rt.wait_sum / rt.wait_count as f64;
                }
            }
        }
        for (pi, u) in processor_utilization.iter_mut().enumerate() {
            let p = &self.processors[pi];
            let busy = p.busy_core_seconds_at(end) - self.proc_busy_at_warmup[pi];
            if span > 0.0 {
                *u = busy / (p.cores() * span);
            }
        }
        let client_throughput = if span > 0.0 {
            self.cycle_completions as f64 / span
        } else {
            0.0
        };
        let client_response_time = if self.cycle_completions > 0 {
            self.cycle_response_sum / self.cycle_completions as f64
        } else {
            0.0
        };
        LqnSolution {
            entry_throughput,
            entry_residence,
            entry_service_time,
            task_utilization,
            task_wait,
            processor_utilization,
            client_response_time,
            client_throughput,
            iterations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{solve, SolverOptions};

    fn repairman(demand: f64, replicas: usize, n: usize, z: f64) -> LqnModel {
        let mut m = LqnModel::new();
        let p = m.add_processor("cpu", 64, 1.0);
        let t = m.add_task("svc", p, 1, replicas).unwrap();
        m.set_cpu_share(t, Some(1.0)).unwrap();
        let e = m.add_entry("op", t, demand).unwrap();
        let c = m.add_reference_task("users", n, z).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), e, 1.0).unwrap();
        m
    }

    fn opts(horizon: f64, seed: u64) -> SimOptions {
        SimOptions {
            horizon,
            warmup: horizon * 0.2,
            seed,
            demand_cv: 1.0,
        }
    }

    #[test]
    fn matches_exact_mva_single_server() {
        let model = repairman(0.5, 1, 8, 2.0);
        let sol = simulate(&model, opts(4000.0, 11)).unwrap();
        let exact = {
            use atom_mva::{closed::solve_exact, ClassSpec, ClosedNetwork, Station};
            let net = ClosedNetwork::new(
                vec![Station::queueing("s", 1, vec![0.5])],
                vec![ClassSpec::new("c", 8, 2.0)],
            )
            .unwrap();
            solve_exact(&net).unwrap().throughput[0]
        };
        let rel = (sol.client_throughput - exact).abs() / exact;
        assert!(rel < 0.05, "sim {} vs exact {exact}", sol.client_throughput);
    }

    #[test]
    fn agrees_with_analytic_on_layered_model() {
        let mut m = LqnModel::new();
        let p1 = m.add_processor("s1", 4, 1.0);
        let p2 = m.add_processor("s2", 1, 1.0);
        let web = m.add_task("web", p1, 50, 2).unwrap();
        let db = m.add_task("db", p2, 8, 1).unwrap();
        let page = m.add_entry("page", web, 0.004).unwrap();
        let query = m.add_entry("query", db, 0.01).unwrap();
        m.add_call(page, query, 1.0).unwrap();
        let c = m.add_reference_task("users", 100, 2.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
            .unwrap();

        let sim = simulate(&m, opts(2000.0, 3)).unwrap();
        let ana = solve(&m, SolverOptions::default()).unwrap();
        let rel = (sim.client_throughput - ana.client_throughput).abs() / sim.client_throughput;
        assert!(
            rel < 0.10,
            "sim {} vs analytic {}",
            sim.client_throughput,
            ana.client_throughput
        );
        // Utilisations close too.
        let rel_u = (sim.processor_utilization[1] - ana.processor_utilization[1]).abs();
        assert!(
            rel_u < 0.08,
            "sim U {} ana U {}",
            sim.processor_utilization[1],
            ana.processor_utilization[1]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let model = repairman(0.1, 2, 10, 1.0);
        let a = simulate(&model, opts(200.0, 7)).unwrap();
        let b = simulate(&model, opts(200.0, 7)).unwrap();
        assert_eq!(a.client_throughput, b.client_throughput);
    }

    #[test]
    fn share_cap_limits_throughput() {
        let mut model = repairman(0.01, 1, 500, 1.0);
        let t = model.task_by_name("svc").unwrap();
        model.set_cpu_share(t, Some(0.5)).unwrap();
        let sol = simulate(&model, opts(500.0, 5)).unwrap();
        // Capacity 0.5/0.01 = 50/s.
        assert!(sol.client_throughput < 51.0, "X={}", sol.client_throughput);
        assert!(sol.client_throughput > 45.0, "X={}", sol.client_throughput);
    }

    #[test]
    fn rejects_bad_options() {
        let model = repairman(0.1, 1, 1, 1.0);
        assert!(simulate(
            &model,
            SimOptions {
                horizon: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(simulate(
            &model,
            SimOptions {
                horizon: 10.0,
                warmup: 10.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(simulate(
            &model,
            SimOptions {
                demand_cv: -1.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn fractional_call_means_average_out() {
        let mut m = LqnModel::new();
        let p = m.add_processor("cpu", 8, 1.0);
        let t = m.add_task("svc", p, 16, 1).unwrap();
        let e1 = m.add_entry("a", t, 0.001).unwrap();
        let e2 = m.add_entry("b", t, 0.001).unwrap();
        let c = m.add_reference_task("users", 50, 1.0).unwrap();
        let ce = m.reference_entry(c).unwrap();
        m.add_call(ce, e1, 0.7).unwrap();
        m.add_call(ce, e2, 0.3).unwrap();
        let sol = simulate(&m, opts(2000.0, 9)).unwrap();
        let ratio = sol.entry_throughput(e1) / sol.entry_throughput(e2);
        assert!((ratio - 7.0 / 3.0).abs() < 0.15, "ratio {ratio}");
    }
}
