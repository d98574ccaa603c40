//! The analytic layered solver.
//!
//! A layered solver in the spirit of LQNS with the Bard–Schweitzer
//! single-step MVA option used by ATOM (§IV-C). The closed workload is
//! solved by a **bracketed root-find on the client throughput** `X`: the
//! population balance `h(X) = N / (Z + R(X)) − X` is strictly decreasing,
//! so it crosses zero exactly once on `(0, N / (Z + R(0))]`. For each
//! probed `X` the layered contention equations below are solved
//! *directly* — closed forms per station and one bottom-up sweep of the
//! call graph — not by relaxation.
//!
//! # The equations at fixed `X`
//!
//! 1. **Execution times** `exec[e]` — the time an entry's host demand
//!    takes on the CPU, under a mean-field processor-sharing model with
//!    three rate caps: a single request uses at most
//!    [`request_cores`](crate::model::Task::request_cores) (share ∧ 1
//!    core); the executing requests of a task share its allocated cores
//!    (`replicas × usable_cores_per_replica`, bounded by the host); and
//!    all executing requests on a processor share its physical cores.
//!    Sharing only kicks in when the (arrival-theorem-adjusted) number of
//!    executing jobs exceeds the relevant capacity, so an idle system
//!    runs at full speed.
//! 2. **Blocking times** `s[e]` — execution plus pure latency plus
//!    synchronous nested calls, each contributing
//!    `mean × (thread wait at callee + s[callee] + net delay)`, composed
//!    bottom-up over the acyclic call graph. This is the layered part: a
//!    slow database inflates the front-end's thread holding time, which
//!    is how layered bottlenecks (paper Fig. 11) emerge.
//! 3. **Thread waits** `w[t]` — each server task is a multi-server
//!    station with `replicas × multiplicity` servers whose service time
//!    is the blocking time; waits use Schweitzer's approximation with the
//!    multi-server correction, capped by the population.
//!
//! Every coupling is monotone non-decreasing and bounded, so the
//! equations have a **least fixed point** — the state an undamped
//! iteration from the empty system climbs to — and that is the solution
//! reported. It is computed without iterating, from two structural
//! facts (`af = (N − 1) / N` is the arrival-theorem factor):
//!
//! * **Executing jobs are a closed subsystem.** With
//!   `u_t = X · Σ_e v_e D_e / speed` the task's offered CPU work,
//!   `busy_t = min(m_t, u_t · max(1/req_t, p_task(busy_t)/alloc_t,
//!   p_proc(Σ busy)/cores))` reads neither waits nor blocking times. On
//!   its own caps a task is a monotone piecewise-affine scalar map whose
//!   active piece has slope `ρ = u_t · af / alloc_t` — the task's
//!   *utilisation* — so its least fixed point is `c / (1 − ρ)`, or the
//!   thread clamp once `ρ ≥ 1`, where an iteration needs
//!   `ln(1/tol) / (1 − ρ)` passes: the geometric tail at `ρ → 1` is the
//!   contention plateau a relaxation crawls on, and it is exactly where
//!   GA candidates with too little share live. The processor term
//!   couples the tasks of one host through the scalar `Σ busy` only;
//!   its least fixed point is found by walking the breakpoints of that
//!   one piecewise-affine function (at most two per task).
//! * **Given `busy`, each wait has a closed form.** With `d = S_t / m_t`
//!   and `a = d · af · X_t`, `w = min(a · (w + d), d · N)` has the least
//!   fixed point `a d / (1 − a)` (or the cap once `a ≥ 1`), and `S_t`
//!   depends only on *callee* tasks. One sweep in task-topological order,
//!   callees first, therefore yields every `s` and `w` exactly. A call
//!   graph that is acyclic over entries but cyclic over tasks is re-swept
//!   until nothing moves, starting from the state at the bracket's lower
//!   end; each sweep still solves every task in closed form, so the
//!   iterates stay below the least fixed point and converge to it. (Such
//!   a graph can feed a task's wait back into its own blocking time
//!   without bound; then there is no finite fixed point and the solve
//!   ends in [`LqnError::NoConvergence`].)
//!
//! # The stopping rule
//!
//! Near a saturation knee `dR/dX` reaches 10³–10⁵ s per req/s, so a
//! narrow bracket on `X` says little about `R`. The root-find therefore
//! stops on the **residual of the population balance**,
//! `|X · (Z + R) − N| ≤ tol · N` with `tol = min(tolerance, 1e-9)`, which
//! bounds the relative error of `X` by the same `tol` (the balance's
//! slope in `X` is at least `Z + R`). When the bracket closes to adjacent
//! floats first — a knee steeper than `f64` resolves — the state is
//! interpolated between the bracket's two ends to the point that
//! balances the population. A solve that can do neither within
//! [`SolverOptions::max_iterations`] sweeps returns
//! [`LqnError::NoConvergence`].

use crate::error::LqnError;
use crate::model::{Entry, LqnModel, TaskId, TaskKind};
use crate::scaling::DecisionVector;
use crate::solution::LqnSolution;

/// Options for [`solve`].
///
/// The struct is `#[non_exhaustive]` so fields can be added without
/// breaking downstream crates: construct via [`SolverOptions::default`]
/// or [`SolverOptions::candidate`] and adjust with the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SolverOptions {
    /// Budget of layered sweeps for one solve, summed over the probes of
    /// the root-find; exhausting it is [`LqnError::NoConvergence`].
    pub max_iterations: usize,
    /// Relative tolerance on the population balance `X · (Z + R) = N`
    /// (values above `1e-9` are tightened to it), and on the re-sweeps
    /// of a task-cyclic call graph.
    pub tolerance: f64,
    /// Optional client-throughput hint, typically the solution of a
    /// *similar* configuration. The hint is probed first and, by the
    /// ordinary sign test, becomes one end of the bracket; a probe a
    /// little to its other side usually closes the bracket at once.
    /// Purely advisory: it never changes which root is found, and
    /// non-finite or non-positive hints are ignored.
    pub warm_start: Option<f64>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 20_000,
            tolerance: 1e-9,
            warm_start: None,
        }
    }
}

impl SolverOptions {
    /// The candidate-evaluation preset used for every GA/planner
    /// solve: a sweep budget extreme GA candidates cannot exhaust in
    /// practice.
    pub const fn candidate() -> Self {
        SolverOptions {
            max_iterations: 8_000,
            tolerance: 1e-7,
            warm_start: None,
        }
    }

    /// Returns the options with the given warm-start hint.
    pub const fn with_warm_start(mut self, hint: Option<f64>) -> Self {
        self.warm_start = hint;
        self
    }
}

/// The loosest residual of the population balance a solve may return
/// with, relative to `N`.
const BALANCE_TOLERANCE: f64 = 1e-9;

/// Telemetry left behind by one [`solve_with`] call, readable via
/// [`SolverWorkspace::last_solve`].
///
/// Purely observational: the stats are written after the solution is
/// computed and feed nothing back into the solver, so recording them
/// keeps results bitwise identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Layered sweeps across all probes (one per probe unless the call
    /// graph is task-cyclic).
    pub(crate) iterations: usize,
    /// Throughputs probed by the root-find, the empty-system probe
    /// included.
    pub probes: usize,
}

/// Reusable scratch buffers for [`solve_with`].
///
/// Holds the per-entry/per-task state vectors of a solve and the tables
/// derived from the model: the ones that depend only on the model's
/// *shape* — call graph, demands, hosts — are rebuilt only when the shape
/// differs from the previous solve's, so a caller that re-solves one
/// model under many scaling decisions (ATOM's optimizer evaluates
/// thousands of candidates per planning window) pays for them once.
/// Reuse is observationally transparent: results are bitwise identical
/// to a fresh workspace.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    shape: Shape,
    knobs: Knobs,
    at: State,
    lo: State,
    hi: State,
    stats: SolveStats,
}

impl SolverWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Telemetry from the most recent solve through this workspace
    /// (all-zero before the first solve).
    pub fn last_solve(&self) -> SolveStats {
        self.stats
    }
}

/// Tables that depend only on the model's shape: everything but the
/// scaling knobs (replicas, shares, thread counts) and the population.
#[derive(Debug, Clone, Default)]
struct Shape {
    /// What the tables were derived from, compared on every solve.
    entries: Vec<Entry>,
    /// Per task: hosting processor and whether it is the reference task.
    hosts: Vec<(usize, bool)>,
    /// Per processor: core speed.
    speeds: Vec<f64>,

    ref_task: usize,
    ref_entry: usize,
    /// Per entry: invocations per client cycle.
    visits: Vec<f64>,
    /// Per entry: owning task.
    owner: Vec<usize>,
    /// Per task: `Σ_e v_e` and `Σ_e v_e D_e / speed`.
    task_visits: Vec<f64>,
    task_demand: Vec<f64>,
    /// Tasks in sweep order, callees before callers when `layered`, each
    /// with its entries (intra-task callees first).
    sweep: Vec<(usize, Vec<usize>)>,
    /// Whether the call graph is acyclic over *tasks*, so that one sweep
    /// is exact.
    layered: bool,
    /// Per processor: the server tasks it hosts.
    hosted: Vec<Vec<usize>>,
}

impl Shape {
    /// Whether tables are built: a built shape has at least the
    /// reference entry.
    fn is_built(&self) -> bool {
        !self.entries.is_empty()
    }

    fn matches(&self, model: &LqnModel) -> bool {
        self.is_built()
            && self.entries == model.entries()
            && self.hosts.len() == model.tasks().len()
            && self
                .hosts
                .iter()
                .zip(model.tasks())
                .all(|(h, t)| *h == (t.processor.0, t.is_reference()))
            && self.speeds.len() == model.processors().len()
            && self
                .speeds
                .iter()
                .zip(model.processors())
                .all(|(s, p)| *s == p.speed)
    }

    fn rebuild(&mut self, model: &LqnModel) -> Result<(), LqnError> {
        // Invalidate first: an error below must not leave stale tables
        // that `matches` a later model.
        self.entries.clear();
        let reference = model.the_reference_task()?;
        let order = model.topo_order()?;
        let nt = model.tasks().len();

        self.ref_task = reference.0;
        self.ref_entry = model.reference_entry(reference)?.0;
        self.hosts = model
            .tasks()
            .iter()
            .map(|t| (t.processor.0, t.is_reference()))
            .collect();
        self.speeds = model.processors().iter().map(|p| p.speed).collect();
        self.owner = model.entries().iter().map(|e| e.task.0).collect();

        self.visits = model.visit_ratios()?;

        self.task_visits.clear();
        self.task_visits.resize(nt, 0.0);
        self.task_demand.clear();
        self.task_demand.resize(nt, 0.0);
        for (i, e) in model.entries().iter().enumerate() {
            let ti = e.task.0;
            self.task_visits[ti] += self.visits[i];
            self.task_demand[ti] += self.visits[i] * e.demand / self.speeds[self.hosts[ti].0];
        }

        self.hosted.clear();
        self.hosted.resize(model.processors().len(), Vec::new());
        for (ti, &(pi, is_ref)) in self.hosts.iter().enumerate() {
            if !is_ref {
                self.hosted[pi].push(ti);
            }
        }

        // Task-level topological order, callees first (Kahn on the
        // reversed task graph; a call within one task counts as a cycle).
        let mut callers_left = vec![0usize; nt];
        let mut calls: Vec<(usize, usize)> = Vec::new();
        for e in model.entries() {
            for c in &e.calls {
                let edge = (e.task.0, self.owner[c.target.0]);
                if !calls.contains(&edge) {
                    calls.push(edge);
                    callers_left[edge.0] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..nt).filter(|&t| callers_left[t] == 0).collect();
        let mut task_order = Vec::with_capacity(nt);
        while let Some(t) = ready.pop() {
            task_order.push(t);
            for &(caller, callee) in &calls {
                if callee == t {
                    callers_left[caller] -= 1;
                    if callers_left[caller] == 0 {
                        ready.push(caller);
                    }
                }
            }
        }
        self.layered = task_order.len() == nt;
        if !self.layered {
            // Any order converges under re-sweeping; first appearance in
            // the callee-first entry order does most of the work per sweep.
            task_order.clear();
            for e in order.iter().rev() {
                if !task_order.contains(&self.owner[e.0]) {
                    task_order.push(self.owner[e.0]);
                }
            }
        }
        self.sweep = task_order
            .into_iter()
            .map(|t| {
                let own = order.iter().rev().map(|e| e.0);
                (t, own.filter(|&e| self.owner[e] == t).collect())
            })
            .collect();

        self.entries.extend_from_slice(model.entries());
        Ok(())
    }
}

/// Tables that follow the scaling knobs and the population, refilled on
/// every solve.
#[derive(Debug, Clone, Default)]
struct Knobs {
    /// Per task: `1 / request_cores`, the slowdown of a lone request.
    lone_slowdown: Vec<f64>,
    /// Per task: cores its executing requests share. A replica can never
    /// use more cores than its host offers, which matters for uncapped
    /// tasks whose thread count exceeds the host.
    alloc_cores: Vec<f64>,
    /// Per task: threads over all replicas (`m_t`).
    threads: Vec<f64>,
    /// Per processor: cores, and server threads hosted.
    proc_cores: Vec<f64>,
    proc_threads: Vec<f64>,
    population: f64,
    think_time: f64,
    /// `(N − 1) / N`.
    arrival_factor: f64,
}

impl Knobs {
    fn refill(&mut self, model: &LqnModel, shape: &Shape) {
        let reference = &model.tasks()[shape.ref_task];
        self.population = reference.multiplicity as f64;
        self.think_time = match reference.kind {
            TaskKind::Reference { think_time } => think_time,
            TaskKind::Server => unreachable!("the_reference_task returned a server task"),
        };
        self.arrival_factor = (self.population - 1.0) / self.population;

        self.proc_cores.clear();
        self.proc_cores
            .extend(model.processors().iter().map(|p| p.cores as f64));
        self.proc_threads.clear();
        self.proc_threads.resize(self.proc_cores.len(), 0.0);
        self.lone_slowdown.clear();
        self.alloc_cores.clear();
        self.threads.clear();
        for (t, &(pi, is_ref)) in model.tasks().iter().zip(&shape.hosts) {
            let threads = (t.replicas * t.multiplicity) as f64;
            self.lone_slowdown.push(1.0 / t.request_cores());
            self.alloc_cores
                .push(t.replicas as f64 * t.usable_cores_per_replica().min(self.proc_cores[pi]));
            self.threads.push(threads);
            if !is_ref {
                self.proc_threads[pi] += threads;
            }
        }
    }
}

/// The layered state at one probed throughput.
#[derive(Debug, Clone, Default)]
struct State {
    /// Per task: executing jobs, and the wait for a thread.
    busy: Vec<f64>,
    w: Vec<f64>,
    /// Per task: slowdown of its executing requests (`exec / demand`).
    slowdown: Vec<f64>,
    /// Per entry: blocking time.
    s: Vec<f64>,
}

impl State {
    fn reset(&mut self, ne: usize, nt: usize) {
        for v in [&mut self.busy, &mut self.w, &mut self.slowdown] {
            v.clear();
            v.resize(nt, 0.0);
        }
        self.s.clear();
        self.s.resize(ne, 0.0);
    }

    /// Moves the waits and blocking times — what a solution reports —
    /// the fraction `theta` of the way to `other`'s.
    fn blend(&mut self, other: &State, theta: f64) {
        for (mine, theirs) in [(&mut self.w, &other.w), (&mut self.s, &other.s)] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += theta * (b - *a);
            }
        }
    }
}

/// Solves the model analytically. See the [module docs](self).
///
/// # Errors
///
/// * [`LqnError::InvalidModel`] — no/multiple reference tasks, cyclic call
///   graph, or a zero-length client cycle (no think time and no demand);
/// * [`LqnError::InvalidParameter`] — bad solver options;
/// * [`LqnError::NoConvergence`] — the population balance could not be
///   met within the sweep budget.
///
/// # Examples
///
/// ```
/// use atom_lqn::model::LqnModel;
/// use atom_lqn::analytic::{solve, SolverOptions};
/// # fn main() -> Result<(), atom_lqn::LqnError> {
/// let mut m = LqnModel::new();
/// let p = m.add_processor("cpu", 1, 1.0);
/// let t = m.add_task("svc", p, 4, 1)?;
/// let e = m.add_entry("op", t, 0.05)?;
/// let c = m.add_reference_task("users", 10, 1.0)?;
/// m.add_call(m.reference_entry(c)?, e, 1.0)?;
/// let sol = solve(&m, SolverOptions::default())?;
/// assert!(sol.client_throughput > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn solve(model: &LqnModel, options: SolverOptions) -> Result<LqnSolution, LqnError> {
    solve_with(model, options, &mut SolverWorkspace::new())
}

/// [`solve`] with caller-owned scratch buffers.
///
/// Behaviour and results are bitwise identical to [`solve`]; the only
/// difference is that repeated solves reuse the workspace's allocations
/// and shape tables. Use one workspace per thread in a solve loop.
///
/// # Errors
///
/// As for [`solve`].
pub fn solve_with(
    model: &LqnModel,
    options: SolverOptions,
    workspace: &mut SolverWorkspace,
) -> Result<LqnSolution, LqnError> {
    let mut solution = LqnSolution::default();
    solve_into(model, options, workspace, false, &mut solution)?;
    Ok(solution)
}

/// The one solver body behind [`solve_with`] and [`ScratchModel::solve`]:
/// solves `model` into `out`, reusing its buffers. With `fixed_shape`
/// the caller guarantees that `model` has the shape of the workspace's
/// tables once they are built, and they are not compared again.
fn solve_into(
    model: &LqnModel,
    options: SolverOptions,
    workspace: &mut SolverWorkspace,
    fixed_shape: bool,
    out: &mut LqnSolution,
) -> Result<(), LqnError> {
    if options.tolerance <= 0.0 || options.tolerance.is_nan() {
        return Err(LqnError::InvalidParameter {
            what: "tolerance must be positive".into(),
        });
    }
    let SolverWorkspace {
        shape,
        knobs,
        at,
        lo,
        hi,
        stats,
    } = workspace;
    *stats = SolveStats::default();
    let current = if fixed_shape {
        shape.is_built()
    } else {
        shape.matches(model)
    };
    if !current {
        shape.rebuild(model)?;
    }
    knobs.refill(model, shape);
    if knobs.population == 0.0 {
        let (ne, nt) = (model.entries().len(), model.tasks().len());
        zeroed(&mut out.entry_throughput, ne);
        zeroed(&mut out.entry_residence, ne);
        zeroed(&mut out.entry_service_time, ne);
        zeroed(&mut out.task_utilization, nt);
        zeroed(&mut out.task_wait, nt);
        zeroed(&mut out.processor_utilization, model.processors().len());
        out.client_response_time = 0.0;
        out.client_throughput = 0.0;
        out.iterations = 0;
        return Ok(());
    }

    let mut search = Search {
        model,
        shape,
        knobs,
        options: &options,
        balance_tolerance: options.tolerance.min(BALANCE_TOLERANCE),
        at,
        lo,
        hi,
        below: (0.0, 0.0),
        above: None,
        sweeps: 0,
        probes: 0,
    };
    let x_client = search.run()?;
    stats.iterations = search.sweeps;
    stats.probes = search.probes;
    finish(model, shape, knobs, at, x_client, stats.iterations, out);
    Ok(())
}

/// One model re-solved under many scaling decisions: the candidate
/// evaluator's scratch copy of a window model, with its own
/// [`SolverWorkspace`] and one solution that every solve overwrites.
///
/// A [`DecisionVector`] is applied for one solve and reverted after it,
/// and that is the only way the model changes: replicas and CPU shares
/// move, its shape — entries, calls, hosts, speeds — never does. So the
/// shape is checked against the workspace's tables only while they are
/// not built, at the first solve, instead of on every solve as
/// [`solve_with`] must. Results are bitwise identical to applying the
/// decision to a clone of the model and calling [`solve_with`].
#[derive(Debug, Clone)]
pub struct ScratchModel {
    model: LqnModel,
    workspace: SolverWorkspace,
    solution: LqnSolution,
    undo: Vec<(TaskId, usize, Option<f64>)>,
}

impl ScratchModel {
    /// Takes a copy of `model`: the one clone its solves ever make.
    pub fn new(model: &LqnModel) -> Self {
        ScratchModel {
            model: model.clone(),
            workspace: SolverWorkspace::new(),
            solution: LqnSolution::default(),
            undo: Vec::new(),
        }
    }

    /// Applies `decision`, solves, and reverts: the model is back in its
    /// base configuration on every exit path. `f` sees the configured
    /// model together with the solution.
    ///
    /// # Errors
    ///
    /// What [`DecisionVector::apply`] or [`solve_with`] would return.
    pub fn solve<R>(
        &mut self,
        decision: &DecisionVector,
        options: SolverOptions,
        f: impl FnOnce(&LqnModel, &LqnSolution) -> R,
    ) -> Result<R, LqnError> {
        self.undo.clear();
        for (task, _) in decision.iter() {
            // An unknown task has nothing to restore; apply() rejects it.
            if let Some(t) = self.model.tasks().get(task.0) {
                self.undo.push((task, t.replicas, t.cpu_share));
            }
        }
        let outcome = decision
            .apply(&mut self.model)
            .and_then(|()| {
                solve_into(
                    &self.model,
                    options,
                    &mut self.workspace,
                    true,
                    &mut self.solution,
                )
            })
            .map(|()| f(&self.model, &self.solution));
        for &(task, replicas, share) in self.undo.iter().rev() {
            // Restoring previously-valid values cannot fail.
            let _ = self.model.set_replicas(task, replicas);
            let _ = self.model.set_cpu_share(task, share);
        }
        outcome
    }
}

/// Least fixed point of `b = u · max(lone, min(af·b + 1, m) / alloc)`:
/// the executing jobs of a task offered `u` cores of work, on its own
/// caps (the processor's share enters afterwards, as a floor).
fn own_busy(u: f64, lone: f64, alloc: f64, m: f64, af: f64) -> f64 {
    let floor = u * lone;
    if u * (af * floor + 1.0) / alloc <= floor {
        return floor;
    }
    // The sharing piece `b = ρ·b + u/alloc` is active above the floor.
    let rho = u * af / alloc;
    if rho < 1.0 {
        let b = u / alloc / (1.0 - rho);
        if af * b + 1.0 <= m {
            return b;
        }
    }
    floor.max(u * m / alloc)
}

/// Least `q` with `cores · q = min(af · G(q) + 1, pool)`, where
/// `G(q) = Σ_t clamp(u_t · q, base_t, m_t)` are the executing jobs of a
/// processor whose per-job share slows every task by at least `q`:
/// walks the breakpoints of the piecewise-affine `G` upward from `q`, a
/// lower bound of the answer.
fn contended_share(
    tasks: impl Iterator<Item = (f64, f64, f64)> + Clone, // (u, base, m)
    mut q: f64,
    af: f64,
    cores: f64,
    pool: f64,
) -> f64 {
    let q_max = pool / cores;
    if af == 0.0 {
        return q;
    }
    loop {
        let (mut g, mut slope, mut next) = (0.0, 0.0, q_max);
        for (u, base, m) in tasks.clone() {
            g += (u * q).clamp(base, m);
            if u > 0.0 {
                let (rise, cap) = (base / u, m / u);
                if rise <= q && q < cap {
                    slope += u;
                }
                for breakpoint in [rise, cap] {
                    if breakpoint > q && breakpoint < next {
                        next = breakpoint;
                    }
                }
            }
        }
        // On this piece G(q') = g + slope·(q' − q).
        let denom = cores - af * slope;
        if denom > 0.0 {
            let root = (af * (g - slope * q) + 1.0) / denom;
            if root <= next {
                return root.max(q);
            }
        }
        if next >= q_max {
            return q_max;
        }
        q = next;
    }
}

/// Executing jobs and slowdowns at client throughput `x`: the closed
/// subsystem of the module docs, processor by processor.
fn solve_busy(shape: &Shape, k: &Knobs, st: &mut State, x: f64) {
    let af = k.arrival_factor;
    for (pi, hosted) in shape.hosted.iter().enumerate() {
        let cores = k.proc_cores[pi];
        let pool = k.proc_threads[pi].max(1.0);
        let offered = |ti: usize| x * shape.task_demand[ti];
        let mut total = 0.0;
        for &ti in hosted {
            let m = k.threads[ti];
            let own = own_busy(offered(ti), k.lone_slowdown[ti], k.alloc_cores[ti], m, af);
            st.busy[ti] = own.min(m);
            total += st.busy[ti];
        }
        let mut q = (af * total + 1.0).min(pool) / cores;
        if hosted.iter().any(|&ti| offered(ti) * q > st.busy[ti]) {
            let tasks = hosted
                .iter()
                .map(|&ti| (offered(ti), st.busy[ti], k.threads[ti]));
            q = contended_share(tasks, q, af, cores, pool);
            for &ti in hosted {
                st.busy[ti] = (offered(ti) * q).clamp(st.busy[ti], k.threads[ti]);
            }
        }
        for &ti in hosted {
            let sharing = (af * st.busy[ti] + 1.0).min(k.threads[ti]) / k.alloc_cores[ti];
            st.slowdown[ti] = k.lone_slowdown[ti].max(sharing).max(q);
        }
    }
}

/// One bottom-up sweep at client throughput `x`: blocking times from the
/// callees' waits, then each task's wait in closed form. Returns the
/// largest relative movement of a wait.
fn sweep(model: &LqnModel, shape: &Shape, k: &Knobs, st: &mut State, x: f64) -> f64 {
    let mut moved = 0.0_f64;
    for &(ti, ref entries) in &shape.sweep {
        let pace = st.slowdown[ti] / shape.speeds[shape.hosts[ti].0];
        let mut held = 0.0; // Σ_e v_e · s_e
        for &ei in entries {
            let e = &model.entries()[ei];
            let mut total = e.demand * pace + e.latency;
            for c in &e.calls {
                // `net_delay` is the fabric round trip per invocation — an
                // infinite-server delay station on the path, so it extends
                // the caller's blocking time without contending anywhere.
                let callee = shape.owner[c.target.0];
                total += c.mean * (st.w[callee] + st.s[c.target.0] + c.net_delay);
            }
            st.s[ei] = total;
            held += shape.visits[ei] * total;
        }
        if shape.hosts[ti].1 {
            continue;
        }
        // Seidmann's multi-server approximation: an m-server station with
        // blocking time S behaves like a delay of S·(m−1)/m (folded into
        // the callers' residence via `w + s`) plus a single-server queue
        // of demand d = S/m, whose Schweitzer wait `w = a·(w + d)` is
        // solved here. Unlike the plain (m−1)-subtraction form, this keeps
        // the multi-server inefficiency at light load (paper Fig. 2a).
        let visits = shape.task_visits[ti];
        let w = if held > 0.0 && visits > 0.0 {
            let d = held / visits / k.threads[ti];
            let a = d * k.arrival_factor * x * visits;
            let cap = d * k.population;
            if a < 1.0 {
                (a * d / (1.0 - a)).min(cap)
            } else {
                cap
            }
        } else {
            0.0
        };
        moved = moved.max((w - st.w[ti]).abs() / (1.0 + st.w[ti]));
        st.w[ti] = w;
    }
    moved
}

/// The bracketed root-find of one solve.
struct Search<'a> {
    model: &'a LqnModel,
    shape: &'a Shape,
    knobs: &'a Knobs,
    options: &'a SolverOptions,
    balance_tolerance: f64,
    /// The state of the latest probe, and of the bracket's two ends.
    at: &'a mut State,
    lo: &'a mut State,
    hi: &'a mut State,
    /// `(x, h(x))` of the highest probe below the root…
    below: (f64, f64),
    /// …and of the lowest above it, once there is one.
    above: Option<(f64, f64)>,
    sweeps: usize,
    probes: usize,
}

impl Search<'_> {
    /// Solves the layered equations at `x` into `self.at` and returns the
    /// cycle response.
    fn probe(&mut self, x: f64) -> Result<f64, LqnError> {
        self.probes += 1;
        solve_busy(self.shape, self.knobs, self.at, x);
        if self.shape.layered {
            sweep(self.model, self.shape, self.knobs, self.at, x);
            self.sweeps += 1;
        } else {
            // Re-sweep from the state at the bracket's lower end (the
            // empty system at first): waits only grow with `x`, so every
            // iterate stays below the least fixed point.
            self.at.w.clone_from(&self.lo.w);
            self.at.s.clone_from(&self.lo.s);
            loop {
                let moved = sweep(self.model, self.shape, self.knobs, self.at, x);
                self.sweeps += 1;
                if moved <= 1e-3 * self.balance_tolerance {
                    break;
                }
                if self.sweeps >= self.options.max_iterations {
                    return Err(LqnError::NoConvergence {
                        iterations: self.sweeps,
                        residual: moved,
                    });
                }
            }
        }
        Ok(self.at.s[self.shape.ref_entry])
    }
}

impl Search<'_> {
    /// Probes `x`. `Ok(true)` when it balances the population (its state
    /// stays in `self.at`); otherwise the probe becomes the bracket end
    /// on its side of the root.
    fn settles(&mut self, x: f64) -> Result<bool, LqnError> {
        let (n, z) = (self.knobs.population, self.knobs.think_time);
        let r = self.probe(x)?;
        let balance = x * (z + r) - n;
        if balance.abs() <= self.balance_tolerance * n {
            return Ok(true);
        }
        let h = n / (z + r) - x;
        if balance < 0.0 {
            self.below = (x, h);
            std::mem::swap(self.at, self.lo);
        } else {
            self.above = Some((x, h));
            std::mem::swap(self.at, self.hi);
        }
        Ok(false)
    }

    /// Finds the client throughput that balances the population and
    /// leaves its state in `self.at`.
    fn run(&mut self) -> Result<f64, LqnError> {
        let (n, z) = (self.knobs.population, self.knobs.think_time);
        let (ne, nt) = (self.model.entries().len(), self.model.tasks().len());
        for st in [&mut *self.at, &mut *self.lo, &mut *self.hi] {
            st.reset(ne, nt);
        }
        // The empty system's cycle response bounds the throughput above.
        let r_min = self.probe(0.0)?;
        if z + r_min <= 0.0 {
            return Err(LqnError::InvalidModel {
                reason: "client cycle time is zero (no think time and no demand)".into(),
            });
        }
        let x_max = n / (z + r_min);
        self.below = (0.0, x_max);
        std::mem::swap(self.at, self.lo);

        let usable = |h: &f64| h.is_finite() && 0.0 < *h && *h < x_max;
        if let Some(hint) = self.options.warm_start.filter(usable) {
            if self.settles(hint)? {
                return Ok(hint);
            }
            let beside = if self.above.is_some() {
                0.98 * hint
            } else {
                (1.02 * hint).min(x_max)
            };
            if self.settles(beside)? {
                return Ok(beside);
            }
        }
        if self.above.is_none() && self.settles(x_max)? {
            return Ok(x_max);
        }

        // Illinois: regula falsi on `h`, halving the value at the end that
        // survives two probes running so that end moves too. Measured on
        // Sock Shop lattice candidates it ties with Chandrupatla's method
        // (11 probes a solve) and beats ITP (17) and bisection (35).
        let mut survivor = 0i8;
        loop {
            let (a, ha) = self.below;
            let (b, hb) = self.above.expect("the upper bound was probed");
            let mut x = a + (b - a) * (ha / (ha - hb));
            if !(a < x && x < b) {
                x = 0.5 * (a + b);
            }
            if !(a < x && x < b) {
                // Adjacent floats: the root lies between them, and so does
                // its state. Report the lower end with the state moved to
                // where the population balances.
                let (r_lo, r_hi) = (
                    self.lo.s[self.shape.ref_entry],
                    self.hi.s[self.shape.ref_entry],
                );
                let theta = ((n / a - z - r_lo) / (r_hi - r_lo)).clamp(0.0, 1.0);
                std::mem::swap(self.at, self.lo);
                self.at.blend(self.hi, theta);
                return Ok(a);
            }
            if self.sweeps >= self.options.max_iterations {
                let lost = |x: f64, st: &State| (x * (z + st.s[self.shape.ref_entry]) - n).abs();
                return Err(LqnError::NoConvergence {
                    iterations: self.sweeps,
                    residual: lost(a, self.lo).min(lost(b, self.hi)) / n,
                });
            }
            if self.settles(x)? {
                return Ok(x);
            }
            if self.below.0 == x {
                if survivor == 1 {
                    self.above = Some((b, 0.5 * hb));
                }
                survivor = 1;
            } else {
                if survivor == -1 {
                    self.below.1 = 0.5 * ha;
                }
                survivor = -1;
            }
        }
    }
}

fn finish(
    model: &LqnModel,
    shape: &Shape,
    k: &Knobs,
    st: &State,
    x_client: f64,
    iterations: usize,
    out: &mut LqnSolution,
) {
    out.entry_throughput.clear();
    out.entry_throughput
        .extend(shape.visits.iter().map(|&v| x_client * v));
    out.entry_residence.clear();
    out.entry_residence
        .extend((st.s.iter().zip(&shape.owner)).map(|(&s, &ti)| {
            if shape.hosts[ti].1 {
                s
            } else {
                st.w[ti] + s
            }
        }));
    zeroed(&mut out.task_utilization, model.tasks().len());
    zeroed(&mut out.processor_utilization, model.processors().len());
    for (ti, &(pi, is_ref)) in shape.hosts.iter().enumerate() {
        if is_ref {
            continue;
        }
        let busy_cores = x_client * shape.task_demand[ti];
        if k.alloc_cores[ti] > 0.0 {
            out.task_utilization[ti] = busy_cores / k.alloc_cores[ti];
        }
        out.processor_utilization[pi] += busy_cores / k.proc_cores[pi];
    }
    out.entry_service_time.clone_from(&st.s);
    out.task_wait.clone_from(&st.w);
    out.client_response_time = st.s[shape.ref_entry];
    out.client_throughput = x_client;
    out.iterations = iterations;
}

/// Makes `v` `n` zeros, in its own buffer.
fn zeroed(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EntryId, LqnModel};
    use atom_mva::closed::solve_exact;
    use atom_mva::{ClassSpec, ClosedNetwork, Station};

    /// One server task, one entry: the machine-repairman model.
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

    fn exact_repairman(demand: f64, servers: usize, n: usize, z: f64) -> f64 {
        let net = ClosedNetwork::new(
            vec![Station::queueing("s", servers, vec![demand])],
            vec![ClassSpec::new("c", n, z)],
        )
        .unwrap();
        solve_exact(&net).unwrap().throughput[0]
    }

    #[test]
    fn single_server_matches_exact_mva() {
        for &(d, n, z) in &[(0.5, 4, 2.0), (0.2, 20, 1.0), (1.0, 8, 5.0)] {
            let model = repairman(d, 1, n, z);
            let sol = solve(&model, SolverOptions::default()).unwrap();
            let exact = exact_repairman(d, 1, n, z);
            let rel = (sol.client_throughput - exact).abs() / exact;
            assert!(
                rel < 0.10,
                "d={d} n={n} z={z}: {} vs {exact}",
                sol.client_throughput
            );
        }
    }

    #[test]
    fn replicas_match_exact_multiserver_mva() {
        for &(d, r, n, z) in &[(0.5, 2, 10, 1.0), (0.3, 4, 40, 2.0)] {
            let model = repairman(d, r, n, z);
            let sol = solve(&model, SolverOptions::default()).unwrap();
            let exact = exact_repairman(d, r, n, z);
            let rel = (sol.client_throughput - exact).abs() / exact;
            assert!(
                rel < 0.12,
                "d={d} r={r} n={n}: {} vs {exact}",
                sol.client_throughput
            );
        }
    }

    #[test]
    fn call_net_delay_acts_as_a_delay_station() {
        // web -> db chain; pricing the call's network round trip should
        // stretch the client response time by ~ visits x delay without
        // adding CPU contention anywhere.
        let make = |net: f64| {
            let mut m = LqnModel::new();
            let p = m.add_processor("cpu", 16, 1.0);
            let web = m.add_task("web", p, 32, 1).unwrap();
            let db = m.add_task("db", p, 32, 1).unwrap();
            let page = m.add_entry("page", web, 0.004).unwrap();
            let query = m.add_entry("query", db, 0.002).unwrap();
            m.add_call(page, query, 2.0).unwrap();
            m.set_call_net_delay(page, query, net).unwrap();
            let c = m.add_reference_task("users", 50, 5.0).unwrap();
            m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
                .unwrap();
            m
        };
        let base = solve(&make(0.0), SolverOptions::default()).unwrap();
        let net = solve(&make(0.025), SolverOptions::default()).unwrap();
        let dr = net.client_response_time - base.client_response_time;
        // Two db calls per page at 25 ms each: ~50 ms extra, give or
        // take the closed-loop population shift.
        assert!(
            (0.030..0.075).contains(&dr),
            "dR={dr} (base {}, net {})",
            base.client_response_time,
            net.client_response_time
        );
        assert!(net.client_throughput < base.client_throughput);
    }

    #[test]
    fn saturation_capacity_respects_share() {
        // share 0.25, demand 0.01 -> capacity 25/s per replica.
        let mut model = repairman(0.01, 1, 4000, 1.0);
        let t = model.task_by_name("svc").unwrap();
        model.set_cpu_share(t, Some(0.25)).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        assert!(
            sol.client_throughput <= 25.0 + 0.5,
            "X={}",
            sol.client_throughput
        );
        assert!(sol.client_throughput > 23.0, "X={}", sol.client_throughput);
        assert!(sol.task_utilization(t) <= 1.0 + 1e-6);
    }

    #[test]
    fn vertical_scaling_beats_horizontal_at_light_load() {
        // Case A analogue: same doubled capacity, moderate load; the
        // single faster server beats two slow ones (multi-server
        // inefficiency) on response time and closed-loop throughput.
        let make = |share: f64, replicas: usize| {
            let mut m = repairman(0.002, replicas, 1000, 7.0);
            let t = m.task_by_name("svc").unwrap();
            m.set_cpu_share(t, Some(share)).unwrap();
            m
        };
        let vertical = solve(&make(0.4, 1), SolverOptions::default()).unwrap();
        let horizontal = solve(&make(0.2, 2), SolverOptions::default()).unwrap();
        assert!(
            vertical.client_response_time < horizontal.client_response_time,
            "vert R {} vs horiz R {}",
            vertical.client_response_time,
            horizontal.client_response_time
        );
        assert!(vertical.client_throughput >= horizontal.client_throughput - 1e-9);
    }

    #[test]
    fn horizontal_scaling_beats_vertical_for_single_threaded_service() {
        // Case B analogue: share already 1.0, service cannot use >1 core.
        let make = |share: f64, replicas: usize| {
            let mut m = LqnModel::new();
            let p = m.add_processor("cpu", 8, 1.0);
            let t = m.add_task("fe", p, 100, replicas).unwrap();
            m.set_parallelism(t, Some(1)).unwrap();
            m.set_cpu_share(t, Some(share)).unwrap();
            let e = m.add_entry("op", t, 0.004).unwrap();
            let c = m.add_reference_task("users", 4000, 7.0).unwrap();
            m.add_call(m.reference_entry(c).unwrap(), e, 1.0).unwrap();
            m
        };
        let vertical = solve(&make(2.0, 1), SolverOptions::default()).unwrap();
        let horizontal = solve(&make(1.0, 2), SolverOptions::default()).unwrap();
        // Offered load 571/s, one core caps at 250/s: vertical stuck there,
        // horizontal doubles capacity.
        assert!(
            vertical.client_throughput < 260.0,
            "vert X={}",
            vertical.client_throughput
        );
        assert!(
            horizontal.client_throughput > 1.5 * vertical.client_throughput,
            "horiz {} vert {}",
            horizontal.client_throughput,
            vertical.client_throughput
        );
    }

    #[test]
    fn layered_bottleneck_caps_upstream() {
        // client -> web -> db, db is the bottleneck.
        let mut m = LqnModel::new();
        let p1 = m.add_processor("s1", 4, 1.0);
        let p2 = m.add_processor("s2", 1, 1.0);
        let web = m.add_task("web", p1, 50, 4).unwrap();
        let db = m.add_task("db", p2, 8, 1).unwrap();
        let page = m.add_entry("page", web, 0.002).unwrap();
        let query = m.add_entry("query", db, 0.02).unwrap();
        m.add_call(page, query, 1.0).unwrap();
        let c = m.add_reference_task("users", 2000, 5.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
            .unwrap();
        let sol = solve(&m, SolverOptions::default()).unwrap();
        // db capacity = 1 core / 0.02 = 50/s caps the whole pipeline.
        assert!(sol.client_throughput <= 50.5, "X={}", sol.client_throughput);
        assert!(sol.client_throughput > 44.0, "X={}", sol.client_throughput);
        // The web task's blocking time includes the db wait: its thread
        // holding time far exceeds its own execution time.
        assert!(sol.entry_service_time[page.0] > 0.02);
    }

    #[test]
    fn thread_limit_caps_throughput_even_with_idle_cpu() {
        // A single-threaded task whose blocking time is dominated by a
        // slow downstream call can't exceed 1/s even though CPU is idle.
        let mut m = LqnModel::new();
        let p = m.add_processor("cpu", 8, 1.0);
        let a = m.add_task("a", p, 1, 1).unwrap(); // one thread!
        let b = m.add_task("b", p, 1, 1).unwrap();
        let ea = m.add_entry("ea", a, 0.001).unwrap();
        let eb = m.add_entry("eb", b, 0.05).unwrap();
        m.add_call(ea, eb, 1.0).unwrap();
        let c = m.add_reference_task("users", 100, 0.5).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), ea, 1.0).unwrap();
        let sol = solve(&m, SolverOptions::default()).unwrap();
        // Blocking time of ea >= 0.051 -> throughput <= ~19.6.
        assert!(sol.client_throughput < 20.5, "X={}", sol.client_throughput);
    }

    #[test]
    fn pure_latency_adds_to_response_time() {
        let mut m = repairman(0.01, 1, 50, 5.0);
        let e = m.entry_by_name("op").unwrap();
        m.set_latency(e, 0.5).unwrap();
        let sol = solve(&m, SolverOptions::default()).unwrap();
        assert!(
            sol.client_response_time > 0.5,
            "R={}",
            sol.client_response_time
        );
        // Latency consumes no CPU: utilisation stays demand-based.
        let t = m.task_by_name("svc").unwrap();
        let expected_u = sol.client_throughput * 0.01;
        assert!((sol.task_utilization(t) - expected_u).abs() < 1e-6);
    }

    #[test]
    fn utilizations_consistent_with_throughput() {
        let model = repairman(0.05, 2, 50, 1.0);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let t = model.task_by_name("svc").unwrap();
        let expected_u = sol.client_throughput * 0.05 / 2.0;
        assert!((sol.task_utilization(t) - expected_u).abs() < 1e-6);
        assert!(sol.processor_utilization.iter().all(|&u| u <= 1.0 + 1e-9));
    }

    #[test]
    fn zero_population_yields_zero_solution() {
        let model = repairman(0.05, 1, 0, 1.0);
        let sol = solve(&model, SolverOptions::default()).unwrap();
        assert_eq!(sol.client_throughput, 0.0);
        assert_eq!(sol.total_throughput(), 0.0);
    }

    #[test]
    fn zero_cycle_time_is_rejected() {
        let mut m = LqnModel::new();
        let p = m.add_processor("cpu", 1, 1.0);
        let t = m.add_task("svc", p, 1, 1).unwrap();
        let e = m.add_entry("op", t, 0.0).unwrap();
        let c = m.add_reference_task("users", 5, 0.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), e, 1.0).unwrap();
        assert!(matches!(
            solve(&m, SolverOptions::default()),
            Err(LqnError::InvalidModel { .. })
        ));
    }

    #[test]
    fn rejects_bad_options() {
        let model = repairman(0.1, 1, 1, 1.0);
        let opts = SolverOptions {
            tolerance: 0.0,
            ..SolverOptions::default()
        };
        assert!(matches!(
            solve(&model, opts),
            Err(LqnError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn candidate_preset_solves_like_default() {
        let model = repairman(0.05, 2, 50, 1.0);
        let a = solve(&model, SolverOptions::default()).unwrap();
        let b = solve(&model, SolverOptions::candidate()).unwrap();
        let rel = (a.client_throughput - b.client_throughput).abs() / a.client_throughput;
        assert!(rel < 1e-4, "presets disagree: {rel}");
    }

    #[test]
    fn request_mix_splits_throughput_by_visit_ratio() {
        let mut m = LqnModel::new();
        let p = m.add_processor("cpu", 4, 1.0);
        let t = m.add_task("svc", p, 16, 1).unwrap();
        let e1 = m.add_entry("home", t, 0.002).unwrap();
        let e2 = m.add_entry("cart", t, 0.004).unwrap();
        let c = m.add_reference_task("users", 200, 5.0).unwrap();
        let ce = m.reference_entry(c).unwrap();
        m.add_call(ce, e1, 0.7).unwrap();
        m.add_call(ce, e2, 0.3).unwrap();
        let sol = solve(&m, SolverOptions::default()).unwrap();
        let ratio = sol.entry_throughput(e1) / sol.entry_throughput(e2);
        assert!((ratio - 7.0 / 3.0).abs() < 1e-6, "ratio {ratio}");
        let total = sol.entry_throughput(e1) + sol.entry_throughput(e2);
        assert!((total - sol.client_throughput).abs() < 1e-6);
    }

    #[test]
    fn throughput_monotone_in_population() {
        let mut last = 0.0;
        for n in [1, 10, 50, 100, 500, 1000] {
            let model = repairman(0.01, 2, n, 2.0);
            let sol = solve(&model, SolverOptions::default()).unwrap();
            assert!(
                sol.client_throughput >= last - 1e-6,
                "X({n}) = {} < {last}",
                sol.client_throughput
            );
            last = sol.client_throughput;
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical() {
        // Solving different models back-to-back through one workspace
        // must give exactly what fresh solves give.
        let models = [
            repairman(0.5, 1, 4, 2.0),
            repairman(0.01, 4, 2000, 1.0),
            repairman(0.2, 2, 50, 0.5),
        ];
        let mut ws = SolverWorkspace::new();
        for model in &models {
            let reused = solve_with(model, SolverOptions::default(), &mut ws).unwrap();
            let fresh = solve(model, SolverOptions::default()).unwrap();
            assert_eq!(reused, fresh);
        }
    }

    /// `depth` single-entry tasks in a chain on one processor of `speed`,
    /// each calling the next once.
    fn chain(depth: usize, speed: f64) -> LqnModel {
        let mut m = LqnModel::new();
        let p = m.add_processor("cpu", 8, speed);
        let mut entries = Vec::new();
        for i in 0..depth {
            let t = m.add_task(format!("t{i}"), p, 16, 1).unwrap();
            m.set_cpu_share(t, Some(0.5)).unwrap();
            entries.push(m.add_entry(format!("e{i}"), t, 0.004).unwrap());
        }
        for pair in entries.windows(2) {
            m.add_call(pair[0], pair[1], 1.0).unwrap();
        }
        let c = m.add_reference_task("users", 300, 2.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), entries[0], 1.0)
            .unwrap();
        m
    }

    #[test]
    fn a_workspace_rebuilds_when_the_shape_changes() {
        // The next model differs from the workspace's last one in its
        // entries, its call graph or a host's speed: each is a new shape,
        // and solve_with must rebuild its tables rather than reuse them.
        let mut rewired = chain(3, 1.0);
        let (e0, e2) = (EntryId(0), EntryId(2));
        rewired.add_call(e0, e2, 0.5).unwrap();
        let models = [
            chain(2, 1.0),
            chain(3, 1.0),
            rewired,
            chain(3, 2.0),
            chain(2, 1.0),
        ];
        let mut ws = SolverWorkspace::new();
        for model in &models {
            let reused = solve_with(model, SolverOptions::candidate(), &mut ws).unwrap();
            let fresh = solve(model, SolverOptions::candidate()).unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn a_scratch_model_solves_like_a_configured_clone() {
        let base = chain(3, 1.0);
        let mut scratch = ScratchModel::new(&base);
        let decisions = [(1, 10, 2, 4), (4, 2, 1, 20), (0, 10, 1, 10), (2, 10, 3, 0)];
        for (r0, s0, r1, s1) in decisions {
            let mut decision = DecisionVector::new();
            decision.set(TaskId(0), r0, s0).set(TaskId(1), r1, s1);
            let mut clone = base.clone();
            let expect = decision.apply(&mut clone).and_then(|()| {
                solve_with(
                    &clone,
                    SolverOptions::candidate(),
                    &mut SolverWorkspace::new(),
                )
            });
            let got = scratch.solve(&decision, SolverOptions::candidate(), |model, sol| {
                assert_eq!(model, &clone);
                sol.clone()
            });
            assert_eq!(got, expect, "decision {decision}");
            // The empty decision shows the model as the last one left it.
            let none = DecisionVector::new();
            let left = scratch.solve(&none, SolverOptions::candidate(), |model, _| model.clone());
            assert_eq!(left.as_ref(), Ok(&base), "reverted after {decision}");
        }
    }

    #[test]
    fn warm_start_hint_agrees_with_cold_solve() {
        for &(d, r, n, z) in &[(0.5, 1, 10, 2.0), (0.01, 2, 2000, 1.0), (0.05, 4, 300, 5.0)] {
            let model = repairman(d, r, n, z);
            let cold = solve(&model, SolverOptions::default()).unwrap();
            for hint_scale in [1.0, 0.7, 1.4, 100.0, 1e-6] {
                let warm = solve(
                    &model,
                    SolverOptions {
                        warm_start: Some(cold.client_throughput * hint_scale),
                        ..SolverOptions::default()
                    },
                )
                .unwrap();
                let rel = (warm.client_throughput - cold.client_throughput).abs()
                    / cold.client_throughput.max(1e-12);
                assert!(
                    rel < 1e-5,
                    "hint×{hint_scale}: warm {} vs cold {}",
                    warm.client_throughput,
                    cold.client_throughput
                );
            }
        }
    }

    #[test]
    fn accurate_warm_start_saves_iterations() {
        // The hint is probed first; an exact one balances the population
        // there and then, so the solve is the empty-system probe plus one.
        let model = repairman(0.01, 4, 300, 5.0);
        let cold = solve(&model, SolverOptions::default()).unwrap();
        let warm = solve(
            &model,
            SolverOptions {
                warm_start: Some(cold.client_throughput),
                ..SolverOptions::default()
            },
        )
        .unwrap();
        assert_eq!(warm.iterations, 2);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} !< cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn degenerate_warm_start_hints_are_ignored() {
        let model = repairman(0.1, 1, 20, 1.0);
        let cold = solve(&model, SolverOptions::default()).unwrap();
        for hint in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let sol = solve(
                &model,
                SolverOptions {
                    warm_start: Some(hint),
                    ..SolverOptions::default()
                },
            )
            .unwrap();
            assert_eq!(sol, cold, "hint {hint} changed the solution");
        }
    }

    #[test]
    fn solve_stats_mirror_the_solution() {
        let model = repairman(0.01, 4, 300, 5.0);
        let mut ws = SolverWorkspace::new();
        assert_eq!(ws.last_solve(), SolveStats::default());
        let cold = solve_with(&model, SolverOptions::default(), &mut ws).unwrap();
        let cold_stats = ws.last_solve();
        assert_eq!(cold_stats.iterations, cold.iterations);
        // A layered call graph takes exactly one sweep per probe.
        assert_eq!(cold_stats.probes, cold_stats.iterations);
        assert!(cold_stats.probes >= 3, "empty system, upper bound, root");

        // A hint 1 % low: it and the probe 2 % above it bracket the root.
        let near = SolverOptions::default().with_warm_start(Some(0.99 * cold.client_throughput));
        let warm = solve_with(&model, near, &mut ws).unwrap();
        assert_eq!(ws.last_solve().iterations, warm.iterations);
        assert!(ws.last_solve().probes <= cold_stats.probes);

        // A hint above the throughput bound is not usable.
        let wild = SolverOptions::default().with_warm_start(Some(1e9));
        assert_eq!(solve_with(&model, wild, &mut ws).unwrap(), cold);
    }

    #[test]
    fn sweeps_do_not_grow_with_saturation() {
        // Unsaturated: far more capacity than the population can use.
        let easy = repairman(0.01, 4, 300, 5.0);
        let mut ws = SolverWorkspace::new();
        solve_with(&easy, SolverOptions::default(), &mut ws).unwrap();
        assert!(ws.last_solve().iterations <= 8, "{:?}", ws.last_solve());
        // Saturated: one slow server against a large population parks the
        // fixed point on the contention plateau, where a relaxation needs
        // thousands of passes per probe. The direct solve still takes one
        // sweep per probe, and the root-find at most a bisection's worth.
        let hard = repairman(0.5, 1, 2000, 0.1);
        let sol = solve_with(&hard, SolverOptions::default(), &mut ws).unwrap();
        assert!(
            sol.task_utilization[0] > 0.999,
            "expected a saturated regime"
        );
        assert_eq!(ws.last_solve().iterations, ws.last_solve().probes);
        assert!(sol.iterations <= 64, "{} sweeps", sol.iterations);
        let lost = sol.client_throughput * (0.1 + sol.client_response_time) - 2000.0;
        assert!(lost.abs() <= 2e-6, "{lost} users unaccounted for");
    }

    #[test]
    fn an_exhausted_sweep_budget_is_an_error() {
        let hard = repairman(0.5, 1, 2000, 0.1);
        let starved = SolverOptions {
            max_iterations: 3,
            ..SolverOptions::default()
        };
        match solve(&hard, starved) {
            Err(LqnError::NoConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 3);
                assert!(residual > 1e-9, "residual {residual}");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn deep_saturation_converges_everywhere() {
        // A grid of extreme configurations, the kind the GA generates;
        // every one of them must solve without error.
        for &n in &[1usize, 100, 1000, 5000] {
            for &share in &[0.05, 0.5, 1.0] {
                for &replicas in &[1usize, 4] {
                    let mut m = repairman(0.01, replicas, n, 1.0);
                    let t = m.task_by_name("svc").unwrap();
                    m.set_cpu_share(t, Some(share)).unwrap();
                    let sol = solve(&m, SolverOptions::default()).unwrap();
                    let cap = replicas as f64 * share / 0.01;
                    assert!(
                        sol.client_throughput <= cap * 1.05 + 1.0,
                        "X={} exceeds capacity {cap} (n={n} s={share} r={replicas})",
                        sol.client_throughput
                    );
                }
            }
        }
    }
}
