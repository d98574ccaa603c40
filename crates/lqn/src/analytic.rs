//! The analytic layered solver.
//!
//! A layered solver in the spirit of LQNS with the Bard–Schweitzer
//! single-step MVA option used by ATOM (§IV-C). The closed workload is
//! solved by **bisection on the client throughput** `X`, exploiting
//! monotonicity; for each candidate `X` an inner fixed point evaluates
//! the layered contention:
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
//!    `mean × (thread wait at callee + s[callee])`, composed bottom-up
//!    over the acyclic call graph. This is the layered part: a slow
//!    database inflates the front-end's thread holding time, which is how
//!    layered bottlenecks (paper Fig. 11) emerge.
//! 3. **Thread waits** `W[t]` — each server task is a multi-server
//!    station with `replicas × multiplicity` servers whose service time
//!    is the blocking time; waits use Schweitzer's approximation with the
//!    multi-server correction, capped by the population.
//!
//! For fixed `X` every coupling above is monotone non-decreasing and
//! bounded, so the undamped inner iteration from zero converges
//! monotonically; and the cycle response `R(X)` is non-decreasing in
//! `X`, so `g(X) = N / (Z + R(X))` crosses `X` exactly once — bisection
//! is globally convergent, which matters because ATOM's genetic
//! algorithm throws thousands of extreme configurations at this solver.

use crate::error::LqnError;
use crate::model::{LqnModel, TaskKind};
use crate::solution::LqnSolution;

/// Options for [`solve`].
///
/// The struct is `#[non_exhaustive]` so fields can be added without
/// breaking downstream crates: construct via [`SolverOptions::default`]
/// or [`SolverOptions::candidate`] and adjust with the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SolverOptions {
    /// Budget of *inner* fixed-point iterations per bisection probe.
    pub max_iterations: usize,
    /// Convergence tolerance: relative, applied to the inner waits and
    /// the outer bisection interval.
    pub tolerance: f64,
    /// Optional client-throughput hint, typically the solution of a
    /// *similar* configuration (e.g. the nearest cached candidate in
    /// `atom-core`'s evaluator). The solver probes a narrow bracket
    /// around the hint before falling back to ordinary bisection, so an
    /// accurate hint saves most probes while a wrong one costs at most
    /// two. Purely advisory: it never changes which fixed point is
    /// found, only how fast the bracket shrinks, and non-finite or
    /// non-positive hints are ignored.
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
    /// The candidate-evaluation preset used for every GA/planner/what-if
    /// solve (previously the `CANDIDATE_SOLVER` constant duplicated in
    /// `atom-core`): tight tolerance so objective comparisons between
    /// near-identical candidates are trustworthy, and an iteration cap
    /// that extreme GA candidates cannot exhaust in practice.
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

    /// Returns the options with the given convergence tolerance.
    pub const fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// Inner-iteration count above which a solve is classified as
/// *saturated*: the fixed point sits on the contention plateau where the
/// monotone iteration crawls, which happens exactly when the candidate
/// drives a processor to (or past) capacity. `atom-core`'s evaluator
/// uses the same threshold to gate warm-start hint *sources* (a
/// saturated solution's throughput is a poor lower bound for a
/// neighbouring configuration), so classification and gating cannot
/// drift apart.
pub const SATURATION_ITERATIONS: usize = 1_000;

/// Telemetry left behind by one [`solve_with`] call, readable via
/// [`SolverWorkspace::last_solve`].
///
/// Purely observational: the stats are written after the solution is
/// computed and feed nothing back into the solver, so recording them
/// keeps results bitwise identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total inner fixed-point iterations across all probes.
    pub iterations: usize,
    /// Bisection/ramp probes evaluated (including the final full solve).
    pub probes: usize,
    /// Probes spent inside the warm-start ramp.
    pub warm_probes: usize,
    /// Whether a usable (finite, positive) warm-start hint was offered.
    pub warm_start_offered: bool,
    /// Whether the ramp paid off: at least one warm probe landed below
    /// the fixed point, so its climbed state seeded the bracket.
    pub warm_start_hit: bool,
    /// Whether the solve crossed [`SATURATION_ITERATIONS`].
    pub saturated: bool,
}

/// Reusable scratch buffers for [`solve_with`].
///
/// One analytic solve needs a handful of per-entry/per-task vectors
/// (iteration state, the bracket's warm state, per-processor busy
/// counts, acceleration buffers). Allocating them per solve is wasted
/// work when a caller — ATOM's optimizer evaluates thousands of
/// candidates per planning window — solves in a tight loop, so the
/// workspace owns them and [`solve_with`] only resizes. Reuse is
/// observationally transparent: every buffer is reinitialised at the
/// start of a solve, so results are bitwise identical to a fresh
/// workspace.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    probe: State,
    lo_state: State,
    busy_proc: Vec<f64>,
    accel: AccelBuffers,
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

/// Buffers for the geometric acceleration inside `relax_inner`.
#[derive(Debug, Clone, Default)]
struct AccelBuffers {
    prev_w: Vec<f64>,
    prev_step: Vec<f64>,
    step: Vec<f64>,
    prev_w_valid: bool,
    prev_step_valid: bool,
}

/// Static tables precomputed from the model.
struct Tables {
    is_ref: Vec<bool>,
    task_speed: Vec<f64>,
    req_cores: Vec<f64>,
    alloc_cores: Vec<f64>,
    thread_servers: Vec<f64>,
    proc_cores: Vec<f64>,
    proc_threads: Vec<f64>,
    order: Vec<crate::model::EntryId>,
    visits: Vec<f64>,
}

/// Mutable inner-iteration state.
#[derive(Debug, Clone, Default)]
struct State {
    w: Vec<f64>,
    busy: Vec<f64>,
    exec: Vec<f64>,
    s: Vec<f64>,
    iterations: usize,
}

impl State {
    /// Resizes for a model with `ne` entries / `nt` tasks and zeroes
    /// everything (the monotone iteration starts from the empty system).
    fn reset(&mut self, ne: usize, nt: usize) {
        self.w.clear();
        self.w.resize(nt, 0.0);
        self.busy.clear();
        self.busy.resize(nt, 0.0);
        self.exec.clear();
        self.exec.resize(ne, 0.0);
        self.s.clear();
        self.s.resize(ne, 0.0);
        self.iterations = 0;
    }
}

/// Solves the model analytically. See the [module docs](self).
///
/// # Errors
///
/// * [`LqnError::InvalidModel`] — no/multiple reference tasks, cyclic call
///   graph, or a zero-length client cycle (no think time and no demand);
/// * [`LqnError::InvalidParameter`] — bad solver options.
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
/// instead of touching the allocator. Use one workspace per thread in a
/// solve loop.
///
/// # Errors
///
/// As for [`solve`].
pub fn solve_with(
    model: &LqnModel,
    options: SolverOptions,
    workspace: &mut SolverWorkspace,
) -> Result<LqnSolution, LqnError> {
    if options.tolerance <= 0.0 || options.tolerance.is_nan() {
        return Err(LqnError::InvalidParameter {
            what: "tolerance must be positive".into(),
        });
    }
    let reference = model.the_reference_task()?;
    let ref_entry = model.reference_entry(reference)?;
    let (population, think_time) = match model.task(reference).kind {
        TaskKind::Reference { think_time } => (model.task(reference).multiplicity, think_time),
        TaskKind::Server => unreachable!("the_reference_task returned a server task"),
    };
    let order = model.topo_order()?;
    let visits = model.visit_ratios()?;

    let ne = model.entries().len();
    let nt = model.tasks().len();
    let np = model.processors().len();

    if population == 0 {
        workspace.stats = SolveStats::default();
        return Ok(LqnSolution {
            entry_throughput: vec![0.0; ne],
            entry_residence: vec![0.0; ne],
            entry_service_time: vec![0.0; ne],
            task_utilization: vec![0.0; nt],
            task_wait: vec![0.0; nt],
            processor_utilization: vec![0.0; np],
            client_response_time: 0.0,
            client_throughput: 0.0,
            iterations: 0,
        });
    }

    let is_ref: Vec<bool> = model.tasks().iter().map(|t| t.is_reference()).collect();
    let tables = Tables {
        task_speed: model
            .tasks()
            .iter()
            .map(|t| model.processor(t.processor).speed)
            .collect(),
        req_cores: model.tasks().iter().map(|t| t.request_cores()).collect(),
        // A replica can never use more cores than its host offers, which
        // matters for uncapped tasks whose thread count exceeds the host.
        alloc_cores: model
            .tasks()
            .iter()
            .map(|t| {
                let host = model.processor(t.processor).cores as f64;
                t.replicas as f64 * t.usable_cores_per_replica().min(host)
            })
            .collect(),
        thread_servers: model
            .tasks()
            .iter()
            .map(|t| (t.replicas * t.multiplicity) as f64)
            .collect(),
        proc_cores: model.processors().iter().map(|p| p.cores as f64).collect(),
        proc_threads: {
            let mut v = vec![0.0; np];
            for (ti, t) in model.tasks().iter().enumerate() {
                if !is_ref[ti] {
                    v[t.processor.0] += (t.replicas * t.multiplicity) as f64;
                }
            }
            v
        },
        order,
        visits,
        is_ref,
    };

    let n_f = population as f64;
    let arrival_factor = (n_f - 1.0) / n_f;

    let SolverWorkspace {
        probe,
        lo_state,
        busy_proc,
        accel,
        stats,
    } = workspace;

    // Minimal cycle response (empty system) bounds the throughput above.
    probe.reset(ne, nt);
    let r_min = {
        inner_pass(model, &tables, probe, 0.0, arrival_factor, n_f, busy_proc);
        probe.s[ref_entry.0]
    };
    if think_time + r_min <= 0.0 {
        return Err(LqnError::InvalidModel {
            reason: "client cycle time is zero (no think time and no demand)".into(),
        });
    }

    let mut total_iterations = 0usize;
    let mut probe_count = 0usize;
    let mut warm_probe_count = 0usize;
    let mut warm_hit = false;
    // Warm-start state: the inner fixed point is monotone non-decreasing
    // in X, so the converged state at any X' < X is a valid from-below
    // starting point for X (the undamped monotone iteration then still
    // converges upward). Bisection keeps the state of the current lower
    // bound, which shrinks the per-probe work from thousands of inner
    // iterations to a handful as the bracket tightens.
    lo_state.reset(ne, nt);

    // One bisection probe at `x`: rebuild `probe` from the bracket's
    // lower-bound state and relax. Returns the cycle response.
    macro_rules! evaluate {
        ($x:expr, $early:expr) => {{
            let x: f64 = $x;
            probe.clone_from(lo_state);
            probe.iterations = 0;
            let early_exit = $early.then_some((think_time, ref_entry.0, x));
            relax_inner(
                model,
                &tables,
                probe,
                x,
                arrival_factor,
                n_f,
                &options,
                early_exit,
                busy_proc,
                accel,
            );
            total_iterations += probe.iterations;
            probe_count += 1;
            probe.s[ref_entry.0]
        }};
    }

    // Bisection on g(X) = N/(Z + R(X)) − X over (0, x_hi].
    let x_hi0 = n_f / (think_time + r_min);
    let mut lo = 0.0_f64;
    let mut hi = x_hi0;

    // Warm-start: the hint is a *believed lower bound* on the fixed
    // point (callers pass the throughput of a configuration dominated
    // by this one). Ramp geometrically upward from just below it: every
    // probe that lands below the fixed point keeps its climbed state as
    // the bracket's `lo` state, so the next probe relaxes incrementally
    // instead of climbing from zero — the whole ramp costs about one
    // inner convergence in total. The first probe that lands above
    // decides from the near-converged state within a few passes and
    // leaves a bracket only 10% wide. The cost asymmetry is why ramping
    // beats probing around the hint: a from-below probe's work is kept,
    // while a close-above probe from a weak state does a long climb
    // that is then discarded. Each probe applies the same sign test as
    // an ordinary bisection step, so correctness is untouched by a
    // garbage hint — only time is.
    let warm_offered = matches!(options.warm_start, Some(h) if h.is_finite() && h > 0.0);
    if let Some(hint) = options.warm_start {
        if hint.is_finite() && hint > 0.0 {
            let mut cand = hint * 0.98;
            while cand > lo && cand < hi {
                let r = evaluate!(cand, true);
                warm_probe_count += 1;
                if n_f / (think_time + r) > cand {
                    lo = cand;
                    warm_hit = true;
                    std::mem::swap(lo_state, probe);
                    cand *= 1.10;
                } else {
                    hi = cand;
                    break;
                }
            }
        }
    }

    for _ in 0..200 {
        if hi - lo <= options.tolerance.max(1e-12) * x_hi0 {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let r = evaluate!(mid, true);
        let g = n_f / (think_time + r);
        if g > mid {
            lo = mid;
            std::mem::swap(lo_state, probe);
        } else {
            hi = mid;
        }
    }
    let x_client = 0.5 * (lo + hi);
    // The final evaluation must run to convergence (no early exit) so the
    // reported waits and utilisations are the true fixed point.
    let r_client = evaluate!(x_client, false);

    *stats = SolveStats {
        iterations: total_iterations,
        probes: probe_count,
        warm_probes: warm_probe_count,
        warm_start_offered: warm_offered,
        warm_start_hit: warm_hit,
        saturated: total_iterations > SATURATION_ITERATIONS,
    };

    let x_entry: Vec<f64> = tables.visits.iter().map(|&v| x_client * v).collect();
    Ok(finish(
        model,
        &probe.s,
        &probe.w,
        &x_entry,
        x_client,
        r_client,
        total_iterations,
        &tables.alloc_cores,
        &tables.proc_cores,
        &tables.task_speed,
        &tables.is_ref,
    ))
}

/// One forward pass: exec from busy, s bottom-up, then new targets for
/// w/busy given the fixed client throughput `x`. Returns the largest
/// relative change and applies the (undamped, monotone) update.
#[allow(clippy::too_many_arguments)]
fn inner_pass(
    model: &LqnModel,
    t: &Tables,
    st: &mut State,
    x: f64,
    arrival_factor: f64,
    n_f: f64,
    busy_proc: &mut Vec<f64>,
) -> f64 {
    let np = t.proc_cores.len();
    // Executing jobs per processor.
    busy_proc.clear();
    busy_proc.resize(np, 0.0);
    for (ti, task) in model.tasks().iter().enumerate() {
        if !t.is_ref[ti] {
            busy_proc[task.processor.0] += st.busy[ti];
        }
    }
    // (1) execution times.
    for (i, e) in model.entries().iter().enumerate() {
        let ti = e.task.0;
        if t.is_ref[ti] {
            st.exec[i] = 0.0;
            continue;
        }
        let pi = model.task(e.task).processor.0;
        let p_task = (st.busy[ti] * arrival_factor + 1.0).clamp(1.0, t.thread_servers[ti].max(1.0));
        let per_job_task = (t.alloc_cores[ti] / p_task).min(t.req_cores[ti]);
        let p_proc = (busy_proc[pi] * arrival_factor + 1.0).clamp(1.0, t.proc_threads[pi].max(1.0));
        let per_job_proc = (t.proc_cores[pi] / p_proc).min(1.0);
        let rate = per_job_task.min(per_job_proc) * t.task_speed[ti];
        st.exec[i] = if e.demand == 0.0 {
            0.0
        } else {
            e.demand / rate
        };
    }
    // (2) blocking times bottom-up.
    for &eid in t.order.iter().rev() {
        let e = model.entry(eid);
        let mut total = st.exec[eid.0] + e.latency;
        for c in &e.calls {
            let callee_task = model.entry(c.target).task.0;
            // `net_delay` is the fabric round trip per invocation — an
            // infinite-server delay station on the path, so it extends
            // the caller's blocking time without contending anywhere.
            total += c.mean * (st.w[callee_task] + st.s[c.target.0] + c.net_delay);
        }
        st.s[eid.0] = total;
    }
    // (3) per-task updates.
    let mut max_rel_delta = 0.0_f64;
    for (ti, task) in model.tasks().iter().enumerate() {
        if t.is_ref[ti] {
            continue;
        }
        let mut x_task = 0.0;
        let mut busy_time = 0.0;
        let mut busy_cpu = 0.0;
        for &eid in &task.entries {
            let xe = x * t.visits[eid.0];
            x_task += xe;
            busy_time += xe * st.s[eid.0];
            busy_cpu += xe * st.exec[eid.0];
        }
        // Executing jobs cannot exceed the thread pool.
        let busy_target = busy_cpu.min(t.thread_servers[ti]);
        let m = t.thread_servers[ti];
        let s_avg = if x_task > 0.0 {
            busy_time / x_task
        } else {
            0.0
        };
        // Seidmann's multi-server approximation: an m-server station with
        // blocking time S behaves like a delay of S·(m−1)/m (folded into
        // the callers' residence via `w + s`) plus a single-server queue
        // of demand S/m, whose Schweitzer wait is computed here. Unlike
        // the plain (m−1)-subtraction form, this keeps the multi-server
        // inefficiency at light load (paper Fig. 2a).
        let d_red = s_avg / m;
        let w_cap = d_red * n_f;
        let q = x_task * (st.w[ti] + d_red);
        let w_target = if s_avg > 0.0 {
            (d_red * arrival_factor * q).min(w_cap)
        } else {
            0.0
        };
        let dw = (w_target - st.w[ti]).abs() / (1.0 + st.w[ti]);
        let db = (busy_target - st.busy[ti]).abs() / (1.0 + st.busy[ti]);
        max_rel_delta = max_rel_delta.max(dw).max(db);
        st.w[ti] = w_target;
        st.busy[ti] = busy_target;
    }
    max_rel_delta
}

/// Runs the inner iteration to (monotone) convergence — or, when
/// `early_exit_below` is set (to the probe's own `X`), only until the
/// bisection test's sign is decided: starting from below, `R` only grows
/// during the iteration, so `g = N/(Z+R)` only shrinks; once `g < X` the
/// probe is already known to be on the saturated side and finishing the
/// (harmonically slow) convergence would be wasted work.
#[allow(clippy::too_many_arguments)]
fn relax_inner(
    model: &LqnModel,
    t: &Tables,
    st: &mut State,
    x: f64,
    arrival_factor: f64,
    n_f: f64,
    options: &SolverOptions,
    early_exit: Option<(f64, usize, f64)>, // (think_time, ref_entry, x_probe)
    busy_proc: &mut Vec<f64>,
    accel: &mut AccelBuffers,
) {
    accel.prev_w_valid = false;
    accel.prev_step_valid = false;
    for k in 0..options.max_iterations {
        let delta = inner_pass(model, t, st, x, arrival_factor, n_f, busy_proc);
        st.iterations = k + 1;
        if delta < options.tolerance {
            break;
        }
        if let Some((think, ref_entry, probe)) = early_exit {
            if n_f / (think + st.s[ref_entry]) < probe {
                break;
            }
        }
        // Geometric (Aitken-style) acceleration: near saturation the
        // monotone iteration converges with a ratio close to 1, which is
        // painfully slow. Every few passes, estimate the per-component
        // contraction ratio and jump to the extrapolated limit; the
        // subsequent ordinary passes correct any overshoot.
        if k % 16 == 15 {
            if !accel.prev_w_valid {
                accel.prev_w.clear();
                accel.prev_w.extend_from_slice(&st.w);
                accel.prev_w_valid = true;
                continue;
            }
            accel.step.clear();
            accel
                .step
                .extend(st.w.iter().zip(&accel.prev_w).map(|(a, b)| a - b));
            if accel.prev_step_valid {
                for ((wi, &d), &p) in st.w.iter_mut().zip(&accel.step).zip(&accel.prev_step) {
                    if d > 1e-15 && p > 1e-15 {
                        let rho = (d / p).clamp(0.0, 0.98);
                        if rho > 0.3 {
                            *wi += d * rho / (1.0 - rho);
                        }
                    }
                }
            }
            std::mem::swap(&mut accel.prev_step, &mut accel.step);
            accel.prev_step_valid = true;
            accel.prev_w.clear();
            accel.prev_w.extend_from_slice(&st.w);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    model: &LqnModel,
    s: &[f64],
    w: &[f64],
    x_entry: &[f64],
    x_client: f64,
    r_client: f64,
    iterations: usize,
    alloc_cores: &[f64],
    proc_cores: &[f64],
    task_speed: &[f64],
    is_ref: &[bool],
) -> LqnSolution {
    let ne = model.entries().len();
    let nt = model.tasks().len();
    let np = model.processors().len();

    let mut entry_residence = vec![0.0; ne];
    for (i, e) in model.entries().iter().enumerate() {
        let ti = e.task.0;
        entry_residence[i] = if is_ref[ti] { s[i] } else { w[ti] + s[i] };
    }
    let mut task_utilization = vec![0.0; nt];
    let mut processor_utilization = vec![0.0; np];
    for (ti, task) in model.tasks().iter().enumerate() {
        if is_ref[ti] {
            continue;
        }
        let busy_cores: f64 = task
            .entries
            .iter()
            .map(|&eid| x_entry[eid.0] * model.entry(eid).demand / task_speed[ti])
            .sum();
        if alloc_cores[ti] > 0.0 {
            task_utilization[ti] = busy_cores / alloc_cores[ti];
        }
        processor_utilization[task.processor.0] += busy_cores;
    }
    for (pi, u) in processor_utilization.iter_mut().enumerate() {
        *u /= proc_cores[pi];
    }
    LqnSolution {
        entry_throughput: x_entry.to_vec(),
        entry_residence,
        entry_service_time: s.to_vec(),
        task_utilization,
        task_wait: w.to_vec(),
        processor_utilization,
        client_response_time: r_client,
        client_throughput: x_client,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LqnModel;
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
        let opts = SolverOptions::default().with_tolerance(0.0);
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
        // An *unsaturated* station (capacity 400 ≫ population bound
        // N/(Z+D) ≈ 60): here the cost is the bisection bracket, which
        // the hint collapses. On saturated models hints cannot help —
        // every below-probe pays the full slow inner convergence at its
        // throughput — which is why callers (the candidate evaluator)
        // only offer hints sourced from cheap solves.
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
        assert!(cold_stats.probes > 0);
        assert!(!cold_stats.warm_start_offered);
        assert_eq!(cold_stats.warm_probes, 0);
        assert!(!cold_stats.warm_start_hit);

        let opts = SolverOptions::default().with_warm_start(Some(cold.client_throughput));
        let warm = solve_with(&model, opts, &mut ws).unwrap();
        let warm_stats = ws.last_solve();
        assert_eq!(warm_stats.iterations, warm.iterations);
        assert!(warm_stats.warm_start_offered);
        assert!(warm_stats.warm_probes > 0);
        assert!(
            warm_stats.warm_start_hit,
            "an exact hint must seed the bracket"
        );
        assert!(warm_stats.probes < cold_stats.probes);
    }

    #[test]
    fn saturation_classification_tracks_the_iteration_gate() {
        // Unsaturated: far more capacity than the population can use.
        let easy = repairman(0.01, 4, 300, 5.0);
        let mut ws = SolverWorkspace::new();
        solve_with(&easy, SolverOptions::default(), &mut ws).unwrap();
        assert!(!ws.last_solve().saturated);
        // Saturated: one slow server against a large population parks the
        // fixed point on the contention plateau.
        let hard = repairman(0.5, 1, 2000, 0.1);
        let sol = solve_with(&hard, SolverOptions::default(), &mut ws).unwrap();
        assert_eq!(
            ws.last_solve().saturated,
            sol.iterations > SATURATION_ITERATIONS
        );
        assert!(ws.last_solve().saturated, "expected a saturated regime");
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
