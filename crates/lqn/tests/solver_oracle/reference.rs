//! The parent commit's analytic solver, kept as the oracle the direct
//! solver is tested against. `inner_pass` and `relax_inner` are verbatim
//! (`inner_pass` is the map whose least fixed point both solvers
//! compute); `Tables::of` and `parent_solve` are the retired
//! `solve_with` split at its first probe — bisection on `X` over
//! `relax_inner` with its Aitken jump, early exit, warm bracket and hint
//! ramp — so that its documented defects stay measurable.

use atom_lqn::analytic::SolverOptions;
use atom_lqn::model::{EntryId, LqnModel, TaskKind};
use atom_lqn::LqnError;

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
pub struct Tables {
    is_ref: Vec<bool>,
    task_speed: Vec<f64>,
    req_cores: Vec<f64>,
    alloc_cores: Vec<f64>,
    thread_servers: Vec<f64>,
    proc_cores: Vec<f64>,
    proc_threads: Vec<f64>,
    order: Vec<EntryId>,
    pub visits: Vec<f64>,
    pub ref_entry: usize,
    pub population: f64,
    pub think_time: f64,
    pub arrival_factor: f64,
}

/// Mutable inner-iteration state.
#[derive(Debug, Clone, Default)]
pub struct State {
    pub w: Vec<f64>,
    pub busy: Vec<f64>,
    pub exec: Vec<f64>,
    pub s: Vec<f64>,
    pub iterations: usize,
}

impl State {
    /// The empty system of `model` (the monotone iteration starts here).
    pub fn zero(model: &LqnModel) -> State {
        State {
            w: vec![0.0; model.tasks().len()],
            busy: vec![0.0; model.tasks().len()],
            exec: vec![0.0; model.entries().len()],
            s: vec![0.0; model.entries().len()],
            iterations: 0,
        }
    }
}

impl Tables {
    pub fn of(model: &LqnModel) -> Result<Tables, LqnError> {
        let reference = model.the_reference_task()?;
        let ref_entry = model.reference_entry(reference)?;
        let (population, think_time) = match model.task(reference).kind {
            TaskKind::Reference { think_time } => (model.task(reference).multiplicity, think_time),
            TaskKind::Server => unreachable!("the_reference_task returned a server task"),
        };
        let order = model.topo_order()?;
        let visits = model.visit_ratios()?;
        let np = model.processors().len();
        let is_ref: Vec<bool> = model.tasks().iter().map(|t| t.is_reference()).collect();
        let n_f = population as f64;
        Ok(Tables {
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
            ref_entry: ref_entry.0,
            population: n_f,
            think_time,
            arrival_factor: (n_f - 1.0) / n_f,
        })
    }

    /// Cycle response of the empty system.
    pub fn r_min(&self, model: &LqnModel) -> f64 {
        let mut st = State::zero(model);
        self.pass(model, &mut st, 0.0);
        st.s[self.ref_entry]
    }

    /// One `inner_pass` at client throughput `x`.
    pub fn pass(&self, model: &LqnModel, st: &mut State, x: f64) -> f64 {
        let mut busy_proc = Vec::new();
        inner_pass(
            model,
            self,
            st,
            x,
            self.arrival_factor,
            self.population,
            &mut busy_proc,
        )
    }

    /// Plain undamped Picard from `st` at `x`: no acceleration, no early
    /// exit, until a pass moves nothing by more than `tolerance` or
    /// `budget` passes are spent. Returns whether it got there.
    pub fn picard(
        &self,
        model: &LqnModel,
        st: &mut State,
        x: f64,
        tolerance: f64,
        budget: usize,
    ) -> bool {
        let mut busy_proc = Vec::new();
        for _ in 0..budget {
            st.iterations += 1;
            let delta = inner_pass(
                model,
                self,
                st,
                x,
                self.arrival_factor,
                self.population,
                &mut busy_proc,
            );
            if delta < tolerance {
                return true;
            }
        }
        false
    }
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

/// What the parent's `solve_with` returned, as far as the oracle reads it.
pub struct ParentSolution {
    pub x: f64,
    pub r: f64,
    pub w: Vec<f64>,
    pub s: Vec<f64>,
    pub iterations: usize,
}

/// The parent's `solve_with` from its first probe on.
pub fn parent_solve(model: &LqnModel, options: SolverOptions) -> Result<ParentSolution, LqnError> {
    let tables = Tables::of(model)?;
    let (n_f, think_time, ref_entry) = (tables.population, tables.think_time, tables.ref_entry);
    let arrival_factor = tables.arrival_factor;
    let mut probe = State::zero(model);
    let mut lo_state = State::zero(model);
    let mut busy_proc = Vec::new();
    let mut accel = AccelBuffers::default();

    // Minimal cycle response (empty system) bounds the throughput above.
    let r_min = tables.r_min(model);
    if think_time + r_min <= 0.0 {
        return Err(LqnError::InvalidModel {
            reason: "client cycle time is zero (no think time and no demand)".into(),
        });
    }

    let mut total_iterations = 0usize;

    // One bisection probe at `x`: rebuild `probe` from the bracket's
    // lower-bound state and relax. Returns the cycle response.
    macro_rules! evaluate {
        ($x:expr, $early:expr) => {{
            let x: f64 = $x;
            probe.clone_from(&lo_state);
            probe.iterations = 0;
            let early_exit = $early.then_some((think_time, ref_entry, x));
            relax_inner(
                model,
                &tables,
                &mut probe,
                x,
                arrival_factor,
                n_f,
                &options,
                early_exit,
                &mut busy_proc,
                &mut accel,
            );
            total_iterations += probe.iterations;
            probe.s[ref_entry]
        }};
    }

    // Bisection on g(X) = N/(Z + R(X)) − X over (0, x_hi].
    let x_hi0 = n_f / (think_time + r_min);
    let mut lo = 0.0_f64;
    let mut hi = x_hi0;

    if let Some(hint) = options.warm_start {
        if hint.is_finite() && hint > 0.0 {
            let mut cand = hint * 0.98;
            while cand > lo && cand < hi {
                let r = evaluate!(cand, true);
                if n_f / (think_time + r) > cand {
                    lo = cand;
                    std::mem::swap(&mut lo_state, &mut probe);
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
            std::mem::swap(&mut lo_state, &mut probe);
        } else {
            hi = mid;
        }
    }
    let x_client = 0.5 * (lo + hi);
    // The final evaluation must run to convergence (no early exit) so the
    // reported waits and utilisations are the true fixed point.
    let r_client = evaluate!(x_client, false);
    Ok(ParentSolution {
        x: x_client,
        r: r_client,
        w: probe.w,
        s: probe.s,
        iterations: total_iterations,
    })
}
