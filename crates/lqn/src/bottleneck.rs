//! Layered-bottleneck analysis (paper §V-B; Neilson et al. \[38\], Franks
//! et al. \[39\]).
//!
//! In a layered system the saturated resource is often *not* the one
//! whose clients suffer most: an upstream task can sit at low CPU
//! utilisation while all of its threads are blocked on a saturated
//! callee. Rule-based scalers watching utilisation fix such chains one
//! layer per window (Fig. 11); this module extracts the structure a
//! model-driven controller sees at once:
//!
//! * **root bottlenecks** — saturated tasks none of whose (transitive)
//!   callees are saturated: the places where capacity actually helps;
//! * **starved tasks** — tasks whose blocking time is dominated by waits
//!   on some root bottleneck rather than by their own execution.

use crate::model::{LqnModel, TaskId};
use crate::solution::LqnSolution;

/// Per-task pressure diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPressure {
    /// The task.
    pub task: TaskId,
    /// Its CPU utilisation (busy / allocated cores).
    pub(crate) utilization: f64,
    /// Whether the task itself is saturated (utilisation ≥ threshold).
    pub(crate) saturated: bool,
    /// Fraction of its mean blocking time spent waiting on or inside
    /// callees (0 for leaf tasks).
    pub(crate) downstream_share: f64,
    /// The root bottleneck this task is starved by, if any: the saturated
    /// transitive callee contributing the largest share of its blocking
    /// time, while the task itself is not saturated.
    pub starved_by: Option<TaskId>,
}

/// The full analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Saturated tasks with no saturated callees — scale these first.
    pub root_bottlenecks: Vec<TaskId>,
    /// Per-task diagnosis, indexed by task id order (reference tasks are
    /// skipped).
    pub pressures: Vec<TaskPressure>,
    /// Utilisation threshold used.
    pub(crate) threshold: f64,
}

/// The utilisation at which a task counts as *saturated*.
const SATURATION: f64 = 0.9;

/// Analyzes a solved model; a task is *saturated* when its utilisation is
/// at least 90%.
///
/// # Panics
///
/// Panics if the solution's dimensions do not match the model, or the
/// call graph is cyclic (solved models are acyclic by construction).
pub fn analyze(model: &LqnModel, solution: &LqnSolution) -> BottleneckReport {
    assert_eq!(
        solution.task_utilization.len(),
        model.tasks().len(),
        "solution does not match model"
    );
    let nt = model.tasks().len();
    let saturated: Vec<bool> = (0..nt)
        .map(|ti| !model.tasks()[ti].is_reference() && solution.task_utilization[ti] >= SATURATION)
        .collect();

    // For each task, decompose its throughput-weighted blocking time into
    // "own" (execution at this task) vs the contribution of each direct
    // callee task (wait + full callee blocking).
    let order = model.topo_order().expect("solved models are acyclic");
    let mut pressures = Vec::new();
    for (ti, task) in model.tasks().iter().enumerate() {
        if task.is_reference() {
            continue;
        }
        let mut x_total = 0.0;
        let mut blocking = 0.0;
        let mut per_callee = vec![0.0_f64; nt];
        for &eid in &task.entries {
            let x = solution.entry_throughput[eid.0];
            x_total += x;
            blocking += x * solution.entry_service_time[eid.0];
            for c in &model.entry(eid).calls {
                let callee = model.entry(c.target).task.0;
                let contribution =
                    c.mean * (solution.task_wait[callee] + solution.entry_service_time[c.target.0]);
                per_callee[callee] += x * contribution;
            }
        }
        let downstream: f64 = per_callee.iter().sum();
        let downstream_share = if blocking > 1e-12 {
            (downstream / blocking).clamp(0.0, 1.0)
        } else {
            0.0
        };
        // Attribute starvation to the saturated *transitive* callee with
        // the largest direct contribution path: walk down the heaviest
        // contributors until a saturated task is found.
        let starved_by = if saturated[ti] || x_total <= 0.0 {
            None
        } else {
            let mut current = per_callee;
            let mut visited = vec![false; nt];
            loop {
                let Some((next, weight)) = current
                    .iter()
                    .enumerate()
                    .filter(|&(i, &w)| w > 1e-12 && !visited[i])
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
                    .map(|(i, &w)| (i, w))
                else {
                    break None;
                };
                if weight / blocking.max(1e-12) < 0.25 {
                    break None; // not dominated by any one chain
                }
                if saturated[next] {
                    break Some(TaskId(next));
                }
                visited[next] = true;
                // Descend into `next`'s own callee decomposition.
                let mut deeper = vec![0.0_f64; nt];
                for &eid in &model.tasks()[next].entries {
                    let x = solution.entry_throughput[eid.0];
                    for c in &model.entry(eid).calls {
                        let callee = model.entry(c.target).task.0;
                        deeper[callee] += x
                            * c.mean
                            * (solution.task_wait[callee]
                                + solution.entry_service_time[c.target.0]);
                    }
                }
                // Scale to keep magnitudes comparable with `blocking`.
                let total: f64 = deeper.iter().sum();
                if total <= 1e-12 {
                    break None;
                }
                for v in &mut deeper {
                    *v *= weight / total;
                }
                current = deeper;
            }
        };
        pressures.push(TaskPressure {
            task: TaskId(ti),
            utilization: solution.task_utilization[ti],
            saturated: saturated[ti],
            downstream_share,
            starved_by,
        });
    }

    // Root bottlenecks: saturated with no saturated transitive callee.
    let mut reaches_saturated = vec![false; nt];
    for &eid in order.iter().rev() {
        let e = model.entry(eid);
        for c in &e.calls {
            let callee = model.entry(c.target).task.0;
            if saturated[callee] || reaches_saturated[callee] {
                reaches_saturated[e.task.0] = true;
            }
        }
    }
    let root_bottlenecks = (0..nt)
        .filter(|&ti| saturated[ti] && !reaches_saturated[ti])
        .map(TaskId)
        .collect();

    BottleneckReport {
        root_bottlenecks,
        pressures,
        threshold: SATURATION,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{solve, SolverOptions};

    /// The pressure entry of one server task.
    fn pressure(report: &BottleneckReport, task: TaskId) -> &TaskPressure {
        report.pressures.iter().find(|p| p.task == task).unwrap()
    }

    /// client -> front -> mid -> db with the db undersized.
    fn chain() -> LqnModel {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", 8, 1.0);
        let front = m.add_task("front", p, 256, 1).unwrap();
        m.set_cpu_share(front, Some(1.0)).unwrap();
        let mid = m.add_task("mid", p, 64, 1).unwrap();
        m.set_cpu_share(mid, Some(1.0)).unwrap();
        let db = m.add_task("db", p, 16, 1).unwrap();
        m.set_cpu_share(db, Some(0.2)).unwrap(); // the bottleneck
        let fe = m.add_entry("fe", front, 0.001).unwrap();
        let me = m.add_entry("me", mid, 0.001).unwrap();
        let de = m.add_entry("de", db, 0.01).unwrap();
        m.add_call(fe, me, 1.0).unwrap();
        m.add_call(me, de, 1.0).unwrap();
        let c = m.add_reference_task("users", 300, 2.0).unwrap();
        m.add_call(m.reference_entry(c).unwrap(), fe, 1.0).unwrap();
        m
    }

    #[test]
    fn identifies_root_and_starvation() {
        let model = chain();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let report = analyze(&model, &sol);
        let db = model.task_by_name("db").unwrap();
        let front = model.task_by_name("front").unwrap();
        let mid = model.task_by_name("mid").unwrap();
        assert_eq!(report.root_bottlenecks, vec![db], "{report:?}");
        // The upstream tasks show low CPU but are starved by the db.
        for t in [front, mid] {
            let p = pressure(&report, t);
            assert!(!p.saturated, "{report:?}");
            assert!(p.utilization < 0.5, "{report:?}");
            assert!(p.downstream_share > 0.8, "{report:?}");
            assert_eq!(p.starved_by, Some(db), "{report:?}");
        }
        assert!(pressure(&report, db).saturated);
        assert_eq!(pressure(&report, db).starved_by, None);
    }

    #[test]
    fn healthy_system_has_no_bottlenecks() {
        let mut model = chain();
        let db = model.task_by_name("db").unwrap();
        model.set_cpu_share(db, Some(4.0)).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let report = analyze(&model, &sol);
        assert!(report.root_bottlenecks.is_empty(), "{report:?}");
        assert!(report.pressures.iter().all(|p| p.starved_by.is_none()));
    }

    #[test]
    fn saturated_upstream_is_not_a_root_when_callee_saturated() {
        // Make BOTH mid and db saturated: only db is a root.
        let mut model = chain();
        let mid = model.task_by_name("mid").unwrap();
        model.set_cpu_share(mid, Some(0.05)).unwrap();
        let db = model.task_by_name("db").unwrap();
        model.set_cpu_share(db, Some(0.04)).unwrap();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let report = analyze(&model, &sol);
        assert!(report.root_bottlenecks.contains(&db), "{report:?}");
        assert!(!report.root_bottlenecks.contains(&mid), "{report:?}");
    }

    #[test]
    fn reference_tasks_are_skipped() {
        let model = chain();
        let sol = solve(&model, SolverOptions::default()).unwrap();
        let report = analyze(&model, &sol);
        assert_eq!(report.pressures.len(), 3); // front, mid, db only
    }
}
