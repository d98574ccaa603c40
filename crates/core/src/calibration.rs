//! Online demand calibration — the paper's first "future research
//! direction" (§VII): *"online profiling of service demands, which are in
//! the present work assumed to be statically profiled via testing"*.
//!
//! Each window, the calibrator compares the CPU work each microservice
//! actually consumed (`busy cores × speed / completed invocations`)
//! against what the LQN template predicts for the same invocation mix,
//! and maintains an exponentially-smoothed correction factor per
//! service. Applying the factors to the analyzer's model instance lets
//! ATOM survive mis-profiled or drifting demands (binary updates, JIT
//! warm-up, data growth) without re-profiling offline.

use std::collections::HashMap;

use atom_cluster::WindowReport;
use atom_lqn::{LqnModel, TaskId};

use crate::binding::ModelBinding;

/// EMA smoothing factor in `(0, 1]` (1 = use only the last window).
const SMOOTHING: f64 = 0.5;

/// Windows where a service completed fewer invocations per second than
/// this are too noisy to calibrate on, and are ignored.
const MIN_RATE: f64 = 1.0;

/// Per-service multiplicative demand corrections learned online.
#[derive(Debug, Clone, Default)]
pub(crate) struct DemandCalibrator {
    scales: HashMap<TaskId, f64>,
}

impl DemandCalibrator {
    /// Creates a calibrator with no corrections learned yet.
    pub(crate) fn new() -> Self {
        DemandCalibrator::default()
    }

    /// Current correction factor for a task (1.0 when unobserved).
    pub(crate) fn scale(&self, task: TaskId) -> f64 {
        self.scales.get(&task).copied().unwrap_or(1.0)
    }

    /// Ingests one monitoring window: updates the per-service correction
    /// factors from observed busy cores and completion rates.
    pub(crate) fn observe(&mut self, binding: &ModelBinding, report: &WindowReport) {
        for sb in &binding.services {
            let si = sb.service.0;
            let (Some(&busy), Some(endpoint_tps)) = (
                report.service_busy_cores.get(si),
                report.endpoint_tps.get(si),
            ) else {
                continue;
            };
            let x_total: f64 = endpoint_tps.iter().sum();
            if x_total < MIN_RATE {
                continue;
            }
            // Observed mean demand per invocation at reference speed.
            let task = binding.model.task(sb.task);
            let speed = binding.model.processor(task.processor).speed;
            let observed = busy * speed / x_total;
            // Template mean demand for the same invocation mix.
            let mut weighted = 0.0;
            for (local, &entry) in task.entries.iter().enumerate() {
                let share = endpoint_tps.get(local).copied().unwrap_or(0.0) / x_total;
                weighted += share * binding.model.entry(entry).demand;
            }
            if weighted <= 1e-12 || observed <= 1e-12 {
                continue;
            }
            let instant = observed / weighted;
            let current = self.scale(sb.task);
            let updated = current + SMOOTHING * (instant - current);
            self.scales.insert(sb.task, updated.clamp(0.05, 20.0));
        }
    }

    /// Applies the learned corrections to a model instance (the
    /// analyzer's per-window clone, not the template).
    pub(crate) fn apply(&self, binding: &ModelBinding, model: &mut LqnModel) {
        for sb in &binding.services {
            let scale = self.scale(sb.task);
            if (scale - 1.0).abs() < 1e-9 {
                continue;
            }
            let entries = model.task(sb.task).entries.clone();
            for entry in entries {
                let d = model.entry(entry).demand;
                model
                    .set_demand(entry, d * scale)
                    .expect("scaled demand is valid");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One service, two features (10 ms and 20 ms) on a speed-2 server,
    /// which exercises the units.
    fn binding() -> ModelBinding {
        crate::fixtures::chain((4, 2.0), &[("svc", 8, 1.0, &[0.010, 0.020])], 10, 1.0)
    }

    fn report(busy_cores: f64, tps: [f64; 2]) -> WindowReport {
        WindowReport::for_span(0.0, 300.0)
            .with_feature_counts(vec![1, 1])
            .with_feature_tps(tps.to_vec())
            .with_feature_response(vec![0.0, 0.0])
            .with_endpoint_tps(vec![tps.to_vec()])
            .with_service_utilization(vec![0.5])
            .with_service_busy_cores(vec![busy_cores])
            .with_service_alloc_cores(vec![1.0])
            .with_service_replicas(vec![1])
            .with_service_shares(vec![1.0])
            .with_server_utilization(vec![0.1])
            .with_total_tps(tps.iter().sum())
            .with_avg_users(10.0)
            .with_users_at_end(10)
    }

    #[test]
    fn converges_to_true_scale() {
        let b = binding();
        let mut cal = DemandCalibrator::new();
        // True demands are double the template: mean template demand for
        // a 50/50 mix is 15 ms; at 100/s each class and speed 2, busy
        // cores = 200 * 0.030 / 2 = 3.0 for doubled true demands.
        for _ in 0..12 {
            cal.observe(&b, &report(3.0, [100.0, 100.0]));
        }
        let t = b.services[0].task;
        assert!((cal.scale(t) - 2.0).abs() < 0.01, "scale {}", cal.scale(t));
        // Applying rescales both entries.
        let mut model = b.model.clone();
        cal.apply(&b, &mut model);
        let e1 = model.entry_by_name("svc.a").unwrap();
        assert!((model.entry(e1).demand - 0.020).abs() < 1e-4);
    }

    #[test]
    fn ignores_idle_windows() {
        let b = binding();
        let mut cal = DemandCalibrator::new();
        cal.observe(&b, &report(3.0, [0.1, 0.1])); // below min_rate
        assert_eq!(cal.scale(b.services[0].task), 1.0);
    }

    #[test]
    fn unobserved_scale_is_identity() {
        let b = binding();
        let cal = DemandCalibrator::new();
        let mut model = b.model.clone();
        let before = model.clone();
        cal.apply(&b, &mut model);
        assert_eq!(model, before);
    }

    #[test]
    fn mix_weighting_matters() {
        // Skewed mix: all traffic on the cheap entry; observed demand
        // equals the cheap entry's doubled cost.
        let b = binding();
        let mut cal = DemandCalibrator::new();
        // X = [200, 0]; true demand 2x template: busy = 200*0.020/2 = 2.0.
        for _ in 0..12 {
            cal.observe(&b, &report(2.0, [200.0, 0.0]));
        }
        assert!((cal.scale(b.services[0].task) - 2.0).abs() < 0.01);
    }

    #[test]
    fn scale_is_clamped() {
        let b = binding();
        let mut cal = DemandCalibrator::new();
        cal.observe(&b, &report(1e6, [100.0, 100.0]));
        assert_eq!(cal.scale(b.services[0].task), 20.0);
    }
}
