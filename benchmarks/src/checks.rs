//! Correctness checks behind `attempted` / `failed`.
//!
//! An *operation* is one simulated window or one decision. A window
//! passes when every value it reports is finite and non-negative and it
//! obeys the two operational laws any closed queueing system obeys:
//!
//! * Little's law over the whole loop: `avg_in_system + Z·X = avg_users`;
//! * the utilisation law per service: `busy_cores = Σ_e X_e · D_e`.
//!
//! Both hold exactly only in expectation — a window sees a finite number
//! of exponential think times and demands — so each is allowed 3 % plus
//! five standard errors of the random sum involved (`cv/√n` for `n`
//! completions). A decision passes when the controller did not panic and
//! every action it returns is actuable: replicas within the service's
//! bound, the share on the 0.05 lattice and within the service's limits.

use atom_cluster::{AppSpec, ScaleAction, WindowReport};
use atom_core::{ModelBinding, SHARE_STEP};

/// Systematic tolerance of the operational-law checks.
pub const LAW_TOLERANCE: f64 = 0.03;
/// Standard errors of sampling noise allowed on top of it.
pub const LAW_SIGMAS: f64 = 5.0;

/// Tally of checked operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(msg);
            }
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

fn all_finite_non_negative(r: &WindowReport) -> Result<(), String> {
    let scalars = [
        ("total_tps", r.total_tps),
        ("avg_users", r.avg_users),
        ("peak_arrival_rate", r.peak_arrival_rate),
        ("peak_in_system", r.peak_in_system),
        ("avg_in_system", r.avg_in_system),
        ("monitor_dropout_fraction", r.monitor_dropout_fraction),
    ];
    let vectors: [(&str, &[f64]); 8] = [
        ("feature_tps", &r.feature_tps),
        ("feature_response", &r.feature_response),
        ("service_utilization", &r.service_utilization),
        ("service_busy_cores", &r.service_busy_cores),
        ("service_alloc_cores", &r.service_alloc_cores),
        ("service_shares", &r.service_shares),
        ("service_availability", &r.service_availability),
        ("server_utilization", &r.server_utilization),
    ];
    let bad = |v: f64| !v.is_finite() || v < 0.0;
    for (name, v) in scalars {
        if bad(v) {
            return Err(format!("{name} = {v}"));
        }
    }
    for (name, vs) in vectors {
        if let Some(v) = vs.iter().copied().find(|&v| bad(v)) {
            return Err(format!("{name} holds {v}"));
        }
    }
    if let Some(v) = r.endpoint_tps.iter().flatten().copied().find(|&v| bad(v)) {
        return Err(format!("endpoint_tps holds {v}"));
    }
    Ok(())
}

/// Little's law over the closed loop. `think` is the mean think time.
fn littles_law(r: &WindowReport, think: f64) -> Result<(), String> {
    let completions = r.feature_counts.iter().sum::<u64>() as f64;
    if completions < 1.0 || r.avg_users <= 0.0 {
        return Ok(());
    }
    let lhs = r.avg_in_system + think * r.total_tps;
    let allowed = (LAW_TOLERANCE + LAW_SIGMAS / completions.sqrt()) * r.avg_users;
    if (lhs - r.avg_users).abs() > allowed {
        return Err(format!(
            "Little's law: in-system {:.2} + Z·X {:.2} vs users {:.2} (allowed ±{allowed:.2})",
            r.avg_in_system,
            think * r.total_tps,
            r.avg_users
        ));
    }
    Ok(())
}

/// Whether the window ran under one configuration and one population, so
/// that work done and work completed can be compared.
fn steady(r: &WindowReport, previous: Option<&WindowReport>) -> bool {
    let same_config = previous.is_none_or(|p| {
        p.service_replicas == r.service_replicas
            && p.service_ready_replicas == r.service_ready_replicas
            && p.service_shares == r.service_shares
    });
    let same_population = (r.users_at_end as f64 - r.avg_users).abs() <= 0.01 * r.avg_users;
    same_config && same_population && r.service_ready_replicas == r.service_replicas
}

/// The utilisation law per service, on steady windows.
fn utilisation_law(
    spec: &AppSpec,
    r: &WindowReport,
    previous: Option<&WindowReport>,
) -> Result<(), String> {
    if !steady(r, previous) {
        return Ok(());
    }
    let duration = r.duration();
    for (si, svc) in spec.services.iter().enumerate() {
        let speed = spec.servers[svc.server.0].speed;
        let (mut predicted, mut variance) = (0.0, 0.0);
        for (ei, ep) in svc.endpoints.iter().enumerate() {
            let tps = r.endpoint_tps[si][ei];
            let demand = ep.demand / speed;
            predicted += tps * demand;
            // Var of a sum of n demands of mean d and the endpoint's cv,
            // in busy-cores units: n·(cv·d)² / T².
            variance += tps * duration * (ep.demand_cv * demand).powi(2) / (duration * duration);
        }
        if predicted <= 0.0 {
            continue;
        }
        let allowed = LAW_TOLERANCE * predicted + LAW_SIGMAS * variance.sqrt();
        let busy = r.service_busy_cores[si];
        if (busy - predicted).abs() > allowed {
            return Err(format!(
                "utilisation law, {}: busy {busy:.4} cores vs Σ X·D {predicted:.4} (allowed ±{allowed:.4})",
                svc.name
            ));
        }
    }
    Ok(())
}

/// Checks one simulated window. `previous` is the window before it in
/// the same run, if any.
pub fn check_window(
    spec: &AppSpec,
    think: f64,
    report: &WindowReport,
    previous: Option<&WindowReport>,
) -> Result<(), String> {
    all_finite_non_negative(report)
        .and_then(|()| littles_law(report, think))
        .and_then(|()| utilisation_law(spec, report, previous))
        .map_err(|e| format!("window [{:.0}, {:.0}) s: {e}", report.start, report.end))
}

/// Checks one decision's actions against the binding's actuation limits.
/// `actions` is `None` when the controller panicked.
pub fn check_decision(
    binding: &ModelBinding,
    actions: Option<&[ScaleAction]>,
) -> Result<(), String> {
    let actions = actions.ok_or_else(|| "the controller panicked".to_string())?;
    for a in actions {
        let svc = binding
            .by_service(a.service)
            .ok_or_else(|| format!("action on unbound service {}", a.service.0))?;
        if a.replicas < 1 || a.replicas > svc.max_replicas {
            return Err(format!(
                "{}: {} replicas outside 1..={}",
                svc.name, a.replicas, svc.max_replicas
            ));
        }
        let steps = a.share / SHARE_STEP;
        if (steps - steps.round()).abs() > 1e-6 {
            return Err(format!("{}: share {} off the lattice", svc.name, a.share));
        }
        let (lo, hi) = svc.share_bounds;
        if a.share < lo - 1e-9 || a.share > hi + 1e-9 {
            return Err(format!(
                "{}: share {} outside [{lo}, {hi}]",
                svc.name, a.share
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{wide_spec, THINK_TIME};
    use atom_cluster::ServiceId;
    use atom_sockshop::SockShop;

    /// A window of the wide app at 700 users: X = 98 req/s, 2 in system.
    fn window() -> WindowReport {
        let tps = 98.0;
        WindowReport::for_span(0.0, 100.0)
            .with_feature_counts(vec![9800])
            .with_feature_tps(vec![tps])
            .with_feature_response(vec![0.02])
            .with_endpoint_tps(vec![vec![tps]])
            .with_service_utilization(vec![0.65])
            .with_service_busy_cores(vec![tps * 0.005])
            .with_service_alloc_cores(vec![0.77])
            .with_service_replicas(vec![4])
            .with_service_ready_replicas(vec![4])
            .with_service_shares(vec![0.19])
            .with_service_availability(vec![1.0])
            .with_server_utilization(vec![0.2])
            .with_total_tps(tps)
            .with_avg_users(700.0)
            .with_users_at_end(700)
            .with_avg_in_system(14.0)
    }

    #[test]
    fn a_lawful_window_passes() {
        let spec = wide_spec(700);
        assert_eq!(check_window(&spec, THINK_TIME, &window(), None), Ok(()));
    }

    #[test]
    fn broken_laws_and_bad_values_fail() {
        let spec = wide_spec(700);
        let little = window().with_avg_in_system(140.0);
        let err = check_window(&spec, THINK_TIME, &little, None).unwrap_err();
        assert!(err.contains("Little"), "{err}");
        let util = window().with_service_busy_cores(vec![0.7]);
        let err = check_window(&spec, THINK_TIME, &util, None).unwrap_err();
        assert!(err.contains("utilisation law"), "{err}");
        let nan = window().with_total_tps(f64::NAN);
        assert!(check_window(&spec, THINK_TIME, &nan, None).is_err());
        let neg = window().with_feature_response(vec![-1.0]);
        assert!(check_window(&spec, THINK_TIME, &neg, None).is_err());
    }

    #[test]
    fn the_utilisation_law_waits_for_a_steady_window() {
        let spec = wide_spec(700);
        let util = window().with_service_busy_cores(vec![0.7]);
        let rescaled = window().with_service_replicas(vec![2]);
        assert_eq!(
            check_window(&spec, THINK_TIME, &util, Some(&rescaled)),
            Ok(())
        );
        let ramping = util.clone().with_users_at_end(900);
        assert_eq!(check_window(&spec, THINK_TIME, &ramping, None), Ok(()));
    }

    #[test]
    fn decisions_must_be_actuable() {
        let binding = SockShop::default().binding(500, THINK_TIME, &[0.33, 0.17, 0.5]);
        let act = |replicas, share| ScaleAction {
            service: ServiceId(atom_sockshop::SVC_FRONT_END),
            replicas,
            share,
        };
        assert_eq!(check_decision(&binding, Some(&[act(3, 0.45)])), Ok(()));
        assert_eq!(check_decision(&binding, Some(&[])), Ok(()));
        assert!(check_decision(&binding, None).is_err());
        assert!(check_decision(&binding, Some(&[act(9, 0.45)])).is_err());
        assert!(check_decision(&binding, Some(&[act(0, 0.45)])).is_err());
        assert!(check_decision(&binding, Some(&[act(3, 0.47)])).is_err());
        assert!(check_decision(&binding, Some(&[act(3, 1.5)])).is_err());
    }

    #[test]
    fn tally_counts_and_keeps_the_first_messages() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("a".into()));
        let mut u = Tally::default();
        u.record(Err("b".into()));
        t.absorb(u);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.messages, vec!["a".to_string(), "b".to_string()]);
    }
}
