//! The reconciler: issued actions, tracked until the actuator state
//! confirms them.

use atom_cluster::{ScaleAction, WindowReport};
use atom_obs::ActuationOutcome;

use super::ACTUATION_DELAY;
use crate::binding::ModelBinding;

/// How many times a scaling action that the actuator did not apply (an
/// actuation-failure fault dropped the batch) is re-issued before being
/// abandoned.
const MAX_ACTUATION_RETRIES: usize = 3;

/// A scaling action issued but not yet confirmed by the actuator state.
#[derive(Debug, Clone, Copy)]
struct PendingAction {
    action: ScaleAction,
    retries_left: usize,
    /// Earliest time the actuator could have applied the action (issue
    /// time plus the actuation delay); before this the action is merely
    /// in flight, not dropped.
    due: f64,
}

/// Owns the pending-action queue: confirms, re-issues (with a bounded
/// retry budget) or abandons what earlier windows ordered, and tracks
/// what this window orders.
#[derive(Debug, Clone, Default)]
pub(super) struct Reconciler {
    pending: Vec<PendingAction>,
}

impl Reconciler {
    /// Monitor: checks previously-issued actions against the actuator
    /// state. Confirmed actions are dropped; unconfirmed ones past their
    /// due time are returned for re-issue (their service named in
    /// `outcome.reissued`) or, out of retries, abandoned
    /// (`outcome.abandoned`). Appends an operator note per outcome.
    pub(super) fn reconcile(
        &mut self,
        report: &WindowReport,
        binding: &ModelBinding,
        outcome: &mut ActuationOutcome,
        notes: &mut Vec<String>,
    ) -> Vec<ScaleAction> {
        if report.failed_actuations > 0 {
            notes.push(format!(
                "{} scaling batch(es) rejected by the orchestration API",
                report.failed_actuations
            ));
        }
        let mut reissue = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            // Applied: the configured replica count matches and the
            // share is on the same lattice point.
            let (si, share) = (p.action.service.0, p.action.share);
            if report.service_replicas.get(si) == Some(&p.action.replicas)
                && matches!(report.service_shares.get(si), Some(s) if (s - share).abs() < 1e-9)
            {
                continue;
            }
            if report.end < p.due - 1e-9 {
                // Still in flight: the actuation delay has not elapsed,
                // so absence from the actuator state proves nothing.
                self.pending.push(p);
                continue;
            }
            let service = super::service_name(binding, p.action.service);
            if p.retries_left > 0 {
                notes.push(format!(
                    "re-issuing dropped [{}] ({} retries left)",
                    p.action,
                    p.retries_left - 1
                ));
                self.pending.push(PendingAction {
                    retries_left: p.retries_left - 1,
                    due: report.end + ACTUATION_DELAY,
                    ..p
                });
                outcome.reissued.push(service);
                reissue.push(p.action);
            } else {
                notes.push(format!(
                    "abandoning [{}] after repeated actuation failures",
                    p.action
                ));
                outcome.abandoned.push(service);
            }
        }
        reissue
    }

    /// Execute: the actions that go out at `now` — the freshly `planned`
    /// ones, tracked with a full retry budget (a fresh plan for a service
    /// supersedes any retry still pending for it), then the `reissue`s
    /// for services the plan did not touch.
    pub(super) fn issue(
        &mut self,
        mut planned: Vec<ScaleAction>,
        reissue: Vec<ScaleAction>,
        now: f64,
    ) -> Vec<ScaleAction> {
        for a in &planned {
            self.pending.retain(|p| p.action.service != a.service);
            self.pending.push(PendingAction {
                action: *a,
                retries_left: MAX_ACTUATION_RETRIES,
                due: now + ACTUATION_DELAY,
            });
        }
        for a in reissue {
            if !planned.iter().any(|x| x.service == a.service) {
                planned.push(a);
            }
        }
        planned
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::Atom;
    use crate::autoscaler::Autoscaler;

    #[test]
    fn dropped_actions_are_reissued_then_abandoned() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        let heavy = report(2000, 1, 0.2);
        let first = atom.decide(&heavy);
        assert_eq!(first.len(), 1);
        // Every subsequent window is dark AND the actuator never applied
        // the order: once the actuation delay has elapsed the controller
        // re-issues it verbatim, with a bounded retry budget (planning
        // waits while corrections are in flight).
        let dark = |k: usize| {
            at_window(
                heavy
                    .clone()
                    .with_monitor_dropout_fraction(1.0)
                    .with_failed_actuations(1),
                k,
            )
        };
        for round in 1..=3 {
            let again = atom.decide(&dark(round));
            assert_eq!(again, first, "round {round} must re-issue the order");
            let rec = atom.take_decision_record().expect("record");
            let text = rec.explanation().expect("explanation");
            assert!(text.contains("re-issuing"), "round {round}: {text}");
            assert_eq!(rec.actuation.reissued, vec!["web".to_string()]);
            assert!(rec.actuation.abandoned.is_empty());
        }
        // Retry budget exhausted: the order is abandoned and the
        // controller goes back to planning (from trusted telemetry). The
        // planner may well *want* the same scale-up — that is a fresh
        // plan with a fresh retry budget, not a blind fourth retry — so
        // we only assert the abandonment is surfaced.
        let _ = atom.decide(&dark(4));
        let rec = atom.take_decision_record().expect("record");
        let text = rec.explanation().expect("explanation");
        assert!(text.contains("abandoning"), "unexpected: {text}");
        assert_eq!(rec.actuation.abandoned, vec!["web".to_string()]);
    }

    #[test]
    fn applied_actions_clear_the_pending_queue() {
        let mut atom = Atom::new(binding(0.2), fast_config());
        let first = atom.decide(&report(2000, 1, 0.2));
        assert_eq!(first.len(), 1);
        // The actuator applied the order; nothing is re-issued even when
        // the next window is dark.
        let applied = at_window(
            report(2000, first[0].replicas, first[0].share).with_monitor_dropout_fraction(1.0),
            1,
        );
        let next = atom.decide(&applied);
        assert!(
            next.iter().all(|a| *a != first[0]),
            "confirmed order must not be repeated: {next:?}"
        );
    }
}
