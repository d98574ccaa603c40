//! Characterisation of a known defect: a processor can lose its pending
//! completion.
//!
//! `PsProcessor::set_group_cap` reallocates, which bumps the processor's
//! generation and makes the pending completion the engine holds for it
//! stale. Every caller that also adds or removes a job follows up with
//! `ProcessorTable::publish`; two that only move a cap need not —
//! `retire`, the one way a replica dies (a crash or an outage publishes
//! after it, a scale-down does not), and `replica_ready` when nothing
//! was queued on the replica. After
//! one of those the processor has *no* pending completion until the
//! next job enters or leaves it (or the next vertical retune), and the
//! jobs already on it — whose rates need not even have changed — finish
//! late by however long that takes.
//!
//! This suite pins that behaviour as it stands; it is not a requirement.
//! The engine refactor that took completions off the calendar preserved
//! it bit for bit (the due index carries the generation for exactly this
//! reason), because fixing it moves every closed-loop artefact in
//! `results/`. ROADMAP item 2(b) lists it as a candidate cause of
//! residence error in transient windows. The fix — reschedule after
//! every `set_group_cap` — turns `late` below into `on_time`; update the
//! test in the PR that makes it, next to the re-baselined artefacts.

use atom_cluster::{AppSpec, Cluster, ClusterOptions, ScaleAction, ServiceId, WindowReport};
use atom_workload::{RequestMix, WorkloadSpec};

/// CPU seconds of the one request type (deterministic: `demand_cv = 0`).
const DEMAND: f64 = 10.0;

/// One 4-core server; `web` serves the only feature with a 10 s job,
/// `idle` is never called and exists to be scaled down next to it.
fn spec() -> AppSpec {
    let mut spec = AppSpec::new();
    let node = spec.add_server("node", 4, 1.0);
    let web = spec.add_service("web", node, 8, 1, 1.0);
    let idle = spec.add_service("idle", node, 8, 2, 1.0);
    let page = spec.add_endpoint(web, "page", DEMAND, 0.0);
    spec.add_endpoint(idle, "noop", 0.001, 0.0);
    spec.add_feature("page", web, page);
    spec
}

/// One user with a ~1 ms think time: a request enters `web` at t ≈ 0 and
/// is due at t ≈ 10. `scale_idle_down_at` optionally removes `idle`'s
/// spare replica while that job runs; a no-op retune of `web` at t = 15
/// is the next thing to touch the processor either way.
fn first_window(scale_idle_down_at: Option<f64>) -> (WindowReport, WindowReport) {
    let spec = spec();
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), 1, 1e-3);
    let mut cluster = Cluster::new(&spec, workload, ClusterOptions::new().with_seed(5)).unwrap();
    if let Some(delay) = scale_idle_down_at {
        cluster.schedule_scaling(
            vec![ScaleAction {
                service: ServiceId(1),
                replicas: 1,
                share: 1.0,
            }],
            delay,
        );
    }
    cluster.schedule_scaling(
        vec![ScaleAction {
            service: ServiceId(0),
            replicas: 1,
            share: 1.0,
        }],
        15.0,
    );
    let first = cluster.run_window(20.0);
    let second = cluster.run_window(20.0);
    (first, second)
}

#[test]
fn a_cap_change_without_reschedule_delays_the_jobs_already_running() {
    let (on_time, _) = first_window(None);
    assert_eq!(on_time.feature_counts[0], 1);
    assert!(
        (on_time.feature_response[0] - DEMAND).abs() < 1e-9,
        "undisturbed, the job takes its demand: {}",
        on_time.feature_response[0]
    );

    // Killing an idle replica of *another* service at t = 5 touches no
    // rate of the running job, yet its completion at t ≈ 10 is lost; the
    // retune at t = 15 is the first reschedule, and finds it overdue.
    let (late, next) = first_window(Some(5.0));
    assert_eq!(late.service_replicas[1], 1, "the scale-down happened");
    assert_eq!(late.feature_counts[0], 1);
    let response = late.feature_response[0];
    assert!(
        response > 14.9 && response <= 15.0,
        "the job finishes at the next reschedule (t = 15), not when due: {response}"
    );
    // Nothing is wedged for good: the requests after it run on time.
    assert_eq!(next.feature_counts[0], 2);
    assert!((next.feature_response[0] - DEMAND).abs() < 1e-9);
}
