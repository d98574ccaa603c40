//! A cap change never loses a processor's pending completion.
//!
//! Removing or starting a container moves one group's cap on its server.
//! The processor table publishes the server's next completion after
//! every change it makes, so the jobs already running there finish when
//! they are due, whatever moved next to them. This suite pins that on
//! the case that used to go wrong: when `retire` and `replica_ready`
//! moved a cap without republishing, the engine dropped the pending
//! completion as stale and the jobs on the server waited for the next
//! job to enter or leave it (here, a no-op retune at t = 15).

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
fn a_cap_change_next_to_a_running_job_leaves_it_on_time() {
    let (undisturbed, _) = first_window(None);
    assert_eq!(undisturbed.feature_counts[0], 1);
    assert!(
        (undisturbed.feature_response[0] - DEMAND).abs() < 1e-9,
        "undisturbed, the job takes its demand: {}",
        undisturbed.feature_response[0]
    );

    // Killing an idle replica of *another* service at t = 5 touches no
    // rate of the running job: it still completes at t ≈ 10.
    let (on_time, next) = first_window(Some(5.0));
    assert_eq!(on_time.service_replicas[1], 1, "the scale-down happened");
    assert_eq!(on_time.feature_counts[0], 1);
    assert_eq!(
        on_time.feature_response[0], undisturbed.feature_response[0],
        "the job finishes when due, not at the next reschedule (t = 15)"
    );
    assert_eq!(next.feature_counts[0], 2);
    assert!((next.feature_response[0] - DEMAND).abs() < 1e-9);
}
