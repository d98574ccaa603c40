//! The orchestration fabric: servers, replicas, in-flight invocations,
//! scaling actuation, and fault state.
//!
//! Each lifecycle decision has one owner. Only `reconcile` decides how
//! many replicas a service runs: after a scale order, a crash or an
//! outage alike, it brings the *serving* replicas (`Starting` + `Ready`)
//! to the service's target, the last order. A replica starts only
//! through `spawn_replica` (start-up delay and slow-start factor) and
//! dies only through `retire` (state `Dead`, group cap 0). Fault
//! episodes live in one `FaultState`.
//!
//! This layer is population-backend-agnostic: it executes whatever
//! request chains reach it and applies whatever scaling/fault events the
//! calendar delivers, regardless of whether users are simulated one by
//! one or as a fluid aggregate.

use std::collections::VecDeque;

use atom_sim::processor::{GroupId, JobId};
use atom_sim::{ProcessorTable, TimeWeighted};

use crate::event::{idx16, idx32, Event};
use crate::faults::{FaultKind, FaultState};
use crate::runtime::{Cluster, ScaleAction};

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ReplicaState {
    /// Container created; serving from `ready_at`.
    Starting { ready_at: f64 },
    /// Serving traffic.
    Ready,
    /// No longer receiving new requests; finishing queued work.
    Draining,
    /// Gone.
    Dead,
}

impl ReplicaState {
    /// Counts toward the target; a draining replica no longer does.
    fn serving(self) -> bool {
        matches!(self, ReplicaState::Starting { .. } | ReplicaState::Ready)
    }
}

#[derive(Clone)]
pub(crate) struct Replica {
    pub group: GroupId,
    pub state: ReplicaState,
    pub busy_threads: usize,
    pub queue: VecDeque<usize>,
}

#[derive(Clone)]
pub(crate) struct ServiceRt {
    pub server: usize,
    pub threads: usize,
    pub share: f64,
    /// Replica count the service reconciles to: the last scale order,
    /// the initial replica count until one lands.
    pub target: usize,
    pub replicas: Vec<Replica>,
    pub next_replica: usize,
    pub alloc: TimeWeighted,
    /// Busy core-seconds snapshot at the current window start.
    pub busy_at_window: f64,
    /// Up indicator (1 when ≥ 1 replica is ready) — time-weighted, so
    /// its window average is the service's availability.
    pub up: TimeWeighted,
}

impl ServiceRt {
    pub(crate) fn ready_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Ready)
            .count()
    }

    /// The count `reconcile` holds at the target.
    pub(crate) fn serving_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.state.serving()).count()
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum InvState {
    Queued,
    Executing,
    Calling { idx: usize },
}

#[derive(Clone)]
pub(crate) struct Invocation {
    pub service: usize,
    pub endpoint: usize,
    pub replica: usize,
    pub caller: Option<usize>,
    /// Root invocations carry the feature index and the issuing user's
    /// tenant and slot.
    pub root: Option<(usize, u16, u32)>,
    pub state: InvState,
    pub calls: Vec<(usize, usize)>,
    pub arrival: f64,
    /// Queue length seen at arrival (for the demand-estimation probe).
    pub seen_queue: usize,
    /// Handle `(slot, span index)` into the span layer when this
    /// invocation belongs to a sampled (or one-shot traced) request.
    pub sampled: Option<(usize, usize)>,
    /// Priced round trip of the child call this invocation is blocked
    /// on while that call is in transit (see `Event::NetTransit`).
    pub net_wait: f64,
}

/// Usable rate cap of one replica: its share bounded by the service's
/// CPU parallelism (`None` = unbounded by code structure).
pub(crate) fn effective_cap(share: f64, parallelism: Option<usize>) -> f64 {
    match parallelism {
        Some(p) => share.min(p as f64),
        None => share,
    }
}

/// All orchestration-plane state: the machines, the containers, the
/// in-flight work, pending actuations, and active fault episodes.
#[derive(Clone)]
pub(crate) struct Fabric {
    /// The servers' processors, with the invocation of each executing
    /// CPU job.
    pub processors: ProcessorTable<usize>,
    pub services: Vec<ServiceRt>,
    pub invocations: Vec<Option<Invocation>>,
    pub free_invs: Vec<usize>,
    /// Emptied call lists of finished invocations, reused by the next
    /// ones instead of allocating; never longer than the peak number of
    /// invocations in flight.
    pub call_pool: Vec<Vec<(usize, usize)>>,
    /// The scheduled scaling batches with their issue times (for
    /// issue-to-ready scale-latency telemetry), indexed by
    /// `Event::ApplyScaling`. A batch is taken when it falls due, and a
    /// later batch reuses its slot.
    pub pending_batches: Vec<Option<(f64, Vec<ScaleAction>)>>,
    /// The fault episodes in progress.
    pub faults: FaultState,
    // --- probe ---
    pub probe: Option<(usize, usize)>,
    pub probe_samples: Vec<(f64, f64)>,
}

/// The invocation in an occupied slot of `Fabric::invocations`.
fn live<T>(slot: Option<T>) -> T {
    slot.expect("an invocation slot is occupied from alloc_invocation until finish_invocation")
}

impl Fabric {
    /// The live invocation `inv`.
    pub(crate) fn inv(&self, inv: usize) -> &Invocation {
        live(self.invocations[inv].as_ref())
    }

    /// The live invocation `inv`, mutably.
    pub(crate) fn inv_mut(&mut self, inv: usize) -> &mut Invocation {
        live(self.invocations[inv].as_mut())
    }

    /// Frees the slot of the finished invocation `inv` and pools its
    /// call list for the next invocation.
    pub(crate) fn release_inv(&mut self, inv: usize) {
        let mut calls = live(self.invocations[inv].take()).calls;
        if calls.capacity() > 0 {
            calls.clear();
            self.call_pool.push(calls);
        }
        self.free_invs.push(inv);
    }
}

// Scaling actuation and fault injection: these methods mutate the fabric
// but live on `Cluster` because they also touch the calendar and
// telemetry.
impl Cluster {
    /// Applies the scaling batch `batch` as it falls due, or drops it
    /// while actuation is down: the batch is lost, not deferred, and
    /// controllers must notice via the report and re-issue. Returns
    /// whether any action was applied.
    pub(crate) fn apply_scaling(&mut self, batch: usize) -> bool {
        let batch = self.fabric.pending_batches[batch].take();
        let Some((issued, actions)) = batch.filter(|(_, actions)| !actions.is_empty()) else {
            return false;
        };
        if self.fabric.faults.actuation_down(self.engine.now) {
            self.fabric.faults.failed_actuations += 1;
            self.telemetry.dropped_batches += 1;
            return false;
        }
        for a in actions {
            self.apply_action(a, issued);
        }
        true
    }

    /// Retunes service `si`'s share and reconciles it to the action's
    /// replica count; new replicas record their issue-to-ready latency
    /// against `issued`.
    fn apply_action(&mut self, action: ScaleAction, issued: f64) {
        let si = action.service.0;
        if si >= self.fabric.services.len() {
            return; // ignore unknown service ids from buggy controllers
        }
        let share = action.share.max(0.01);
        let cap = effective_cap(share, self.spec.services[si].parallelism);
        let svc = &mut self.fabric.services[si];
        svc.share = share;
        svc.target = action.replicas.max(1);
        let pi = svc.server;
        // Vertical: retune every replica not dead (bounded by the
        // service's CPU parallelism).
        for rep in &self.fabric.services[si].replicas {
            if rep.state != ReplicaState::Dead {
                self.fabric
                    .processors
                    .set_group_cap(&mut self.engine, pi, rep.group, cap);
            }
        }
        self.reconcile(si, self.engine.now, Some(issued));
    }

    /// Brings service `si`'s serving replicas to its target. Below it,
    /// new replicas start from `start_at` (`issued` as in
    /// `spawn_replica`): a draining one is not revived, as Swarm starts
    /// new tasks whatever is still stopping. Above it, the newest drain;
    /// one starting, or with nothing left to finish, goes at once.
    fn reconcile(&mut self, si: usize, start_at: f64, issued: Option<f64>) {
        let svc = &self.fabric.services[si];
        let serving: Vec<usize> = (0..svc.replicas.len())
            .filter(|&r| svc.replicas[r].state.serving())
            .collect();
        let (target, excess) = (svc.target, serving.len().saturating_sub(svc.target));
        for _ in serving.len()..target {
            self.spawn_replica(si, start_at, issued);
        }
        for &r in serving.iter().rev().take(excess) {
            let rep = &mut self.fabric.services[si].replicas[r];
            let busy = rep.busy_threads > 0 || !rep.queue.is_empty();
            if rep.state == ReplicaState::Ready && busy {
                rep.state = ReplicaState::Draining;
            } else {
                self.retire(si, r);
            }
        }
        self.update_alloc(si);
    }

    /// `replica` of `si` is gone: it takes no more work and its group's
    /// cap drops to zero. Callers settle its jobs and the allocation
    /// gauge.
    pub(crate) fn retire(&mut self, si: usize, replica: usize) {
        let pi = self.fabric.services[si].server;
        let rep = &mut self.fabric.services[si].replicas[replica];
        rep.state = ReplicaState::Dead;
        let group = rep.group;
        self.fabric
            .processors
            .set_group_cap(&mut self.engine, pi, group, 0.0);
    }

    pub(crate) fn replica_ready(&mut self, si: usize, replica: usize) {
        let svc = &mut self.fabric.services[si];
        if !matches!(svc.replicas[replica].state, ReplicaState::Starting { .. }) {
            return; // retired before it came up
        }
        svc.replicas[replica].state = ReplicaState::Ready;
        // Containers start with the service's current share.
        let cap = effective_cap(svc.share, self.spec.services[si].parallelism);
        let (pi, g) = (svc.server, svc.replicas[replica].group);
        self.fabric
            .processors
            .set_group_cap(&mut self.engine, pi, g, cap);
        self.update_alloc(si);
        // Serve what queued while the replica was starting — without
        // this, requests routed to a sole starting replica (the fallback
        // path after a crash or outage) would wedge.
        loop {
            let svc = &mut self.fabric.services[si];
            if svc.replicas[replica].busy_threads >= svc.threads {
                break;
            }
            let Some(next) = svc.replicas[replica].queue.pop_front() else {
                break;
            };
            svc.replicas[replica].busy_threads += 1;
            self.begin_service(next);
        }
    }

    pub(crate) fn update_alloc(&mut self, si: usize) {
        let now = self.engine.now;
        let svc = &mut self.fabric.services[si];
        let allocated = svc
            .replicas
            .iter()
            .filter(|r| matches!(r.state, ReplicaState::Ready | ReplicaState::Draining))
            .count();
        let value = allocated as f64 * svc.share;
        let ready = svc.ready_count();
        svc.alloc.update(now, value);
        svc.up.update(now, if ready > 0 { 1.0 } else { 0.0 });
    }

    pub(crate) fn apply_fault(&mut self, idx: usize) {
        match self.options.faults.events()[idx].kind {
            FaultKind::ReplicaCrash { service } => self.crash_replica(service),
            FaultKind::ServerOutage { server, duration } => self.server_outage(server, duration),
            episode @ (FaultKind::MonitorDropout { .. }
            | FaultKind::ActuationFailure { .. }
            | FaultKind::SlowStart { .. }) => self.fabric.faults.begin(self.engine.now, episode),
        }
    }

    /// Adds a `Starting` replica to `si` whose start-up (slowed by any
    /// slow-start episode) begins at `start_at`. `issued` is the issue
    /// time of the scaling batch that asked for it, recorded as an
    /// issue-to-ready latency sample; crash and outage replacements have
    /// none.
    fn spawn_replica(&mut self, si: usize, start_at: f64, issued: Option<f64>) {
        let startup = self.spec.services[si].startup_delay
            * self.fabric.faults.startup_factor(self.engine.now);
        let ready_at = start_at + startup;
        if let Some(issued) = issued {
            self.telemetry.scale_latencies.push(ready_at - issued);
        }
        let pi = self.fabric.services[si].server;
        let cap = effective_cap(
            self.fabric.services[si].share,
            self.spec.services[si].parallelism,
        );
        let group = self.fabric.processors.add_group(&mut self.engine, pi, cap);
        self.fabric.services[si].replicas.push(Replica {
            group,
            state: ReplicaState::Starting { ready_at },
            busy_threads: 0,
            queue: VecDeque::new(),
        });
        let replica = self.fabric.services[si].replicas.len() - 1;
        self.engine.push(
            ready_at,
            Event::ReplicaReady {
                service: idx16(si),
                replica: idx32(replica),
            },
        );
    }

    /// Kills `replica` of `si` abruptly and returns the invocations that
    /// were queued or executing on it; callers reconcile the service and
    /// then re-dispatch them. Requests that already moved past the
    /// replica's CPU stage (waiting on a downstream call or I/O) finish
    /// normally — their state lives downstream, not in the dead
    /// container.
    fn fail_replica(&mut self, si: usize, replica: usize) -> Vec<usize> {
        self.retire(si, replica);
        let pi = self.fabric.services[si].server;
        let rep = &mut self.fabric.services[si].replicas[replica];
        let mut displaced: Vec<usize> = rep.queue.drain(..).collect();
        // Jobs executing on the victim, in `JobId` order: the order leaks
        // into replica selection for the re-dispatched work.
        let executing: Vec<JobId> = self
            .fabric
            .processors
            .running(pi)
            .filter(|&(_, inv)| {
                let i = self.fabric.inv(inv);
                i.service == si && i.replica == replica
            })
            .map(|(job, _)| job)
            .collect();
        let rep = &mut self.fabric.services[si].replicas[replica];
        rep.busy_threads = rep.busy_threads.saturating_sub(executing.len());
        for job in executing {
            displaced.push(self.fabric.processors.remove_job(&mut self.engine, pi, job));
        }
        displaced
    }

    /// Re-dispatches a displaced invocation onto a live replica (the
    /// request is retried from the start of its CPU stage; demand is
    /// re-sampled).
    fn requeue_invocation(&mut self, inv: usize) {
        let si = self.fabric.inv(inv).service;
        let replica = self.pick_replica(si);
        let i = self.fabric.inv_mut(inv);
        i.replica = replica;
        i.state = InvState::Queued;
        self.admit(si, replica, inv);
    }

    /// One replica of `si` dies; the orchestrator reconciles, starting a
    /// replacement after the (possibly slowed) start-up delay if the
    /// victim counted toward the target. Prefers a ready victim —
    /// crashing a container that never served would be a no-op.
    fn crash_replica(&mut self, si: usize) {
        let reps = &self.fabric.services[si].replicas;
        let ready = reps.iter().position(|r| r.state == ReplicaState::Ready);
        let Some(victim) =
            ready.or_else(|| reps.iter().position(|r| r.state != ReplicaState::Dead))
        else {
            return;
        };
        let displaced = self.fail_replica(si, victim);
        // Replacement first, then re-dispatch: the service always keeps
        // at least one live replica for pick_replica to land on.
        self.reconcile(si, self.engine.now, None);
        for inv in displaced {
            self.requeue_invocation(inv);
        }
    }

    /// Every replica on server `pi` dies, and its services reconcile with
    /// start-ups that begin once the server is back after `duration`
    /// seconds. Displaced work backlogs on the starting replacements and
    /// drains when they come up.
    fn server_outage(&mut self, pi: usize, duration: f64) {
        let back_at = self.engine.now + duration;
        let mut displaced_all: Vec<usize> = Vec::new();
        for si in 0..self.fabric.services.len() {
            if self.fabric.services[si].server != pi {
                continue;
            }
            for r in 0..self.fabric.services[si].replicas.len() {
                if self.fabric.services[si].replicas[r].state != ReplicaState::Dead {
                    displaced_all.extend(self.fail_replica(si, r));
                }
            }
            self.reconcile(si, back_at, None);
        }
        // Re-dispatch only after every service has its replacements, so
        // cross-service calls never observe a replica-less service.
        for inv in displaced_all {
            self.requeue_invocation(inv);
        }
    }
}
