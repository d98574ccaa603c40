//! The orchestration fabric: servers, replicas, in-flight invocations,
//! scaling actuation, and fault state.
//!
//! This layer is population-backend-agnostic: it executes whatever
//! request chains reach it and applies whatever scaling/fault events the
//! calendar delivers, regardless of whether users are simulated one by
//! one or as a fluid aggregate.

use std::collections::VecDeque;

use atom_sim::processor::{GroupId, JobId};
use atom_sim::{ProcessorTable, TimeWeighted};

use crate::event::{idx16, idx32, Event};
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

pub(crate) struct Replica {
    pub group: GroupId,
    pub state: ReplicaState,
    pub busy_threads: usize,
    pub queue: VecDeque<usize>,
}

pub(crate) struct ServiceRt {
    pub server: usize,
    pub threads: usize,
    pub share: f64,
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
    pub fn ready_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| matches!(r.state, ReplicaState::Ready))
            .count()
    }

    pub fn live_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| !matches!(r.state, ReplicaState::Dead))
            .count()
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum InvState {
    Queued,
    Executing,
    Calling { idx: usize },
}

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
    pub pending_batches: Vec<Vec<ScaleAction>>,
    /// Issue time of each pending batch, parallel to `pending_batches`
    /// (for issue-to-ready scale-latency telemetry).
    pub batch_issued: Vec<f64>,
    /// Issue time of the scaling batch currently being applied, if any —
    /// set around `apply_action` so `spawn_replica` can attribute new
    /// replicas' ready times to the issuing decision (crash-recovery
    /// spawns have no issuing decision and are not latency samples).
    pub scaling_issued_at: Option<f64>,
    // --- fault state ---
    /// Intervals during which the monitoring plane is dark.
    pub dark_intervals: Vec<(f64, f64)>,
    /// Scaling batches dispatched before this time are dropped.
    pub actuation_fail_until: f64,
    /// Start-up delays are multiplied by `slow_start_factor` until then.
    pub slow_start_until: f64,
    pub slow_start_factor: f64,
    /// Scaling batches dropped in the current window.
    pub failed_actuations: usize,
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

    /// Whether the monitoring plane sees events at `now` (false while
    /// inside a monitor-dropout interval).
    pub fn monitor_observing(&self, now: f64) -> bool {
        !self
            .dark_intervals
            .iter()
            .any(|&(s, e)| now >= s && now < e)
    }

    /// Current start-up delay multiplier (raised during a slow-start
    /// fault episode).
    pub fn startup_factor(&self, now: f64) -> f64 {
        if now < self.slow_start_until {
            self.slow_start_factor
        } else {
            1.0
        }
    }
}

// Scaling actuation and fault injection: these methods mutate the fabric
// but live on `Cluster` because they also touch the calendar and
// telemetry.
impl Cluster {
    pub(crate) fn apply_action(&mut self, action: ScaleAction) {
        let si = action.service.0;
        if si >= self.fabric.services.len() {
            return; // ignore unknown service ids from buggy controllers
        }
        let now = self.engine.now;
        let share = action.share.max(0.01);
        let target = action.replicas.max(1);
        // Vertical: retune every live replica's cap (bounded by the
        // service's CPU parallelism).
        let pi = self.fabric.services[si].server;
        self.fabric.services[si].share = share;
        let cap = effective_cap(share, self.spec.services[si].parallelism);
        let groups: Vec<GroupId> = self.fabric.services[si]
            .replicas
            .iter()
            .filter(|r| !matches!(r.state, ReplicaState::Dead))
            .map(|r| r.group)
            .collect();
        for g in groups {
            self.fabric.processors[pi].set_group_cap(now, g, cap);
        }
        self.fabric.processors.publish(&mut self.engine, pi);

        // Horizontal.
        let live: Vec<usize> = self.fabric.services[si]
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| !matches!(r.state, ReplicaState::Dead))
            .map(|(i, _)| i)
            .collect();
        if target > live.len() {
            let startup = self.spec.services[si].startup_delay * self.fabric.startup_factor(now);
            for _ in 0..(target - live.len()) {
                self.spawn_replica(si, now + startup);
            }
        } else if target < live.len() {
            // Drain the newest replicas first.
            for &idx in live.iter().rev().take(live.len() - target) {
                let rep = &mut self.fabric.services[si].replicas[idx];
                match rep.state {
                    ReplicaState::Starting { .. } => {
                        // Never served: kill immediately.
                        rep.state = ReplicaState::Dead;
                        let g = rep.group;
                        self.fabric.processors[pi].set_group_cap(now, g, 0.0);
                    }
                    ReplicaState::Ready => {
                        if rep.busy_threads == 0 && rep.queue.is_empty() {
                            rep.state = ReplicaState::Dead;
                            let g = rep.group;
                            self.fabric.processors[pi].set_group_cap(now, g, 0.0);
                        } else {
                            rep.state = ReplicaState::Draining;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.update_alloc(si);
    }

    pub(crate) fn kill_replica(&mut self, si: usize, replica: usize) {
        let now = self.engine.now;
        let pi = self.fabric.services[si].server;
        let g = self.fabric.services[si].replicas[replica].group;
        self.fabric.services[si].replicas[replica].state = ReplicaState::Dead;
        self.fabric.processors[pi].set_group_cap(now, g, 0.0);
        self.update_alloc(si);
    }

    pub(crate) fn replica_ready(&mut self, si: usize, replica: usize) {
        let now = self.engine.now;
        let rep = &mut self.fabric.services[si].replicas[replica];
        if let ReplicaState::Starting { .. } = rep.state {
            rep.state = ReplicaState::Ready;
            // Containers start with the service's current share.
            let share = self.fabric.services[si].share;
            let cap = effective_cap(share, self.spec.services[si].parallelism);
            let pi = self.fabric.services[si].server;
            let g = self.fabric.services[si].replicas[replica].group;
            self.fabric.processors[pi].set_group_cap(now, g, cap);
            self.update_alloc(si);
            // Serve what queued while the replica was starting — without
            // this, requests routed to a sole starting replica (the
            // fallback path after a crash or outage) would wedge.
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
    }

    pub(crate) fn update_alloc(&mut self, si: usize) {
        let now = self.engine.now;
        let svc = &self.fabric.services[si];
        let live = svc
            .replicas
            .iter()
            .filter(|r| matches!(r.state, ReplicaState::Ready | ReplicaState::Draining))
            .count();
        let ready = svc.ready_count();
        let value = live as f64 * svc.share;
        self.fabric.services[si].alloc.update(now, value);
        self.fabric.services[si]
            .up
            .update(now, if ready > 0 { 1.0 } else { 0.0 });
    }

    pub(crate) fn apply_fault(&mut self, idx: usize) {
        use atom_faults::FaultKind;
        let now = self.engine.now;
        let event = self.options.faults.events()[idx];
        match event.kind {
            FaultKind::ReplicaCrash { service } => self.crash_replica(service),
            FaultKind::ServerOutage { server, duration } => self.server_outage(server, duration),
            FaultKind::MonitorDropout { duration } => {
                self.fabric.dark_intervals.push((now, now + duration));
            }
            FaultKind::ActuationFailure { duration } => {
                self.fabric.actuation_fail_until =
                    self.fabric.actuation_fail_until.max(now + duration);
            }
            FaultKind::SlowStart { factor, duration } => {
                self.fabric.slow_start_factor = factor.max(1.0);
                self.fabric.slow_start_until = self.fabric.slow_start_until.max(now + duration);
            }
            // Kinds added to the non-exhaustive enum later are ignored
            // by this cluster version rather than crashing replays.
            _ => {}
        }
    }

    /// Adds a `Starting` replica to `si` that becomes ready at
    /// `ready_at` (start-up is already factored in by the caller).
    pub(crate) fn spawn_replica(&mut self, si: usize, ready_at: f64) {
        if let Some(issued) = self.fabric.scaling_issued_at {
            self.telemetry.scale_latencies.push(ready_at - issued);
        }
        let pi = self.fabric.services[si].server;
        let cap = effective_cap(
            self.fabric.services[si].share,
            self.spec.services[si].parallelism,
        );
        let group = self.fabric.processors[pi].add_group(cap);
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
    /// were queued or executing on it; callers re-dispatch them once
    /// replacements are arranged. Requests that already moved past the
    /// replica's CPU stage (waiting on a downstream call or I/O) finish
    /// normally — their state lives downstream, not in the dead
    /// container.
    pub(crate) fn fail_replica(&mut self, si: usize, replica: usize) -> Vec<usize> {
        let now = self.engine.now;
        let pi = self.fabric.services[si].server;
        let group = self.fabric.services[si].replicas[replica].group;
        self.fabric.services[si].replicas[replica].state = ReplicaState::Dead;
        self.fabric.processors[pi].set_group_cap(now, group, 0.0);
        let mut displaced: Vec<usize> = self.fabric.services[si].replicas[replica]
            .queue
            .drain(..)
            .collect();
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
        self.fabric.services[si].replicas[replica].busy_threads = self.fabric.services[si].replicas
            [replica]
            .busy_threads
            .saturating_sub(executing.len());
        for job in executing {
            displaced.push(self.fabric.processors.remove_job(pi, now, job));
        }
        self.update_alloc(si);
        displaced
    }

    /// Re-dispatches a displaced invocation onto a live replica (the
    /// request is retried from the start of its CPU stage; demand is
    /// re-sampled).
    pub(crate) fn requeue_invocation(&mut self, inv: usize) {
        let si = self.fabric.inv(inv).service;
        let replica = self.pick_replica(si);
        let i = self.fabric.inv_mut(inv);
        i.replica = replica;
        i.state = InvState::Queued;
        self.admit(si, replica, inv);
    }

    /// One replica of `si` dies; the orchestrator restarts a replacement
    /// after the (possibly slowed) start-up delay. Prefers a ready
    /// victim — crashing a container that never served would be a no-op.
    pub(crate) fn crash_replica(&mut self, si: usize) {
        if si >= self.fabric.services.len() {
            return;
        }
        let victim = {
            let reps = &self.fabric.services[si].replicas;
            reps.iter()
                .position(|r| matches!(r.state, ReplicaState::Ready))
                .or_else(|| {
                    reps.iter()
                        .position(|r| !matches!(r.state, ReplicaState::Dead))
                })
        };
        let Some(victim) = victim else { return };
        let displaced = self.fail_replica(si, victim);
        // Replacement first, then re-dispatch: the service always keeps
        // at least one live replica for pick_replica to land on.
        let startup =
            self.spec.services[si].startup_delay * self.fabric.startup_factor(self.engine.now);
        self.spawn_replica(si, self.engine.now + startup);
        for inv in displaced {
            self.requeue_invocation(inv);
        }
        let pi = self.fabric.services[si].server;
        self.fabric.processors.publish(&mut self.engine, pi);
    }

    /// Every replica on server `pi` dies; replacements can only begin
    /// their start-up once the server is back after `duration` seconds.
    /// Displaced work backlogs on the starting replacements and drains
    /// when they come up.
    pub(crate) fn server_outage(&mut self, pi: usize, duration: f64) {
        if pi >= self.spec.servers.len() {
            return;
        }
        let back_at = self.engine.now + duration;
        let mut displaced_all: Vec<usize> = Vec::new();
        for si in 0..self.fabric.services.len() {
            if self.fabric.services[si].server != pi {
                continue;
            }
            let live: Vec<usize> = self.fabric.services[si]
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| !matches!(r.state, ReplicaState::Dead))
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                continue;
            }
            for &idx in &live {
                displaced_all.extend(self.fail_replica(si, idx));
            }
            let startup =
                self.spec.services[si].startup_delay * self.fabric.startup_factor(self.engine.now);
            for _ in 0..live.len() {
                self.spawn_replica(si, back_at + startup);
            }
        }
        // Re-dispatch only after every service has its replacements, so
        // cross-service calls never observe a replica-less service.
        for inv in displaced_all {
            self.requeue_invocation(inv);
        }
        self.fabric.processors.publish(&mut self.engine, pi);
    }
}
