//! The request path: from a user's arrival through the service call
//! graph to root completion.
//!
//! Every method here is synchronous with respect to the calendar — a
//! request chain advances only at event boundaries (processor
//! completions, latency timers), and all RNG draws happen in the exact
//! order events are dispatched. That property is what makes runs
//! bitwise-reproducible, so this module must never defer work it can do
//! inline.

use crate::backend::PopCtx;
use crate::event::{idx32, Event};
use crate::fabric::{InvState, Invocation, ReplicaState};
use crate::runtime::{Cluster, TenantRt};

impl Cluster {
    pub(crate) fn user_ready(&mut self, tenant: u16, user: u32) {
        let ti = usize::from(tenant);
        if !self.tenants[ti].backend.user_live(user) {
            return; // retired while thinking
        }
        self.accum.roll_subinterval(self.engine.now);
        // Scrape-based counters miss events while the monitor is dark;
        // the in-system gauge is load-balancer state and survives.
        if self.monitor_observing() {
            self.accum.subinterval_arrivals += 1;
        }
        self.accum.in_system += 1;
        self.accum
            .in_system_tw
            .update(self.engine.now, self.accum.in_system as f64);
        self.accum.peak_in_system = self.accum.peak_in_system.max(self.accum.in_system);
        let feature = self
            .rng
            .categorical(self.tenants[ti].workload.mix.fractions());
        let feature = self.tenants[ti].layout.feature_offset + feature;
        let f = &self.spec.features[feature];
        let (si, ei) = (f.service.0, f.endpoint.0);
        // Client requests enter over the frontier, not the fabric: the
        // closed population is external to the topology, so root calls
        // never pay a network transit.
        self.start_call_delivered(si, ei, None, Some((feature, tenant, user)), 0.0);
    }

    pub(crate) fn monitor_observing(&self) -> bool {
        self.fabric.faults.observing(self.engine.now)
    }

    fn expand_calls(&mut self, si: usize, ei: usize) -> Vec<(usize, usize)> {
        let mut out = self.fabric.call_pool.pop().unwrap_or_default();
        for c in &self.spec.services[si].endpoints[ei].calls {
            let count = self.rng.call_count(c.mean);
            out.extend(std::iter::repeat_n((c.service.0, c.endpoint.0), count));
        }
        out
    }

    /// Picks a ready replica round-robin; falls back to any non-dead one.
    pub(crate) fn pick_replica(&mut self, si: usize) -> usize {
        let svc = &mut self.fabric.services[si];
        let n = svc.replicas.len();
        for k in 0..n {
            let idx = (svc.next_replica + k) % n;
            if matches!(svc.replicas[idx].state, ReplicaState::Ready) {
                svc.next_replica = idx + 1;
                return idx;
            }
        }
        // No ready replica (all still starting): queue on the first
        // non-dead one so requests are not lost.
        for (idx, r) in svc.replicas.iter().enumerate() {
            if !matches!(r.state, ReplicaState::Dead) {
                return idx;
            }
        }
        unreachable!("a service always keeps at least one live replica");
    }

    /// Issues a child call from `caller` to `(si, ei)`, paying the
    /// network round trip between the two services' servers when a
    /// topology is configured. A zero-priced trip (no topology, same
    /// server, or an all-free topology) proceeds inline with no calendar
    /// event, keeping the event stream and RNG draw order bitwise
    /// identical to pre-topology builds.
    fn issue_call(&mut self, si: usize, ei: usize, caller: usize) {
        if let Some(net) = self.net.as_mut() {
            let from = {
                let parent = self.fabric.inv(caller).service;
                self.fabric.services[parent].server
            };
            let to = self.fabric.services[si].server;
            let now = self.engine.now;
            let wait = net.round_trip(from, to, now);
            if wait > 0.0 {
                self.fabric.inv_mut(caller).net_wait = wait;
                self.engine.push(
                    now + wait,
                    Event::NetTransit {
                        caller: idx32(caller),
                    },
                );
                return;
            }
        }
        self.start_call_delivered(si, ei, Some(caller), None, 0.0);
    }

    /// The round trip `caller` was blocked on is over: the call it is
    /// parked on enters the callee service.
    pub(crate) fn transit_done(&mut self, caller: usize) {
        let i = self.fabric.inv(caller);
        let InvState::Calling { idx } = i.state else {
            unreachable!("a caller in transit is in Calling state");
        };
        let (si, ei) = i.calls[idx];
        let wait = i.net_wait;
        self.start_call_delivered(si, ei, Some(caller), None, wait);
    }

    /// Starts an invocation at `(si, ei)` once any network transit has
    /// completed; `net_wait` is the round trip the call just paid (zero
    /// for roots and co-located calls), recorded on its sampled span.
    pub(crate) fn start_call_delivered(
        &mut self,
        si: usize,
        ei: usize,
        caller: Option<usize>,
        root: Option<(usize, u16, u32)>,
        net_wait: f64,
    ) {
        let now = self.engine.now;
        let replica = self.pick_replica(si);
        let calls = self.expand_calls(si, ei);
        // Queue seen at arrival for the demand-estimation probe: jobs
        // executing on the service's processor (the MVA arrival theorem
        // applies at the contended resource — the CPU — cf. Kraft et
        // al. [26]).
        let seen_queue = self.fabric.processors[self.fabric.services[si].server].active_jobs();
        // Span layer: roots pass the seeded sampling hash (never an RNG
        // draw) or the armed one-shot trace, children inherit their
        // caller's handle. With sampling off and nothing armed no root
        // gets a handle, so the whole branch is bit-for-bit the pre-span
        // code.
        let sampled = if let Some((feature, tenant, _)) = root {
            if self.spans.wants_roots() {
                let server = self.fabric.services[si].server;
                let ti = usize::from(tenant);
                let backend = self.tenants[ti].backend.kind();
                self.spans
                    .maybe_start(ti, feature, si, ei, replica, server, backend, now)
            } else {
                None
            }
        } else {
            caller
                .and_then(|c| self.fabric.inv(c).sampled)
                .map(|(slot, parent)| {
                    let server = self.fabric.services[si].server;
                    let backend = self.tenants[0].backend.kind();
                    self.spans.child(
                        slot, parent, si, ei, replica, server, backend, now, net_wait,
                    )
                })
        };
        let inv = self.alloc_invocation(Invocation {
            service: si,
            endpoint: ei,
            replica,
            caller,
            root,
            state: InvState::Queued,
            calls,
            arrival: now,
            seen_queue,
            sampled,
            net_wait: 0.0,
        });
        self.admit(si, replica, inv);
    }

    /// Starts `inv` on `replica` of service `si` when that replica serves
    /// and has a free thread; queues it there otherwise.
    pub(crate) fn admit(&mut self, si: usize, replica: usize, inv: usize) {
        let svc = &mut self.fabric.services[si];
        let rep = &mut svc.replicas[replica];
        if matches!(rep.state, ReplicaState::Ready | ReplicaState::Draining)
            && rep.busy_threads < svc.threads
        {
            rep.busy_threads += 1;
            self.begin_service(inv);
        } else {
            rep.queue.push_back(inv);
        }
    }

    fn alloc_invocation(&mut self, inv: Invocation) -> usize {
        match self.fabric.free_invs.pop() {
            Some(slot) => {
                self.fabric.invocations[slot] = Some(inv);
                slot
            }
            None => {
                self.fabric.invocations.push(Some(inv));
                self.fabric.invocations.len() - 1
            }
        }
    }

    pub(crate) fn begin_service(&mut self, inv: usize) {
        let now = self.engine.now;
        let i = self.fabric.inv_mut(inv);
        i.state = InvState::Executing;
        let (si, ei, replica, sampled) = (i.service, i.endpoint, i.replica, i.sampled);
        if let Some(handle) = sampled {
            self.spans.begin(handle, now);
        }
        let ep = &self.spec.services[si].endpoints[ei];
        let demand = self.rng.demand(ep.demand, ep.demand_cv);
        if demand == 0.0 {
            self.demand_done(inv);
            return;
        }
        let pi = self.fabric.services[si].server;
        let group = self.fabric.services[si].replicas[replica].group;
        self.fabric
            .processors
            .add_job(&mut self.engine, pi, group, demand, inv);
    }

    pub(crate) fn demand_done(&mut self, inv: usize) {
        // Pure-latency (I/O) stage before the downstream calls.
        let i = self.fabric.inv(inv);
        let (si, ei) = (i.service, i.endpoint);
        let latency = self.spec.services[si].endpoints[ei].latency;
        if latency > 0.0 {
            let wait = self.rng.exponential(latency);
            self.engine.push(
                self.engine.now + wait,
                Event::LatencyDone { inv: idx32(inv) },
            );
            return;
        }
        self.proceed_to_calls(inv);
    }

    pub(crate) fn proceed_to_calls(&mut self, inv: usize) {
        let i = self.fabric.inv_mut(inv);
        if let Some(&(si, ei)) = i.calls.first() {
            i.state = InvState::Calling { idx: 0 };
            self.issue_call(si, ei, inv);
        } else {
            self.finish_invocation(inv);
        }
    }

    fn child_done(&mut self, inv: usize) {
        let i = self.fabric.inv_mut(inv);
        let InvState::Calling { idx } = i.state else {
            unreachable!("caller must be in Calling state");
        };
        let next = idx + 1;
        if let Some(&(si, ei)) = i.calls.get(next) {
            i.state = InvState::Calling { idx: next };
            self.issue_call(si, ei, inv);
        } else {
            self.finish_invocation(inv);
        }
    }

    fn finish_invocation(&mut self, inv: usize) {
        let now = self.engine.now;
        let i = self.fabric.inv(inv);
        let (si, ei, replica, caller, root, arrival, seen_queue, sampled) = (
            i.service,
            i.endpoint,
            i.replica,
            i.caller,
            i.root,
            i.arrival,
            i.seen_queue,
            i.sampled,
        );
        if let Some(handle) = sampled {
            let observing = self.monitor_observing();
            self.spans
                .finish(handle, now, observing, &mut self.telemetry);
        }
        if self.monitor_observing() {
            self.accum.endpoint_counts[si][ei] += 1;
            if let Some((ps, pe)) = self.fabric.probe {
                if ps == si && pe == ei {
                    self.fabric
                        .probe_samples
                        .push((seen_queue as f64, now - arrival));
                }
            }
        }
        self.fabric.release_inv(inv);

        // Release the thread / admit next.
        let svc = &mut self.fabric.services[si];
        let rep = &mut svc.replicas[replica];
        if let Some(next) = rep.queue.pop_front() {
            self.begin_service(next);
        } else {
            rep.busy_threads -= 1;
            // A drained replica with no work left dies.
            if matches!(rep.state, ReplicaState::Draining) && rep.busy_threads == 0 {
                self.retire(si, replica);
                self.update_alloc(si);
            }
        }

        match (caller, root) {
            (Some(parent), _) => self.child_done(parent),
            (None, Some((feature, tenant, user))) => {
                self.complete_request(feature, tenant, user, arrival)
            }
            (None, None) => unreachable!("invocation must have a caller or be a root"),
        }
    }

    fn complete_request(&mut self, feature: usize, tenant: u16, user: u32, arrival: f64) {
        let now = self.engine.now;
        self.accum.in_system = self.accum.in_system.saturating_sub(1);
        self.accum
            .in_system_tw
            .update(now, self.accum.in_system as f64);
        if self.monitor_observing() {
            self.accum.feature_counts[feature] += 1;
            self.accum.feature_resp_sum[feature] += now - arrival;
        }
        let TenantRt {
            backend, workload, ..
        } = &mut self.tenants[usize::from(tenant)];
        let mut ctx = PopCtx {
            engine: &mut self.engine,
            rng: &mut self.rng,
            workload,
        };
        backend.request_complete(&mut ctx, user);
    }
}

#[cfg(test)]
mod tests {
    use crate::event::Event;
    use crate::runtime::{Cluster, ClusterOptions};
    use crate::spec::{AppSpec, EndpointId, ServiceId};
    use atom_sim::processor::GroupId;
    use atom_workload::{RequestMix, WorkloadSpec};

    /// One service on one server, a deterministic 1 s job per request on
    /// a one-core share (so a job alone finishes exactly 1.0 after it
    /// starts), and two users who on their own never arrive: the tests
    /// place arrivals by hand, at exact instants.
    fn idle_cluster() -> Cluster {
        let mut spec = AppSpec::new();
        let node = spec.add_server("node", 4, 1.0);
        let svc = spec.add_service("api", node, 8, 1, 1.0);
        let ep = spec.add_endpoint(svc, "op", 1.0, 0.0);
        spec.add_feature("op", svc, ep);
        let workload = WorkloadSpec::constant(RequestMix::uniform(1), 2, 1e12);
        let mut cluster = Cluster::new(&spec, workload, ClusterOptions::default()).unwrap();
        cluster.set_probe(ServiceId(0), EndpointId(0));
        cluster
    }

    #[test]
    fn a_timer_at_the_instant_of_a_completion_goes_first() {
        let mut cluster = idle_cluster();
        // User 0 arrives at 1.0, so its job is due at exactly 2.0 — the
        // instant user 1 arrives.
        cluster
            .engine
            .push(1.0, Event::UserReady { tenant: 0, user: 0 });
        cluster
            .engine
            .push(2.0, Event::UserReady { tenant: 0, user: 1 });
        let report = cluster.run_window(4.0);
        assert_eq!(report.feature_counts[0], 2);
        // The arrival was handled first: it found the first job still on
        // the CPU (had the completion gone first it would have seen an
        // empty one). The completion then fired at the same instant, so
        // neither request was slowed: each took its bare demand.
        assert_eq!(
            cluster.take_probe_samples(),
            vec![(0.0, 1.0), (1.0, 1.0)],
            "(jobs seen on arrival, response time) per request"
        );
        assert_eq!(cluster.telemetry().processor_check_events, 2);
    }

    #[test]
    fn a_cap_change_moves_the_running_job_to_its_new_time() {
        let mut cluster = idle_cluster();
        cluster
            .engine
            .push(1.0, Event::UserReady { tenant: 0, user: 0 });
        cluster.run_window(1.5);
        // Half done at 1.5 and due at 2.0; at half a core the other half
        // takes until 2.5. The table publishes the move itself.
        cluster
            .fabric
            .processors
            .set_group_cap(&mut cluster.engine, 0, GroupId(0), 0.5);
        let report = cluster.run_window(0.9);
        assert_eq!(report.feature_counts[0], 0, "not done at the old time");
        let report = cluster.run_window(0.2);
        assert_eq!(report.feature_counts[0], 1, "done at the new time");
        assert_eq!(cluster.take_probe_samples(), vec![(0.0, 1.5)]);
        assert_eq!(cluster.telemetry().processor_check_events, 1);
    }

    #[test]
    fn a_completion_at_the_window_end_belongs_to_that_window() {
        let mut cluster = idle_cluster();
        cluster
            .engine
            .push(1.0, Event::UserReady { tenant: 0, user: 0 });
        // Due at exactly 2.0 = the end of this window.
        let report = cluster.run_window(2.0);
        assert_eq!(report.feature_counts[0], 1);

        // Due at 4.0, one ulp past a window ending just before it: that
        // window must leave it for the next.
        cluster
            .engine
            .push(3.0, Event::UserReady { tenant: 0, user: 1 });
        let just_before = f64::from_bits(4.0_f64.to_bits() - 1);
        let report = cluster.run_window(just_before - 2.0);
        assert_eq!(report.end, just_before);
        assert_eq!(report.feature_counts[0], 0);
        let report = cluster.run_window(1.0);
        assert_eq!(report.feature_counts[0], 1);
        assert_eq!(cluster.take_probe_samples(), vec![(0.0, 1.0), (0.0, 1.0)]);
    }
}
