//! `atom-trace`: the deterministic sampled span layer.
//!
//! Every sampled client request records a span tree across its
//! service-chain hops — queue wait, service occupancy, replica, server,
//! tenant, and the population backend that produced it — accumulated
//! entirely in sim-time (no wall-clock reads ever enter a span).
//!
//! Two disciplines keep the layer safe to leave compiled-in:
//!
//! * **Sampling never touches the simulation RNG.** The decision is a
//!   seeded splitmix64 hash over `(span seed, root sequence number)`, so
//!   enabling sampling adds and removes *zero* draws from the event
//!   path — a sampled run's dynamics are bitwise identical to an
//!   unsampled one (see the `sampling_is_inert_on_the_dynamics` test).
//! * **Disabled means absent.** With a zero rate the layer keeps no
//!   state, window reports carry `span_stats: None`, and every artefact
//!   byte matches the pre-span runtime (the pinned scenario digests
//!   enforce this).
//!
//! Aggregated per-window per-service percentiles feed the controller's
//! model-audit stage; raw spans export as Chrome trace-event JSON via
//! the bench harness (`--spans-out`).
//!
//! The one-shot operator trace (`Cluster::arm_trace` / `take_trace`) is
//! the same machinery with the sampling decision forced for one root:
//! the armed request's tree is tracked like any sampled one and handed
//! back whole. Forcing is invisible to sampling — it neither advances
//! the root sequence a disabled layer never counts, nor records into
//! the window aggregates, the export log or the `span_*` telemetry.

use atom_sim::{nearest_rank, splitmix64};
use serde::{Deserialize, Serialize};

use crate::backend::BackendKind;
use crate::telemetry::ClusterTelemetry;

/// Raw completed spans retained for export before the layer starts
/// dropping whole requests (dropped requests are counted in
/// [`ClusterTelemetry::span_requests_dropped`]).
const SPAN_LOG_CAP: usize = 262_144;

/// One hop of a sampled request: where the call ran and when it queued,
/// started, and finished (sim-time seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampledSpan {
    /// Sampled-request id (the root sequence number at sampling time) —
    /// shared by every span of one request tree.
    pub request: u64,
    /// Tenant that issued the root request.
    pub tenant: usize,
    /// Client-visible feature of the root request (merged-spec index).
    pub feature: usize,
    /// Index of the calling span within the same request, `None` for
    /// the root hop.
    pub parent: Option<usize>,
    /// Service index (merged spec).
    pub service: usize,
    /// Endpoint index within the service.
    pub endpoint: usize,
    /// Replica the call executed on.
    pub replica: usize,
    /// Server hosting that replica.
    pub server: usize,
    /// Population backend live when the hop arrived.
    pub backend: BackendKind,
    /// Arrival at the service (enqueue time).
    pub arrival: f64,
    /// Service start (thread acquired).
    pub start: f64,
    /// Completion (reply sent).
    pub end: f64,
    /// Network round trip the call paid in transit before arriving
    /// (zero for roots, co-located hops, and topology-free runs). Not
    /// part of the hop's residence — the transit happens before
    /// `arrival` — but the observed side of the network drift audit.
    #[serde(default)]
    pub net_wait: f64,
}

impl SampledSpan {
    /// Time spent queued before a thread picked the call up.
    pub fn queue_wait(&self) -> f64 {
        self.start - self.arrival
    }

    /// Occupancy after the thread was acquired (CPU demand, I/O latency,
    /// and waiting on downstream calls).
    pub fn service_time(&self) -> f64 {
        self.end - self.start
    }

    /// End-to-end residence at this hop: queue wait plus occupancy.
    pub fn residence(&self) -> f64 {
        self.end - self.arrival
    }
}

/// Per-window span aggregates for one service: what the model-audit
/// stage compares against the LQN's predicted residence times.
/// Percentiles are nearest-rank over the window's sampled hops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpanStats {
    /// Sampled hops that completed at this service during the window.
    pub samples: u64,
    /// Median queue wait (seconds).
    pub queue_wait_p50: f64,
    /// 95th-percentile queue wait (seconds).
    pub queue_wait_p95: f64,
    /// Median residence (queue wait + occupancy, seconds).
    pub residence_p50: f64,
    /// 95th-percentile residence (seconds).
    pub residence_p95: f64,
    /// Mean residence (seconds) — the LQN predicts means, so drift is
    /// measured against this.
    pub residence_mean: f64,
    /// Mean network transit paid by the window's sampled hops into this
    /// service (seconds); zero without a topology. The observed side of
    /// the network term in the drift audit.
    #[serde(default)]
    pub net_mean: f64,
}

impl ServiceSpanStats {
    /// Stats of a service no sampled hop reached this window.
    pub fn empty() -> Self {
        ServiceSpanStats {
            samples: 0,
            queue_wait_p50: 0.0,
            queue_wait_p95: 0.0,
            residence_p50: 0.0,
            residence_p95: 0.0,
            residence_mean: 0.0,
            net_mean: 0.0,
        }
    }
}

/// A sampled request's spans while any of its hops are still open. The
/// whole tree flushes when the root hop finishes (calls are synchronous,
/// so the root always completes last).
#[derive(Clone)]
struct InFlightTrace {
    spans: Vec<SampledSpan>,
    /// Missed the rate hash: in tail mode recorded only if it turns out
    /// to be the window's slowest root, otherwise (a forced one-shot on
    /// an unsampled root) never recorded.
    provisional: bool,
    /// The armed one-shot: handed to [`SpanLayer::take_forced`] whole.
    forced: bool,
}

/// The sampled span layer: sampling decision, in-flight trees, the
/// bounded export log, and the current window's per-service samples.
#[derive(Clone)]
pub(crate) struct SpanLayer {
    rate: f64,
    seed: u64,
    /// Tail bias: additionally keep the slowest root request completing
    /// in each window, whatever the rate hash decided.
    tail: bool,
    /// Root requests seen since construction (sequence number fed to the
    /// sampling hash). Only advanced while sampling is enabled, so a
    /// disabled layer does literally nothing.
    next_root: u64,
    inflight: Vec<Option<InFlightTrace>>,
    free: Vec<usize>,
    /// Completed spans awaiting [`SpanLayer::take_completed`], bounded
    /// by [`SPAN_LOG_CAP`].
    completed: Vec<SampledSpan>,
    /// Per-service `(queue_wait, residence, net_wait)` samples this
    /// window.
    window: Vec<Vec<(f64, f64, f64)>>,
    /// Tail mode: the slowest provisional root completing this window,
    /// as `(residence, spans)`; flushed at window collection.
    slowest: Option<(f64, Vec<SampledSpan>)>,
    /// One-shot trace: `Some(feature filter)` while armed.
    armed: Option<Option<usize>>,
    /// The completed one-shot trace awaiting [`SpanLayer::take_forced`].
    forced: Option<Vec<SampledSpan>>,
}

impl SpanLayer {
    pub(crate) fn new(rate: f64, seed: u64, n_services: usize, tail: bool) -> Self {
        SpanLayer {
            rate: rate.clamp(0.0, 1.0),
            seed,
            tail,
            next_root: 0,
            inflight: Vec::new(),
            free: Vec::new(),
            completed: Vec::new(),
            window: vec![Vec::new(); n_services],
            slowest: None,
            armed: None,
            forced: None,
        }
    }

    /// Whether any request can be sampled at all.
    pub(crate) fn enabled(&self) -> bool {
        self.rate > 0.0 || self.tail
    }

    /// Whether a root request needs [`SpanLayer::maybe_start`] at all:
    /// sampling is on or a one-shot trace is armed. The request path
    /// gates its root branch on this so an idle layer costs nothing.
    pub(crate) fn wants_roots(&self) -> bool {
        self.enabled() || self.armed.is_some()
    }

    /// Arms the one-shot trace: the next root request (of `feature`, or
    /// any when `None`) is tracked whatever the sampling decision says.
    /// Discards a previous uncollected one-shot.
    pub(crate) fn arm(&mut self, feature: Option<usize>) {
        self.armed = Some(feature);
        self.forced = None;
    }

    /// The completed one-shot trace, parents before children.
    pub(crate) fn take_forced(&mut self) -> Option<Vec<SampledSpan>> {
        self.forced.take()
    }

    /// Sampling decision for one root request, plus span-tree start when
    /// it passes (or the one-shot trace is armed for it). Returns the
    /// `(slot, span index)` handle to thread through the invocation
    /// chain.
    #[allow(clippy::too_many_arguments)] // one call site, plain hop facts
    pub(crate) fn maybe_start(
        &mut self,
        tenant: usize,
        feature: usize,
        service: usize,
        endpoint: usize,
        replica: usize,
        server: usize,
        backend: BackendKind,
        now: f64,
    ) -> Option<(usize, usize)> {
        let forced = self
            .armed
            .is_some_and(|filter| filter.is_none_or(|f| f == feature));
        if forced {
            self.armed = None;
        }
        let sampling = self.enabled();
        let id = self.next_root;
        if sampling {
            self.next_root += 1;
        }
        // Uniform in [0, 1) from the top 53 bits of the hash; strictly
        // below the rate samples. rate = 1.0 samples everything.
        let u = (splitmix64(self.seed ^ id) >> 11) as f64 / (1u64 << 53) as f64;
        let provisional = u >= self.rate;
        if provisional && !self.tail && !forced {
            return None;
        }
        let root = SampledSpan {
            request: id,
            tenant,
            feature,
            parent: None,
            service,
            endpoint,
            replica,
            server,
            backend,
            arrival: now,
            start: now,
            end: now,
            net_wait: 0.0,
        };
        let trace = InFlightTrace {
            spans: vec![root],
            provisional,
            forced,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.inflight[slot] = Some(trace);
                slot
            }
            None => {
                self.inflight.push(Some(trace));
                self.inflight.len() - 1
            }
        };
        Some((slot, 0))
    }

    /// Adds a child hop under `parent` of the request in `slot`;
    /// `net_wait` is the network transit the call paid before arriving.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn child(
        &mut self,
        slot: usize,
        parent: usize,
        service: usize,
        endpoint: usize,
        replica: usize,
        server: usize,
        backend: BackendKind,
        now: f64,
        net_wait: f64,
    ) -> (usize, usize) {
        let trace = self.inflight[slot].as_mut().expect("sampled slot live");
        let root = trace.spans[0];
        trace.spans.push(SampledSpan {
            request: root.request,
            tenant: root.tenant,
            feature: root.feature,
            parent: Some(parent),
            service,
            endpoint,
            replica,
            server,
            backend,
            arrival: now,
            start: now,
            end: now,
            net_wait,
        });
        (slot, trace.spans.len() - 1)
    }

    /// Marks a hop's service start (thread acquired). Re-dispatch after
    /// a replica failure lands here again and overwrites the start — the
    /// span then reports the retry's queue wait, matching what a tracing
    /// client would observe.
    pub(crate) fn begin(&mut self, handle: (usize, usize), now: f64) {
        let (slot, idx) = handle;
        self.inflight[slot]
            .as_mut()
            .expect("sampled slot live")
            .spans[idx]
            .start = now;
    }

    /// Marks a hop's completion. Finishing the root hop flushes the
    /// whole tree: window aggregates and the export log only record
    /// requests whose completion the monitoring plane observed
    /// (`observing` — span collection is part of monitoring and goes
    /// dark with it). The one-shot trace is an operator probe, not
    /// monitoring, and completes either way.
    pub(crate) fn finish(
        &mut self,
        handle: (usize, usize),
        now: f64,
        observing: bool,
        telemetry: &mut ClusterTelemetry,
    ) {
        let (slot, idx) = handle;
        self.inflight[slot]
            .as_mut()
            .expect("sampled slot live")
            .spans[idx]
            .end = now;
        if idx != 0 {
            return;
        }
        let trace = self.inflight[slot].take().expect("sampled slot live");
        self.free.push(slot);
        if trace.forced {
            self.forced = Some(trace.spans.clone());
        }
        if !observing || (trace.provisional && !self.tail) {
            return;
        }
        if trace.provisional {
            // Tail candidate: it only survives if it is the slowest
            // root completing this window; accounting happens when the
            // window closes and the winner is known.
            let residence = trace.spans[0].residence();
            if self.slowest.as_ref().is_none_or(|(r, _)| residence > *r) {
                self.slowest = Some((residence, trace.spans));
            }
            return;
        }
        self.record(trace.spans, telemetry);
    }

    /// Folds a completed request tree into the window aggregates and the
    /// bounded export log.
    fn record(&mut self, spans: Vec<SampledSpan>, telemetry: &mut ClusterTelemetry) {
        telemetry.span_requests_sampled += 1;
        for span in &spans {
            self.window[span.service].push((span.queue_wait(), span.residence(), span.net_wait));
        }
        if self.completed.len() + spans.len() > SPAN_LOG_CAP {
            telemetry.span_requests_dropped += 1;
            return;
        }
        telemetry.spans_recorded += spans.len() as u64;
        self.completed.extend(spans);
    }

    /// Drains the export log.
    pub(crate) fn take_completed(&mut self) -> Vec<SampledSpan> {
        std::mem::take(&mut self.completed)
    }

    /// Summarises and clears the current window's per-service samples.
    /// `None` while sampling is disabled, so reports (and everything
    /// serialised from them) stay byte-identical to the pre-span layer.
    /// In tail mode the window's slowest unsampled root is folded in
    /// first — this is the point where the winner is known.
    pub(crate) fn window_stats(
        &mut self,
        telemetry: &mut ClusterTelemetry,
    ) -> Option<Vec<ServiceSpanStats>> {
        if !self.enabled() {
            return None;
        }
        if let Some((_, spans)) = self.slowest.take() {
            self.record(spans, telemetry);
        }
        Some(
            self.window
                .iter_mut()
                .map(|samples| {
                    if samples.is_empty() {
                        return ServiceSpanStats::empty();
                    }
                    let mut waits: Vec<f64> = samples.iter().map(|s| s.0).collect();
                    let mut residences: Vec<f64> = samples.iter().map(|s| s.1).collect();
                    waits.sort_by(f64::total_cmp);
                    residences.sort_by(f64::total_cmp);
                    let n = residences.len();
                    let stats = ServiceSpanStats {
                        samples: n as u64,
                        queue_wait_p50: nearest_rank(&waits, 0.50),
                        queue_wait_p95: nearest_rank(&waits, 0.95),
                        residence_p50: nearest_rank(&residences, 0.50),
                        residence_p95: nearest_rank(&residences, 0.95),
                        residence_mean: residences.iter().sum::<f64>() / n as f64,
                        net_mean: samples.iter().map(|s| s.2).sum::<f64>() / n as f64,
                    };
                    samples.clear();
                    stats
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_layer_samples_nothing_and_reports_none() {
        let mut layer = SpanLayer::new(0.0, 7, 2, false);
        let mut t = ClusterTelemetry::default();
        assert!(!layer.enabled());
        assert_eq!(layer.window_stats(&mut t), None);
        assert!(layer.take_completed().is_empty());
    }

    #[test]
    fn rate_one_samples_everything_deterministically() {
        let run = || {
            let mut layer = SpanLayer::new(1.0, 42, 1, false);
            let mut t = ClusterTelemetry::default();
            let mut ids = Vec::new();
            for i in 0..10 {
                let h = layer
                    .maybe_start(0, 0, 0, 0, 0, 0, BackendKind::PerUser, i as f64)
                    .expect("rate 1.0 samples all");
                layer.begin(h, i as f64 + 0.1);
                layer.finish(h, i as f64 + 0.5, true, &mut t);
            }
            for s in layer.take_completed() {
                ids.push(s.request);
            }
            ids
        };
        assert_eq!(run(), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn fractional_rate_hits_roughly_its_share() {
        let mut layer = SpanLayer::new(0.1, 9, 1, false);
        let hits = (0..10_000)
            .filter(|_| {
                layer
                    .maybe_start(0, 0, 0, 0, 0, 0, BackendKind::PerUser, 0.0)
                    .is_some()
            })
            .count();
        assert!((800..1200).contains(&hits), "10% of 10k, got {hits}");
    }

    #[test]
    fn window_stats_summarise_and_reset() {
        let mut layer = SpanLayer::new(1.0, 1, 2, false);
        let mut t = ClusterTelemetry::default();
        for i in 0..20 {
            let h = layer
                .maybe_start(0, 0, 1, 0, 0, 0, BackendKind::PerUser, 0.0)
                .unwrap();
            layer.begin(h, 0.1);
            layer.finish(h, 0.1 + i as f64 * 0.01, true, &mut t);
        }
        let stats = layer.window_stats(&mut t).unwrap();
        assert_eq!(stats[0].samples, 0);
        let s = stats[1];
        assert_eq!(s.samples, 20);
        assert!((s.queue_wait_p50 - 0.1).abs() < 1e-12);
        assert!(s.residence_p50 <= s.residence_p95);
        assert!(s.residence_mean > 0.1);
        assert_eq!(s.net_mean, 0.0);
        // Second collection starts from a clean window.
        assert_eq!(layer.window_stats(&mut t).unwrap()[1].samples, 0);
        assert_eq!(t.span_requests_sampled, 20);
        assert_eq!(t.spans_recorded, 20);
    }

    #[test]
    fn unobserved_completions_are_not_recorded() {
        let mut layer = SpanLayer::new(1.0, 1, 1, false);
        let mut t = ClusterTelemetry::default();
        let h = layer
            .maybe_start(0, 0, 0, 0, 0, 0, BackendKind::PerUser, 0.0)
            .unwrap();
        layer.finish(h, 1.0, false, &mut t);
        assert_eq!(layer.window_stats(&mut t).unwrap()[0].samples, 0);
        assert!(layer.take_completed().is_empty());
        assert_eq!(t.span_requests_sampled, 0);
    }

    #[test]
    fn child_spans_inherit_root_identity() {
        let mut layer = SpanLayer::new(1.0, 3, 3, false);
        let mut t = ClusterTelemetry::default();
        let root = layer
            .maybe_start(2, 5, 0, 0, 1, 0, BackendKind::PerUser, 1.0)
            .unwrap();
        let child = layer.child(root.0, root.1, 1, 0, 0, 1, BackendKind::PerUser, 1.5, 0.02);
        layer.begin(child, 1.6);
        layer.finish(child, 2.0, true, &mut t);
        layer.finish(root, 2.5, true, &mut t);
        let spans = layer.take_completed();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].tenant, 2);
        assert_eq!(spans[1].feature, 5);
        assert_eq!(spans[1].request, spans[0].request);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].net_wait, 0.02);
        assert!((spans[1].queue_wait() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn net_wait_feeds_the_window_mean() {
        let mut layer = SpanLayer::new(1.0, 3, 2, false);
        let mut t = ClusterTelemetry::default();
        for net in [0.01, 0.03] {
            let root = layer
                .maybe_start(0, 0, 0, 0, 0, 0, BackendKind::PerUser, 0.0)
                .unwrap();
            let child = layer.child(root.0, root.1, 1, 0, 0, 1, BackendKind::PerUser, 0.5, net);
            layer.begin(child, 0.5);
            layer.finish(child, 0.6, true, &mut t);
            layer.finish(root, 1.0, true, &mut t);
        }
        let stats = layer.window_stats(&mut t).unwrap();
        assert_eq!(stats[0].net_mean, 0.0);
        assert!((stats[1].net_mean - 0.02).abs() < 1e-12);
    }

    #[test]
    fn tail_mode_keeps_only_the_windows_slowest_unsampled_root() {
        // Rate 0 but tail on: every root is provisional; only the slowest
        // per window survives, accounted when the window closes.
        let mut layer = SpanLayer::new(0.0, 11, 1, true);
        let mut t = ClusterTelemetry::default();
        assert!(layer.enabled());
        for (start, end) in [(0.0, 0.4), (1.0, 1.9), (2.0, 2.3)] {
            let h = layer
                .maybe_start(0, 0, 0, 0, 0, 0, BackendKind::PerUser, start)
                .unwrap();
            layer.begin(h, start);
            layer.finish(h, end, true, &mut t);
        }
        // Nothing recorded until the window closes and the winner is known.
        assert_eq!(t.span_requests_sampled, 0);
        let stats = layer.window_stats(&mut t).unwrap();
        assert_eq!(stats[0].samples, 1);
        assert!((stats[0].residence_mean - 0.9).abs() < 1e-12);
        assert_eq!(t.span_requests_sampled, 1);
        let spans = layer.take_completed();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].request, 1);
        // The next window starts with no tail candidate.
        assert_eq!(layer.window_stats(&mut t).unwrap()[0].samples, 0);
    }

    #[test]
    fn tail_candidates_ride_alongside_rate_sampled_roots() {
        // Rate 1.0 + tail: every root already passes the rate hash, so
        // tail mode must not double-count anything.
        let mut layer = SpanLayer::new(1.0, 11, 1, true);
        let mut t = ClusterTelemetry::default();
        for i in 0..5 {
            let h = layer
                .maybe_start(0, 0, 0, 0, 0, 0, BackendKind::PerUser, i as f64)
                .unwrap();
            layer.begin(h, i as f64);
            layer.finish(h, i as f64 + 0.1, true, &mut t);
        }
        assert_eq!(layer.window_stats(&mut t).unwrap()[0].samples, 5);
        assert_eq!(t.span_requests_sampled, 5);
    }

    /// Starts, begins and finishes one single-hop root of `feature`.
    fn one_root(layer: &mut SpanLayer, feature: usize, t: &mut ClusterTelemetry) {
        if let Some(h) = layer.maybe_start(0, feature, 0, 0, 0, 0, BackendKind::PerUser, 1.0) {
            layer.begin(h, 1.5);
            layer.finish(h, 2.0, false, t);
        }
    }

    #[test]
    fn armed_one_shot_on_a_disabled_layer_leaves_no_sampling_trace() {
        let mut layer = SpanLayer::new(0.0, 7, 1, false);
        let mut t = ClusterTelemetry::default();
        assert!(!layer.wants_roots());
        layer.arm(Some(3));
        assert!(layer.wants_roots() && !layer.enabled());
        one_root(&mut layer, 1, &mut t); // filtered out
        assert!(layer.take_forced().is_none());
        one_root(&mut layer, 3, &mut t); // captured, monitor dark or not
        assert!(!layer.wants_roots(), "one-shot: disarmed by the capture");
        let spans = layer.take_forced().expect("forced trace");
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].feature, spans[0].start, spans[0].end),
            (3, 1.5, 2.0)
        );
        assert!(layer.take_forced().is_none());
        // Nothing of it reached the sampling side.
        assert_eq!(layer.next_root, 0);
        assert_eq!(layer.window_stats(&mut t), None);
        assert!(layer.take_completed().is_empty());
        assert_eq!(t, ClusterTelemetry::default());
    }

    #[test]
    fn arming_does_not_disturb_the_sampling_sequence() {
        let sampled_ids = |arm: bool| {
            let mut layer = SpanLayer::new(0.3, 9, 1, false);
            let mut t = ClusterTelemetry::default();
            if arm {
                layer.arm(None);
            }
            for i in 0..200 {
                if let Some(h) = layer.maybe_start(0, 0, 0, 0, 0, 0, BackendKind::PerUser, i as f64)
                {
                    layer.finish(h, i as f64 + 0.5, true, &mut t);
                }
            }
            let ids: Vec<u64> = layer.take_completed().iter().map(|s| s.request).collect();
            (ids, t.span_requests_sampled, layer.take_forced().is_some())
        };
        let (plain, plain_n, plain_forced) = sampled_ids(false);
        let (armed, armed_n, armed_forced) = sampled_ids(true);
        assert_eq!(plain, armed);
        assert_eq!(plain_n, armed_n);
        assert!(!plain_forced && armed_forced);
    }
}
