#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! The network fabric: a two-tier (rack / aggregation) topology with
//! per-edge latency and bandwidth, deterministic FIFO link queues, and a
//! [`NetworkDelay`] model pricing each inter-service hop by the placement
//! of caller and callee.
//!
//! The shape follows the standard data-centre abstraction (see the
//! ROADMAP's network item): every server sits in a rack, each rack has
//! one uplink edge to an aggregation layer, and the aggregation layer is
//! a single shared edge. A message between two servers therefore
//! traverses:
//!
//! - **same server** — no edges, zero delay;
//! - **same rack** — the rack's uplink edge once (through the ToR
//!   switch);
//! - **cross rack** — the source rack's uplink, the aggregation edge,
//!   and the destination rack's uplink (two rack hops + aggregation).
//!
//! Two views of the same topology exist:
//!
//! - [`NetworkDelay`] prices a hop *analytically* — base propagation
//!   latency plus transmission time, no queueing — and is what the LQN
//!   network term uses (an infinite-server delay station folded into the
//!   caller's blocking time).
//! - [`LinkFabric`] is the *simulated* fabric: store-and-forward FIFO
//!   queues per direction of each full-duplex edge, so concurrent
//!   same-direction transfers on a saturated link wait for each other. The gap between the two is exactly what the
//!   drift audit's network residence comparison measures.
//!
//! Everything is deterministic and draws nothing from the simulation's
//! RNG, so enabling a topology with zero-delay edges leaves a
//! simulation's event order and random stream bitwise intact.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// One link of the fabric: propagation latency plus a shared bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// One-way propagation latency, seconds.
    pub latency: f64,
    /// Bandwidth in bytes/second; `f64::INFINITY` means transmission is
    /// free (the edge never queues).
    pub bandwidth: f64,
}

impl EdgeSpec {
    /// An edge with the given latency and bandwidth.
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        EdgeSpec { latency, bandwidth }
    }

    /// A zero-latency, infinite-bandwidth edge (transits cost nothing).
    pub(crate) fn free() -> Self {
        EdgeSpec {
            latency: 0.0,
            bandwidth: f64::INFINITY,
        }
    }
}

/// A two-tier topology: racks of servers, one uplink edge per rack, one
/// shared aggregation edge above them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct TopologySpec {
    /// Per-rack uplink edges; rack `r`'s traffic (intra-rack and up to
    /// the aggregation layer) crosses `rack_edges[r]`.
    pub rack_edges: Vec<EdgeSpec>,
    /// The shared aggregation edge crossed by all inter-rack traffic.
    pub aggregation: EdgeSpec,
    /// Rack of each server, indexed by the app spec's server order.
    pub server_rack: Vec<usize>,
}

/// Payload per message direction (request or response): 16 KiB, a
/// mid-size REST response.
const PAYLOAD_BYTES: f64 = 16.0 * 1024.0;

impl TopologySpec {
    /// A two-tier topology: `server_rack[i]` is server `i`'s rack, every
    /// rack uplink shares `rack` and the aggregation layer is `agg`.
    ///
    /// # Panics
    ///
    /// Panics if `server_rack` is empty (a topology needs servers).
    pub fn two_tier(server_rack: Vec<usize>, rack: EdgeSpec, agg: EdgeSpec) -> Self {
        assert!(
            !server_rack.is_empty(),
            "topology needs at least one server"
        );
        let n_racks = server_rack.iter().copied().max().unwrap_or(0) + 1;
        TopologySpec {
            rack_edges: vec![rack; n_racks],
            aggregation: agg,
            server_rack,
        }
    }

    /// A topology whose edges all have zero latency and infinite
    /// bandwidth: every hop prices to exactly `0.0`, so attaching it to
    /// a simulation is bitwise inert (used by the digest pin tests).
    pub fn zero_delay(n_servers: usize) -> Self {
        TopologySpec::two_tier(
            vec![0; n_servers.max(1)],
            EdgeSpec::free(),
            EdgeSpec::free(),
        )
    }

    /// Number of edges: one uplink per rack plus the aggregation edge.
    pub fn n_edges(&self) -> usize {
        self.rack_edges.len() + 1
    }

    /// Index of the aggregation edge (rack uplinks occupy `0..n_racks`).
    pub(crate) fn aggregation_edge(&self) -> usize {
        self.rack_edges.len()
    }

    /// Display name of an edge (`rack0`, `rack1`, ..., `agg`).
    pub(crate) fn edge_name(&self, edge: usize) -> String {
        if edge == self.aggregation_edge() {
            "agg".to_string()
        } else {
            format!("rack{edge}")
        }
    }

    /// The edge an index refers to.
    fn edge(&self, edge: usize) -> EdgeSpec {
        if edge == self.aggregation_edge() {
            self.aggregation
        } else {
            self.rack_edges[edge]
        }
    }

    /// The ordered edges a one-way message from `from` to `to` crosses:
    /// none on the same server, the rack uplink within a rack, and
    /// uplink → aggregation → uplink across racks. Each hop also carries
    /// the direction it crosses the (full-duplex) edge in: up toward the
    /// aggregation layer on the source rack's uplink, down on the
    /// destination's, and an index-ordered convention on the aggregation
    /// edge and within a rack — what matters is that the reverse path
    /// uses the opposite channel of every edge.
    pub(crate) fn path(&self, from: usize, to: usize) -> Path {
        if from == to {
            return Path::empty();
        }
        let (ra, rb) = (self.server_rack[from], self.server_rack[to]);
        if ra == rb {
            Path::one(ra, usize::from(from > to))
        } else {
            Path::three(ra, self.aggregation_edge(), usize::from(ra > rb), rb)
        }
    }

    /// Checks the spec is internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation: an out-of-range
    /// rack, a negative/NaN latency, or a non-positive bandwidth.
    pub fn validate(&self) -> Result<(), String> {
        if self.server_rack.is_empty() {
            return Err("topology has no servers".into());
        }
        for (s, &r) in self.server_rack.iter().enumerate() {
            if r >= self.rack_edges.len() {
                return Err(format!("server {s} assigned to unknown rack {r}"));
            }
        }
        for e in 0..self.n_edges() {
            let spec = self.edge(e);
            if !(spec.latency.is_finite() && spec.latency >= 0.0) {
                return Err(format!("edge {} has invalid latency", self.edge_name(e)));
            }
            if spec.bandwidth.is_nan() || spec.bandwidth <= 0.0 {
                return Err(format!("edge {} has invalid bandwidth", self.edge_name(e)));
            }
        }
        Ok(())
    }
}

/// The (at most three) edges of a one-way path, avoiding allocation on
/// the per-call hot path. Each hop records the direction (`0` / `1`) it
/// crosses the full-duplex edge in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Path {
    edges: [usize; 3],
    dirs: [usize; 3],
    len: usize,
}

impl Path {
    fn empty() -> Self {
        Path {
            edges: [0; 3],
            dirs: [0; 3],
            len: 0,
        }
    }

    fn one(e: usize, dir: usize) -> Self {
        Path {
            edges: [e, 0, 0],
            dirs: [dir, 0, 0],
            len: 1,
        }
    }

    fn three(a: usize, agg: usize, agg_dir: usize, c: usize) -> Self {
        Path {
            edges: [a, agg, c],
            dirs: [0, agg_dir, 1],
            len: 3,
        }
    }

    /// The edges in traversal order.
    pub(crate) fn edges(&self) -> &[usize] {
        &self.edges[..self.len]
    }

    /// `(edge, direction)` hops in traversal order.
    pub(crate) fn hops(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges[..self.len]
            .iter()
            .copied()
            .zip(self.dirs[..self.len].iter().copied())
    }

    /// Whether the path crosses no edge (same-server).
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Analytic hop pricing: base propagation plus transmission time over a
/// path, no queueing. This is the infinite-server delay the LQN network
/// term charges per call, and the "predicted" side of the drift audit's
/// network residence comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDelay {
    spec: TopologySpec,
}

impl NetworkDelay {
    /// A pricing model over `spec`.
    pub fn new(spec: TopologySpec) -> Self {
        NetworkDelay { spec }
    }

    /// Base one-way delay from server `from` to server `to`: per edge,
    /// propagation latency plus `payload / bandwidth`.
    pub(crate) fn one_way(&self, from: usize, to: usize) -> f64 {
        let mut total = 0.0;
        for &e in self.spec.path(from, to).edges() {
            let edge = self.spec.edge(e);
            total += edge.latency + PAYLOAD_BYTES / edge.bandwidth;
        }
        total
    }

    /// Base round-trip delay (request out, response back) between two
    /// servers; zero on the same server.
    pub fn round_trip(&self, from: usize, to: usize) -> f64 {
        2.0 * self.one_way(from, to)
    }
}

/// One direction of a full-duplex edge. Links carry requests and
/// responses on independent channels — modelling them as a single
/// half-duplex transmitter would make every response contend with the
/// requests behind it and serialise round trips on the propagation
/// latency rather than the transmission time.
#[derive(Debug, Clone, Default)]
struct ChannelState {
    /// When the channel's transmitter frees up (FIFO: the next transfer
    /// starts no earlier).
    busy_until: f64,
    /// Completion times of transfers still in flight, for queue-depth
    /// accounting. Zero-length transfers never enter.
    in_flight: VecDeque<f64>,
    /// Seconds the transmitter was busy since the last window collect.
    busy_seconds: f64,
    /// Seconds transfers waited for the transmitter since last collect.
    wait_seconds: f64,
    /// Bytes offered since the last collect.
    bytes: f64,
    /// Transfers since the last collect.
    transits: u64,
    /// Deepest queue (transfers already in flight at enqueue time) seen
    /// since the last collect.
    max_depth: u64,
}

/// What one edge did during a monitoring window; rides along the window
/// report when a topology is configured and feeds the
/// `atom_net_edge_utilisation` / `atom_net_queue_depth` gauges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeWindowStats {
    /// Edge display name (`rack0`, ..., `agg`).
    pub edge: String,
    /// Fraction of the window the busier *direction* of the full-duplex
    /// link was transmitting. A transfer is attributed to the window it
    /// starts in, so a boundary-straddling burst can nudge this past
    /// 1.0.
    pub utilisation: f64,
    /// Bytes offered to the edge during the window.
    pub bytes: f64,
    /// Transfers during the window.
    pub transits: u64,
    /// Mean seconds a transfer waited for the transmitter.
    pub mean_wait: f64,
    /// Deepest FIFO backlog observed at any enqueue.
    pub max_queue_depth: u64,
}

/// The simulated fabric: deterministic store-and-forward FIFO queues,
/// one per *direction* of each full-duplex edge. A transfer waits until
/// the channel's transmitter is free (`busy_until`), transmits for
/// `payload / bandwidth`, then propagates for the edge latency;
/// multi-edge paths are priced sequentially (store-and-forward).
///
/// The whole round trip of a call (request out + response back) is
/// priced once, at issue time, against the queues' state at that
/// moment. This halves the event count and keeps the pricing symmetric
/// with the LQN's per-call network term; the approximation it makes —
/// the response shares the request's congestion snapshot — is part of
/// what the drift audit observes.
#[derive(Debug, Clone)]
pub struct LinkFabric {
    spec: TopologySpec,
    /// `edges[e][dir]`: the two directional channels of edge `e`.
    edges: Vec<[ChannelState; 2]>,
}

impl LinkFabric {
    /// A fabric with idle links.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`TopologySpec::validate`] — a topology
    /// is scenario configuration, so an invalid one is a programming
    /// error.
    pub fn new(spec: TopologySpec) -> Self {
        if let Err(why) = spec.validate() {
            panic!("invalid topology: {why}");
        }
        let edges = vec![[ChannelState::default(), ChannelState::default()]; spec.n_edges()];
        LinkFabric { spec, edges }
    }

    /// Sends one message through direction `dir` of `edge` starting at
    /// `t`; returns the arrival time at the far end and updates the
    /// channel's queue + counters.
    fn transit(&mut self, edge: usize, dir: usize, t: f64) -> f64 {
        let spec = self.spec.edge(edge);
        let tx = PAYLOAD_BYTES / spec.bandwidth;
        let state = &mut self.edges[edge][dir];
        while state.in_flight.front().is_some_and(|&done| done <= t) {
            state.in_flight.pop_front();
        }
        let wait = (state.busy_until - t).max(0.0);
        state.wait_seconds += wait;
        state.busy_seconds += tx;
        state.bytes += PAYLOAD_BYTES;
        state.transits += 1;
        state.max_depth = state.max_depth.max(state.in_flight.len() as u64);
        if tx > 0.0 {
            state.busy_until = t + wait + tx;
            state.in_flight.push_back(state.busy_until);
        }
        t + wait + tx + spec.latency
    }

    /// Prices the full round trip of a call issued at `now` from server
    /// `from` to server `to`: request path out, response path back,
    /// store-and-forward through the FIFO queues. Returns the total
    /// delay; exactly `0.0` for same-server calls and for topologies
    /// whose edges are all free.
    pub fn round_trip(&mut self, from: usize, to: usize, now: f64) -> f64 {
        let out = self.spec.path(from, to);
        if out.is_empty() {
            return 0.0;
        }
        let back = self.spec.path(to, from);
        let mut t = now;
        for (e, dir) in out.hops() {
            t = self.transit(e, dir, t);
        }
        for (e, dir) in back.hops() {
            t = self.transit(e, dir, t);
        }
        t - now
    }

    /// Drains the per-edge window counters into [`EdgeWindowStats`] for
    /// a window of `duration` seconds. Queue state (`busy_until`,
    /// in-flight transfers) carries across windows; only the counters
    /// reset.
    pub fn collect_window(&mut self, duration: f64) -> Vec<EdgeWindowStats> {
        let dur = duration.max(f64::MIN_POSITIVE);
        (0..self.edges.len())
            .map(|e| {
                let name = self.spec.edge_name(e);
                let busiest = self.edges[e]
                    .iter()
                    .map(|c| c.busy_seconds)
                    .fold(0.0, f64::max);
                let wait: f64 = self.edges[e].iter().map(|c| c.wait_seconds).sum();
                let transits: u64 = self.edges[e].iter().map(|c| c.transits).sum();
                let stats = EdgeWindowStats {
                    edge: name,
                    utilisation: busiest / dur,
                    bytes: self.edges[e].iter().map(|c| c.bytes).sum(),
                    transits,
                    mean_wait: if transits > 0 {
                        wait / transits as f64
                    } else {
                        0.0
                    },
                    max_queue_depth: self.edges[e].iter().map(|c| c.max_depth).max().unwrap_or(0),
                };
                for channel in &mut self.edges[e] {
                    channel.busy_seconds = 0.0;
                    channel.wait_seconds = 0.0;
                    channel.bytes = 0.0;
                    channel.transits = 0;
                    channel.max_depth = 0;
                }
                stats
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two racks of two servers: 0,1 in rack 0 and 2,3 in rack 1; 1 ms
    /// rack edges, 5 ms aggregation, links that move one payload in 1 ms.
    fn spec() -> TopologySpec {
        let bandwidth = PAYLOAD_BYTES / 1e-3;
        TopologySpec::two_tier(
            vec![0, 0, 1, 1],
            EdgeSpec::new(0.001, bandwidth),
            EdgeSpec::new(0.005, bandwidth),
        )
    }

    #[test]
    fn paths_follow_the_two_tier_shape() {
        let s = spec();
        assert!(s.path(0, 0).is_empty());
        assert_eq!(s.path(0, 1).edges(), &[0]);
        assert_eq!(s.path(2, 3).edges(), &[1]);
        assert_eq!(s.path(0, 2).edges(), &[0, 2, 1]);
        assert_eq!(s.path(3, 1).edges(), &[1, 2, 0]);
        assert_eq!(s.aggregation_edge(), 2);
        assert_eq!(s.edge_name(0), "rack0");
        assert_eq!(s.edge_name(2), "agg");
    }

    #[test]
    fn pricing_matches_the_hop_structure() {
        let delay = NetworkDelay::new(spec());
        // tx = 1 ms per edge.
        assert_eq!(delay.round_trip(0, 0), 0.0);
        let same_rack = delay.one_way(0, 1);
        assert!((same_rack - 0.002).abs() < 1e-12, "{same_rack}");
        let cross = delay.one_way(0, 2);
        // Two rack edges (1 ms + 1 ms tx each) + aggregation (5 ms + 1 ms).
        assert!((cross - 0.010).abs() < 1e-12, "{cross}");
        assert!((delay.round_trip(0, 2) - 0.020).abs() < 1e-12);
    }

    #[test]
    fn fifo_queueing_delays_the_second_transfer() {
        let mut fabric = LinkFabric::new(spec());
        let first = fabric.round_trip(0, 1, 0.0);
        let second = fabric.round_trip(0, 1, 0.0);
        // The second call's request waits for the first request's
        // transmission (1 ms) on its direction of the shared rack edge;
        // the responses ride the opposite channel.
        assert!(second > first, "{second} vs {first}");
        let stats = fabric.collect_window(1.0);
        assert_eq!(stats[0].transits, 4);
        assert!(stats[0].mean_wait > 0.0);
        assert!(stats[0].max_queue_depth >= 1);
        assert!((stats[0].bytes - 4.0 * PAYLOAD_BYTES).abs() < 1e-9);
        // Counters reset; queue state persists.
        let again = fabric.collect_window(1.0);
        assert_eq!(again[0].transits, 0);
        assert_eq!(again[0].bytes, 0.0);
    }

    #[test]
    fn idle_links_price_at_base_delay() {
        let mut fabric = LinkFabric::new(spec());
        let delay = NetworkDelay::new(spec());
        let priced = fabric.round_trip(1, 3, 100.0);
        // An idle fabric's first transfer sees no queueing: the
        // simulated price equals the analytic one.
        assert!((priced - delay.round_trip(1, 3)).abs() < 1e-12);
    }

    #[test]
    fn zero_delay_topology_prices_exactly_zero() {
        let mut fabric = LinkFabric::new(TopologySpec::zero_delay(4));
        for _ in 0..1000 {
            assert_eq!(fabric.round_trip(0, 3, 7.25), 0.0);
        }
        let free = TopologySpec::two_tier(vec![0, 1], EdgeSpec::free(), EdgeSpec::free());
        let mut fabric = LinkFabric::new(free);
        assert_eq!(fabric.round_trip(0, 1, 3.0), 0.0);
        let stats = fabric.collect_window(1.0);
        assert_eq!(stats.iter().map(|e| e.transits).sum::<u64>(), 6);
        assert!(stats.iter().all(|e| e.utilisation == 0.0));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut bad = spec();
        bad.server_rack[0] = 9;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.rack_edges[0].latency = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.aggregation.bandwidth = 0.0;
        assert!(bad.validate().is_err());
        assert!(spec().validate().is_ok());
        assert!(TopologySpec::zero_delay(8).validate().is_ok());
    }

    #[test]
    fn edge_stats_serde_round_trip() {
        let mut fabric = LinkFabric::new(spec());
        fabric.round_trip(0, 2, 0.0);
        let stats = fabric.collect_window(300.0);
        let json = serde_json::to_string(&stats).unwrap();
        let back: Vec<EdgeWindowStats> = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
