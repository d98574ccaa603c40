//! The cluster's timers: one enum for every timer the runtime sets.
//!
//! They run on [`atom_sim::Engine`], the engine `atom-lqn`'s simulator
//! shares: a timer wheel for these, one due slot per processor for the
//! completions, and the tie rule between the two.

/// Every timer the cluster sets. One calendar carries user-plane,
/// orchestration-plane, and fault-plane timers so their interleaving is
/// exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// A user finished thinking and issues a request.
    UserReady { user: usize },
    /// The load profile of one tenant moves to a new target population.
    PopulationChange { tenant: u32, population: u32 },
    /// A starting replica becomes ready.
    ReplicaReady { service: u32, replica: u32 },
    /// A scheduled scaling batch reaches the orchestrator.
    ApplyScaling { batch: usize },
    /// An invocation's pure-latency (I/O) stage ends.
    LatencyDone { inv: usize },
    /// An injected fault fires.
    Fault { idx: usize },
    /// The fluid backend integrates up to the next aggregation step.
    /// `generation` invalidates steps scheduled before a backend switch.
    FluidStep { generation: u64 },
    /// A cross-server call's network round trip (request out + response
    /// back, priced once at issue time against the link queues)
    /// completes; the call then enters the callee service. `caller` is
    /// the blocked invocation awaiting the response: the callee is the
    /// call it is parked on and the priced delay is its `net_wait`.
    /// Only emitted when a topology is configured and the priced delay
    /// is non-zero, so topology-free runs keep their event stream
    /// bitwise intact.
    NetTransit { caller: usize },
    /// A population source announced an a-priori burst onset (trace
    /// replay spike hints); the hybrid policy treats it as a transient.
    SpikeHint,
    /// The hybrid policy re-evaluates whether the transient has passed.
    BackendCheck,
}

// A wheel entry is `(time, seq, event)`: a 16-byte event makes it 32
// bytes, two to a cache line (`atom_sim::wheel` pins its half of that).
const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// Narrows an index or count to the `u32` the paired event fields carry.
pub(crate) fn idx32(v: usize) -> u32 {
    u32::try_from(v).expect("event payload fits 32 bits")
}
