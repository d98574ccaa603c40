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
    /// User slot `user` of tenant `tenant` finished thinking and issues
    /// a request.
    UserReady { tenant: u16, user: u32 },
    /// The load profile of one tenant moves to a new target population.
    PopulationChange { tenant: u16, population: u32 },
    /// A starting replica becomes ready.
    ReplicaReady { service: u16, replica: u32 },
    /// A scheduled scaling batch reaches the orchestrator.
    ApplyScaling { batch: u32 },
    /// An invocation's pure-latency (I/O) stage ends.
    LatencyDone { inv: u32 },
    /// An injected fault fires.
    Fault { idx: u32 },
    /// The fluid backend integrates up to the next aggregation step.
    /// `generation` invalidates steps scheduled before a backend switch.
    FluidStep { generation: u32 },
    /// A cross-server call's network round trip (request out + response
    /// back, priced once at issue time against the link queues)
    /// completes; the call then enters the callee service. `caller` is
    /// the blocked invocation awaiting the response: the callee is the
    /// call it is parked on and the priced delay is its `net_wait`.
    /// Only emitted when a topology is configured and the priced delay
    /// is non-zero, so topology-free runs keep their event stream
    /// bitwise intact.
    NetTransit { caller: u32 },
    /// A population source announced an a-priori burst onset (trace
    /// replay spike hints); the hybrid policy treats it as a transient.
    SpikeHint,
    /// The hybrid policy re-evaluates whether the transient has passed.
    BackendCheck,
}

// A wheel entry is `(time, event)`: an 8-byte event makes it 16 bytes,
// four to a cache line (`atom_sim::wheel` pins its half of that). A
// million pending think timers then hold 16 MB of calendar.
const _: () = assert!(std::mem::size_of::<Event>() == 8);

/// Narrows an index or count to the `u32` an event field carries.
pub(crate) fn idx32(v: usize) -> u32 {
    u32::try_from(v).expect("event payload fits 32 bits")
}

/// Narrows a tenant or service index to the `u16` an event field
/// carries. `Cluster::new_multi_tenant` rejects specs with more services,
/// and clusters with more tenants, than a `u16` can name, so this never
/// fails on a cluster that was built.
pub(crate) fn idx16(v: usize) -> u16 {
    u16::try_from(v).expect("tenant and service indices fit 16 bits")
}
