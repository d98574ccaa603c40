//! The event engine: simulation clock, the timer calendar, and the
//! processors' due index.
//!
//! This is the bottom layer of the cluster runtime. Everything above it
//! (the orchestration fabric, the population backends, the monitor)
//! talks to time exclusively through [`Engine`]: push a future event,
//! take the next thing due, read the clock.
//!
//! Two structures hold the future, because it has two shapes:
//!
//! * **Timers** — things scheduled once and never revoked (think
//!   timers, start-up delays, I/O latencies, network transits, faults)
//!   — sit in a hierarchical timer wheel ([`atom_sim::TimerWheel`]):
//!   pop order is `(time, insertion order)` like a binary heap's, but
//!   push/pop stay O(1) amortised with a million pending think timers.
//! * **Processor completions** are not timers: every job that enters or
//!   leaves a processor moves its next completion. Each processor has
//!   exactly one pending completion, so the engine keeps one
//!   `(due time, generation)` slot per processor and a cached arg-min
//!   over them — a reschedule overwrites a slot, it files nothing.
//!
//! [`Engine::pop_due`] hands out whichever is earlier. On an exact
//! `f64` tie the timer goes first; two processors tied with each other
//! go in index order.

use atom_sim::TimerWheel;

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

/// What [`Engine::pop_due`] hands out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Due {
    /// A calendar timer expired.
    Timer(Event),
    /// Processor `proc`'s pending completion came due. It was computed
    /// under `generation`; if the processor has reallocated since, the
    /// entry is stale and must be dropped, not fired.
    Completion { proc: usize, generation: u64 },
}

/// Simulation clock + calendar + due index.
pub(crate) struct Engine {
    /// Current simulation time (seconds).
    pub now: f64,
    calendar: TimerWheel<Event>,
    /// Per processor, its pending completion as `(due time, generation
    /// it was computed under)`; `f64::INFINITY` when it has none.
    completions: Vec<(f64, u64)>,
    /// Index of the earliest entry of `completions` (the lowest index
    /// among equals), or `None` when it has to be found again.
    earliest: Option<usize>,
}

impl Engine {
    /// An engine at time zero for `processors` processors.
    pub fn new(processors: usize) -> Self {
        Engine {
            now: 0.0,
            calendar: TimerWheel::new(),
            completions: vec![(f64::INFINITY, 0); processors],
            earliest: None,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: f64, event: Event) {
        self.calendar.push(time, event);
    }

    /// Replaces processor `proc`'s pending completion (`None`: it has
    /// nothing running).
    pub fn set_completion(&mut self, proc: usize, next: Option<(f64, u64)>) {
        let (time, generation) = next.unwrap_or((f64::INFINITY, 0));
        let (was, _) = std::mem::replace(&mut self.completions[proc], (time, generation));
        if let Some(e) = self.earliest {
            if e == proc {
                // The minimum's owner moved: still the minimum if it
                // moved earlier, anyone's guess if later.
                if time > was {
                    self.earliest = None;
                }
            } else {
                let held = self.completions[e].0;
                if time < held || (time == held && proc < e) {
                    self.earliest = Some(proc);
                }
            }
        }
    }

    /// The earliest pending completion as `(time, proc)`, if any.
    fn next_completion(&mut self) -> Option<(f64, usize)> {
        let e = match self.earliest {
            Some(e) => e,
            None => {
                // Strict `<` over ascending indices: ties keep the lowest.
                let mut best = 0;
                for (i, c) in self.completions.iter().enumerate() {
                    if c.0 < self.completions[best].0 {
                        best = i;
                    }
                }
                self.earliest = Some(best);
                best
            }
        };
        let time = self.completions.get(e)?.0;
        (time < f64::INFINITY).then_some((time, e))
    }

    /// Takes the next thing due at or before `end` — a timer or a
    /// processor completion, whichever is earlier, the timer on an exact
    /// tie — or `None` when everything pending lies beyond `end`. A
    /// completion handed out is gone from its processor's slot.
    pub fn pop_due(&mut self, end: f64) -> Option<(f64, Due)> {
        let timer = self.calendar.peek_time();
        if let Some((t, proc)) = self.next_completion() {
            if t <= end && timer.is_none_or(|timer| t < timer) {
                let generation = self.completions[proc].1;
                self.set_completion(proc, None);
                return Some((t, Due::Completion { proc, generation }));
            }
        }
        if timer? > end {
            return None;
        }
        self.calendar.pop().map(|(t, ev)| (t, Due::Timer(ev)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(proc: usize, generation: u64) -> Due {
        Due::Completion { proc, generation }
    }

    #[test]
    fn hands_out_the_earliest_processor_lowest_index_on_ties() {
        let mut e = Engine::new(4);
        e.set_completion(2, Some((3.0, 7)));
        e.set_completion(1, Some((5.0, 1)));
        e.set_completion(3, Some((3.0, 9)));
        e.set_completion(0, Some((4.0, 2)));
        let order: Vec<_> = std::iter::from_fn(|| e.pop_due(10.0)).collect();
        assert_eq!(
            order,
            vec![
                (3.0, completion(2, 7)),
                (3.0, completion(3, 9)),
                (4.0, completion(0, 2)),
                (5.0, completion(1, 1)),
            ]
        );
        assert_eq!(e.pop_due(10.0), None);
    }

    #[test]
    fn rescans_when_the_minimum_moves_later() {
        let mut e = Engine::new(3);
        e.set_completion(0, Some((1.0, 1)));
        e.set_completion(1, Some((2.0, 1)));
        e.set_completion(2, Some((3.0, 1)));
        assert_eq!(e.next_completion(), Some((1.0, 0)));
        // Earlier: the cached minimum keeps its owner.
        e.set_completion(0, Some((0.5, 2)));
        assert_eq!(e.earliest, Some(0));
        assert_eq!(e.next_completion(), Some((0.5, 0)));
        // Later: the cache is dropped and the scan finds the new owner.
        e.set_completion(0, Some((2.5, 3)));
        assert_eq!(e.earliest, None);
        assert_eq!(e.next_completion(), Some((2.0, 1)));
        // Someone else undercuts the minimum: no scan needed.
        e.set_completion(2, Some((1.5, 2)));
        assert_eq!(e.earliest, Some(2));
        // The owner goes idle; then everyone does.
        e.set_completion(2, None);
        assert_eq!(e.next_completion(), Some((2.0, 1)));
        e.set_completion(1, None);
        e.set_completion(0, None);
        assert_eq!(e.next_completion(), None);
        assert_eq!(e.pop_due(f64::INFINITY), None);
    }

    #[test]
    fn overwriting_a_slot_leaves_one_completion_per_processor() {
        let mut e = Engine::new(1);
        for g in 0..100 {
            e.set_completion(0, Some((10.0 - g as f64 * 0.01, g)));
        }
        assert_eq!(e.pop_due(20.0), Some((10.0 - 0.99, completion(0, 99))));
        assert_eq!(e.pop_due(20.0), None);
    }

    #[test]
    fn a_timer_goes_before_a_completion_at_the_same_instant() {
        let mut e = Engine::new(1);
        e.set_completion(0, Some((2.0, 4)));
        e.push(2.0, Event::SpikeHint);
        e.push(1.0, Event::BackendCheck);
        e.push(3.0, Event::Fault { idx: 0 });
        let order: Vec<_> = std::iter::from_fn(|| e.pop_due(10.0)).collect();
        assert_eq!(
            order,
            vec![
                (1.0, Due::Timer(Event::BackendCheck)),
                (2.0, Due::Timer(Event::SpikeHint)),
                (2.0, completion(0, 4)),
                (3.0, Due::Timer(Event::Fault { idx: 0 })),
            ]
        );
    }

    #[test]
    fn the_window_end_is_inclusive() {
        let mut e = Engine::new(2);
        let end = 5.0_f64;
        let after = f64::from_bits(end.to_bits() + 1);
        e.set_completion(0, Some((end, 1)));
        e.set_completion(1, Some((after, 1)));
        e.push(end, Event::SpikeHint);
        e.push(after, Event::BackendCheck);
        assert_eq!(e.pop_due(end), Some((end, Due::Timer(Event::SpikeHint))));
        assert_eq!(e.pop_due(end), Some((end, completion(0, 1))));
        // One ulp past the end waits for the next window, both kinds.
        assert_eq!(e.pop_due(end), None);
        assert_eq!(
            e.pop_due(end + 1.0),
            Some((after, Due::Timer(Event::BackendCheck)))
        );
        assert_eq!(e.pop_due(end + 1.0), Some((after, completion(1, 1))));
        assert_eq!(e.pop_due(end + 1.0), None);
    }

    #[test]
    fn an_engine_without_processors_is_a_plain_calendar() {
        let mut e = Engine::new(0);
        e.push(1.0, Event::SpikeHint);
        assert_eq!(e.pop_due(0.5), None);
        assert_eq!(e.pop_due(1.0), Some((1.0, Due::Timer(Event::SpikeHint))));
        assert_eq!(e.pop_due(1.0), None);
    }
}
