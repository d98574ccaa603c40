//! The event engine both simulators run on: the simulation clock, the
//! timer calendar, the processors' due index, and the processor table.
//!
//! A simulation talks to time exclusively through [`Engine`]: push a
//! future event, take the next thing due, read the clock.
//!
//! Two structures hold the future, because it has two shapes:
//!
//! * **Timers** — things scheduled once and never revoked (think
//!   timers, start-up delays, I/O latencies, network transits, faults)
//!   — sit in a hierarchical timer wheel ([`TimerWheel`]): pop order is
//!   `(time, insertion order)` like a binary heap's, but push/pop stay
//!   O(1) amortised with a million pending think timers.
//! * **Processor completions** are not timers: every job that enters or
//!   leaves a processor moves its next completion. Each processor has
//!   exactly one pending completion, so the engine keeps one
//!   `(due time, generation)` slot per processor and a cached arg-min
//!   over them — a reschedule overwrites a slot, it files nothing.
//!
//! [`Engine::pop_due`] hands out whichever is earlier. On an exact
//! `f64` tie the timer goes first; two processors tied with each other
//! go in index order.
//!
//! [`ProcessorTable`] owns the processors and, per processor, the
//! payload of each running job (the simulator's invocation), and keeps
//! the engine's due slots in step with them.

use std::ops::{Index, IndexMut};

use crate::processor::{GroupId, JobId, PsProcessor};
use crate::wheel::TimerWheel;

/// What [`Engine::pop_due`] hands out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Due<E> {
    /// A calendar timer expired.
    Timer(E),
    /// Processor `proc`'s pending completion came due. It was computed
    /// under `generation`; if the processor has reallocated since, the
    /// entry is stale and must be dropped, not fired
    /// ([`ProcessorTable::is_current`]).
    Completion {
        /// Index of the processor.
        proc: usize,
        /// The processor's generation when the time was computed.
        generation: u64,
    },
}

/// Simulation clock + timer calendar + the processors' due index.
pub struct Engine<E> {
    /// Current simulation time (seconds). The run loop sets it to each
    /// time [`Engine::pop_due`] hands out.
    pub now: f64,
    calendar: TimerWheel<E>,
    /// Per processor, its pending completion as `(due time, generation
    /// it was computed under)`; `f64::INFINITY` when it has none.
    completions: Vec<(f64, u64)>,
    /// Index of the earliest entry of `completions` (the lowest index
    /// among equals), or `None` when it has to be found again.
    earliest: Option<usize>,
}

impl<E> Engine<E> {
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
    pub fn push(&mut self, time: f64, event: E) {
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
    pub fn pop_due(&mut self, end: f64) -> Option<(f64, Due<E>)> {
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

/// The processors of a simulation and, per processor, the payload `P`
/// of each running job.
///
/// Jobs enter through [`ProcessorTable::add_job`] and leave through
/// [`ProcessorTable::pop_finished`] or [`ProcessorTable::remove_job`],
/// so every running job has its payload. Indexing reaches a processor
/// directly, for reads and for group changes (`add_group`,
/// `set_group_cap`). A change made that way is not published to the
/// engine: the processor's due slot keeps a time computed under the
/// old generation until the next [`ProcessorTable::publish`].
#[derive(Debug, Clone)]
pub struct ProcessorTable<P> {
    processors: Vec<PsProcessor>,
    /// Per processor, the payload of each running job by its `JobId`
    /// slot (a dense, reused index).
    jobs: Vec<Vec<Option<P>>>,
}

impl<P: Copy> ProcessorTable<P> {
    /// A table over `processors`, none of them running a job yet.
    pub fn new(processors: Vec<PsProcessor>) -> Self {
        let jobs = vec![Vec::new(); processors.len()];
        ProcessorTable { processors, jobs }
    }

    /// Starts a job of `work` units in `group` of processor `proc` at
    /// `engine.now`, files its `payload`, and publishes the processor's
    /// next completion.
    pub fn add_job<E>(
        &mut self,
        engine: &mut Engine<E>,
        proc: usize,
        group: GroupId,
        work: f64,
        payload: P,
    ) {
        let job = self.processors[proc].add_job(engine.now, group, work);
        let slots = &mut self.jobs[proc];
        if job.0 == slots.len() {
            slots.push(None);
        }
        slots[job.0] = Some(payload);
        self.publish(engine, proc);
    }

    /// Replaces `proc`'s entry in the engine's due index with its next
    /// completion under the current allocation.
    pub fn publish<E>(&mut self, engine: &mut Engine<E>, proc: usize) {
        let p = &mut self.processors[proc];
        let next = p.next_completion(engine.now);
        let generation = p.generation();
        engine.set_completion(proc, next.map(|(t, _)| (t, generation)));
    }

    /// Whether `proc`'s completion computed under `generation` still
    /// holds. One from before the processor's last reallocation was
    /// computed at rates that no longer hold and is dropped: the
    /// processor then has no pending completion until the next
    /// [`ProcessorTable::publish`].
    pub fn is_current(&self, proc: usize, generation: u64) -> bool {
        self.processors[proc].generation() == generation
    }

    /// After a current completion of `proc`: removes the next job that
    /// has (numerically, within 1e-12 s) finished by `engine.now` and
    /// returns its payload. When none is left, publishes the processor's
    /// next completion and returns `None`. Jobs come out one at a time
    /// so the caller can add jobs in between.
    pub fn pop_finished<E>(&mut self, engine: &mut Engine<E>, proc: usize) -> Option<P> {
        let now = engine.now;
        match self.processors[proc].next_completion(now) {
            Some((t, job)) if t <= now + 1e-12 => Some(self.remove_job(proc, now, job)),
            _ => {
                self.publish(engine, proc);
                None
            }
        }
    }

    /// Removes `job` from `proc` at `now` without publishing, and
    /// returns its payload.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running.
    pub fn remove_job(&mut self, proc: usize, now: f64, job: JobId) -> P {
        self.processors[proc].remove_job(now, job);
        self.jobs[proc][job.0]
            .take()
            .expect("a running job has a payload")
    }

    /// The jobs running on `proc` with their payloads, in `JobId` order.
    pub fn running(&self, proc: usize) -> impl Iterator<Item = (JobId, P)> + '_ {
        self.jobs[proc]
            .iter()
            .enumerate()
            .filter_map(|(slot, p)| p.map(|p| (JobId(slot), p)))
    }
}

impl<P> Index<usize> for ProcessorTable<P> {
    type Output = PsProcessor;

    fn index(&self, proc: usize) -> &PsProcessor {
        &self.processors[proc]
    }
}

impl<P> IndexMut<usize> for ProcessorTable<P> {
    fn index_mut(&mut self, proc: usize) -> &mut PsProcessor {
        &mut self.processors[proc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(proc: usize, generation: u64) -> Due<&'static str> {
        Due::Completion { proc, generation }
    }

    #[test]
    fn hands_out_the_earliest_processor_lowest_index_on_ties() {
        let mut e = Engine::<&str>::new(4);
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
        let mut e = Engine::<&str>::new(3);
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
        let mut e = Engine::<&str>::new(1);
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
        e.push(2.0, "spike");
        e.push(1.0, "check");
        e.push(3.0, "fault");
        let order: Vec<_> = std::iter::from_fn(|| e.pop_due(10.0)).collect();
        assert_eq!(
            order,
            vec![
                (1.0, Due::Timer("check")),
                (2.0, Due::Timer("spike")),
                (2.0, completion(0, 4)),
                (3.0, Due::Timer("fault")),
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
        e.push(end, "at");
        e.push(after, "after");
        assert_eq!(e.pop_due(end), Some((end, Due::Timer("at"))));
        assert_eq!(e.pop_due(end), Some((end, completion(0, 1))));
        // One ulp past the end waits for the next window, both kinds.
        assert_eq!(e.pop_due(end), None);
        assert_eq!(e.pop_due(end + 1.0), Some((after, Due::Timer("after"))));
        assert_eq!(e.pop_due(end + 1.0), Some((after, completion(1, 1))));
        assert_eq!(e.pop_due(end + 1.0), None);
    }

    #[test]
    fn an_engine_without_processors_is_a_plain_calendar() {
        let mut e = Engine::new(0);
        e.push(1.0, "timer");
        assert_eq!(e.pop_due(0.5), None);
        assert_eq!(e.pop_due(1.0), Some((1.0, Due::Timer("timer"))));
        assert_eq!(e.pop_due(1.0), None);
    }

    /// One processor, one core, one uncapped group.
    fn one_core() -> (Engine<&'static str>, ProcessorTable<char>, GroupId) {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        (Engine::new(1), ProcessorTable::new(vec![cpu]), g)
    }

    #[test]
    fn the_table_publishes_and_hands_out_finished_jobs_by_payload() {
        let (mut e, mut t, g) = one_core();
        t.add_job(&mut e, 0, g, 1.0, 'a');
        t.add_job(&mut e, 0, g, 1.0, 'b');
        // Two equal jobs share the core: both finish at 2.0, together.
        let (now, due) = e.pop_due(10.0).unwrap();
        assert_eq!(now, 2.0);
        let Due::Completion { proc, generation } = due else {
            panic!("a completion is due")
        };
        assert!(t.is_current(proc, generation));
        e.now = now;
        assert_eq!(t.pop_finished(&mut e, 0), Some('a'));
        // The caller adds a job between the two: it runs from now on.
        t.add_job(&mut e, 0, g, 0.5, 'c');
        assert_eq!(t.pop_finished(&mut e, 0), Some('b'));
        assert_eq!(t.pop_finished(&mut e, 0), None);
        assert_eq!(t.running(0).collect::<Vec<_>>(), vec![(JobId(0), 'c')]);
        assert_eq!(
            e.pop_due(10.0),
            Some((2.5, completion(0, t[0].generation())))
        );
    }

    #[test]
    fn a_cap_change_through_the_index_leaves_the_published_time_stale() {
        let (mut e, mut t, g) = one_core();
        t.add_job(&mut e, 0, g, 1.0, 'a');
        t[0].set_group_cap(0.5, g, 0.5);
        let (now, Due::Completion { proc, generation }) = e.pop_due(10.0).unwrap() else {
            panic!("a completion is due")
        };
        assert_eq!(now, 1.0, "the time published before the change");
        assert!(!t.is_current(proc, generation));
        // Only a publish brings the job back, at its new time.
        e.now = now;
        t.publish(&mut e, 0);
        assert_eq!(e.pop_due(10.0).map(|(at, _)| at), Some(1.5));
        assert_eq!(t.remove_job(0, 1.5, JobId(0)), 'a');
        assert_eq!(t.running(0).count(), 0);
    }
}
