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
//!   leaves a processor, and every cap change, moves its next
//!   completion. Each processor has exactly one pending completion, so
//!   the engine keeps one due-time slot per processor and a cached
//!   arg-min over them — a reschedule overwrites a slot, it files
//!   nothing.
//!
//! [`Engine::pop_due`] hands out whichever is earlier. On an exact
//! `f64` tie the timer goes first; two processors tied with each other
//! go in index order.
//!
//! [`ProcessorTable`] owns the processors and, per processor, the
//! payload of each running job (the simulator's invocation). Every
//! change it makes to a processor publishes that processor's next
//! completion to its due slot (the jobs finishing at one instant leave
//! together and publish once), so a slot always holds the time the
//! processor's jobs are actually due: a completion handed out is never
//! stale.

use std::ops::Index;

use crate::processor::{GroupId, JobId, PsProcessor};
use crate::wheel::TimerWheel;

/// What [`Engine::pop_due`] hands out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Due<E> {
    /// A calendar timer expired.
    Timer(E),
    /// Processor `proc`'s pending completion came due: take its finished
    /// jobs with [`ProcessorTable::pop_finished`].
    Completion {
        /// Index of the processor.
        proc: usize,
    },
}

/// Simulation clock + timer calendar + the processors' due index.
#[derive(Clone)]
pub struct Engine<E> {
    /// Current simulation time (seconds). The run loop sets it to each
    /// time [`Engine::pop_due`] hands out.
    pub now: f64,
    calendar: TimerWheel<E>,
    /// Per processor, the due time of its pending completion;
    /// `f64::INFINITY` when it has none.
    completions: Vec<f64>,
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
            completions: vec![f64::INFINITY; processors],
            earliest: None,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: f64, event: E) {
        self.calendar.push(time, event);
    }

    /// Replaces processor `proc`'s pending completion with `time`
    /// (`f64::INFINITY`: it has nothing running).
    fn set_completion(&mut self, proc: usize, time: f64) {
        let was = std::mem::replace(&mut self.completions[proc], time);
        if let Some(e) = self.earliest {
            if e == proc {
                // The minimum's owner moved: still the minimum if it
                // moved earlier, anyone's guess if later.
                if time > was {
                    self.earliest = None;
                }
            } else {
                let held = self.completions[e];
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
                    if *c < self.completions[best] {
                        best = i;
                    }
                }
                self.earliest = Some(best);
                best
            }
        };
        let time = *self.completions.get(e)?;
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
                self.set_completion(proc, f64::INFINITY);
                return Some((t, Due::Completion { proc }));
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
/// so every running job has its payload; groups change through
/// [`ProcessorTable::add_group`] and [`ProcessorTable::set_group_cap`].
/// Each of these publishes the processor's next completion to the
/// engine; `pop_finished` does once it has handed out the last job
/// due. Indexing reads a processor; there is no way to change one
/// without publishing.
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

    /// Adds a group capped at `cap` cores to processor `proc` and
    /// publishes the processor's next completion.
    pub fn add_group<E>(&mut self, engine: &mut Engine<E>, proc: usize, cap: f64) -> GroupId {
        let group = self.processors[proc].add_group(cap);
        self.publish(engine, proc);
        group
    }

    /// Moves `group` of processor `proc` to a cap of `cap` cores at
    /// `engine.now` and publishes the processor's next completion.
    pub fn set_group_cap<E>(
        &mut self,
        engine: &mut Engine<E>,
        proc: usize,
        group: GroupId,
        cap: f64,
    ) {
        self.processors[proc].set_group_cap(engine.now, group, cap);
        self.publish(engine, proc);
    }

    /// Replaces `proc`'s entry in the engine's due index with its next
    /// completion under the current allocation.
    fn publish<E>(&mut self, engine: &mut Engine<E>, proc: usize) {
        let next = self.processors[proc].next_completion(engine.now);
        engine.set_completion(proc, next.map_or(f64::INFINITY, |(t, _)| t));
    }

    /// After a completion of `proc` came due: removes the next job that
    /// has (numerically, within 1e-12 s) finished by `engine.now` and
    /// returns its payload. When none is left, publishes the processor's
    /// next completion and returns `None`. Jobs come out one at a time
    /// so the caller can add jobs in between.
    pub fn pop_finished<E>(&mut self, engine: &mut Engine<E>, proc: usize) -> Option<P> {
        let now = engine.now;
        match self.processors[proc].next_completion(now) {
            Some((t, job)) if t <= now + 1e-12 => Some(self.take_job(proc, now, job)),
            _ => {
                self.publish(engine, proc);
                None
            }
        }
    }

    /// Removes `job` from `proc` at `engine.now`, publishes the
    /// processor's next completion, and returns the job's payload.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running.
    pub fn remove_job<E>(&mut self, engine: &mut Engine<E>, proc: usize, job: JobId) -> P {
        let payload = self.take_job(proc, engine.now, job);
        self.publish(engine, proc);
        payload
    }

    /// Removes `job` from `proc` at `now` without publishing, and
    /// returns its payload. Finished jobs leave this way: the next hop
    /// often adds a job to the same processor, which publishes anyway.
    fn take_job(&mut self, proc: usize, now: f64, job: JobId) -> P {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(proc: usize) -> Due<&'static str> {
        Due::Completion { proc }
    }

    #[test]
    fn hands_out_the_earliest_processor_lowest_index_on_ties() {
        let mut e = Engine::<&str>::new(4);
        e.set_completion(2, 3.0);
        e.set_completion(1, 5.0);
        e.set_completion(3, 3.0);
        e.set_completion(0, 4.0);
        let order: Vec<_> = std::iter::from_fn(|| e.pop_due(10.0)).collect();
        assert_eq!(
            order,
            vec![
                (3.0, completion(2)),
                (3.0, completion(3)),
                (4.0, completion(0)),
                (5.0, completion(1)),
            ]
        );
        assert_eq!(e.pop_due(10.0), None);
    }

    #[test]
    fn rescans_when_the_minimum_moves_later() {
        let mut e = Engine::<&str>::new(3);
        e.set_completion(0, 1.0);
        e.set_completion(1, 2.0);
        e.set_completion(2, 3.0);
        assert_eq!(e.next_completion(), Some((1.0, 0)));
        // Earlier: the cached minimum keeps its owner.
        e.set_completion(0, 0.5);
        assert_eq!(e.earliest, Some(0));
        assert_eq!(e.next_completion(), Some((0.5, 0)));
        // Later: the cache is dropped and the scan finds the new owner.
        e.set_completion(0, 2.5);
        assert_eq!(e.earliest, None);
        assert_eq!(e.next_completion(), Some((2.0, 1)));
        // Someone else undercuts the minimum: no scan needed.
        e.set_completion(2, 1.5);
        assert_eq!(e.earliest, Some(2));
        // The owner goes idle; then everyone does.
        e.set_completion(2, f64::INFINITY);
        assert_eq!(e.next_completion(), Some((2.0, 1)));
        e.set_completion(1, f64::INFINITY);
        e.set_completion(0, f64::INFINITY);
        assert_eq!(e.next_completion(), None);
        assert_eq!(e.pop_due(f64::INFINITY), None);
    }

    #[test]
    fn overwriting_a_slot_leaves_one_completion_per_processor() {
        let mut e = Engine::<&str>::new(1);
        for g in 0..100 {
            e.set_completion(0, 10.0 - g as f64 * 0.01);
        }
        assert_eq!(e.pop_due(20.0), Some((10.0 - 0.99, completion(0))));
        assert_eq!(e.pop_due(20.0), None);
    }

    #[test]
    fn a_timer_goes_before_a_completion_at_the_same_instant() {
        let mut e = Engine::new(1);
        e.set_completion(0, 2.0);
        e.push(2.0, "spike");
        e.push(1.0, "check");
        e.push(3.0, "fault");
        let order: Vec<_> = std::iter::from_fn(|| e.pop_due(10.0)).collect();
        assert_eq!(
            order,
            vec![
                (1.0, Due::Timer("check")),
                (2.0, Due::Timer("spike")),
                (2.0, completion(0)),
                (3.0, Due::Timer("fault")),
            ]
        );
    }

    #[test]
    fn the_window_end_is_inclusive() {
        let mut e = Engine::new(2);
        let end = 5.0_f64;
        let after = f64::from_bits(end.to_bits() + 1);
        e.set_completion(0, end);
        e.set_completion(1, after);
        e.push(end, "at");
        e.push(after, "after");
        assert_eq!(e.pop_due(end), Some((end, Due::Timer("at"))));
        assert_eq!(e.pop_due(end), Some((end, completion(0))));
        // One ulp past the end waits for the next window, both kinds.
        assert_eq!(e.pop_due(end), None);
        assert_eq!(e.pop_due(end + 1.0), Some((after, Due::Timer("after"))));
        assert_eq!(e.pop_due(end + 1.0), Some((after, completion(1))));
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
        assert_eq!(e.pop_due(10.0), Some((2.0, completion(0))));
        e.now = 2.0;
        assert_eq!(t.pop_finished(&mut e, 0), Some('a'));
        // The caller adds a job between the two: it runs from now on.
        t.add_job(&mut e, 0, g, 0.5, 'c');
        assert_eq!(t.pop_finished(&mut e, 0), Some('b'));
        assert_eq!(t.pop_finished(&mut e, 0), None);
        assert_eq!(t.running(0).collect::<Vec<_>>(), vec![(JobId(0), 'c')]);
        assert_eq!(e.pop_due(10.0), Some((2.5, completion(0))));
    }

    #[test]
    fn a_cap_change_through_the_table_moves_the_job_to_its_new_time() {
        let (mut e, mut t, g) = one_core();
        t.add_job(&mut e, 0, g, 1.0, 'a');
        // Half done at 0.5 s; the rest at half a core takes 1 s more.
        e.now = 0.5;
        t.set_group_cap(&mut e, 0, g, 0.5);
        assert_eq!(e.pop_due(10.0), Some((1.5, completion(0))));
        e.now = 1.5;
        assert_eq!(t.pop_finished(&mut e, 0), Some('a'));
        assert_eq!(t.pop_finished(&mut e, 0), None);
        assert_eq!(e.pop_due(10.0), None);
    }

    #[test]
    fn removing_a_job_moves_the_rest_to_their_new_time() {
        let (mut e, mut t, g) = one_core();
        t.add_job(&mut e, 0, g, 1.0, 'a');
        t.add_job(&mut e, 0, g, 3.0, 'b');
        // Sharing the core, 'a' is due at 2.0; pulling 'b' out at 1.0
        // leaves 'a' its last 0.5 s of work at the full rate.
        e.now = 1.0;
        assert_eq!(t.remove_job(&mut e, 0, JobId(1)), 'b');
        assert_eq!(e.pop_due(10.0), Some((1.5, completion(0))));
    }

    /// Every processor's due slot, against the time its jobs are due.
    fn published(e: &Engine<()>, t: &mut ProcessorTable<usize>, skip: Option<usize>) -> bool {
        (0..t.processors.len())
            .filter(|&p| Some(p) != skip)
            .all(|p| {
                let due = t.processors[p].next_completion(e.now).map(|(at, _)| at);
                e.completions[p] == due.unwrap_or(f64::INFINITY)
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whatever the table does, each processor's due slot holds its
        /// next completion (infinity when idle), except on the processor
        /// whose completion was handed out until `pop_finished` has
        /// taken its last finished job.
        #[test]
        fn every_table_change_is_published(
            processors in 2usize..4,
            ops in proptest::collection::vec((0usize..6, 0usize..3, 0.0f64..1.0, 0.0f64..2.0), 1..80),
        ) {
            let cpus = (0..processors)
                .map(|_| {
                    let mut cpu = PsProcessor::new(2.0, 1.0);
                    cpu.add_group(1.0);
                    cpu
                })
                .collect();
            let mut t = ProcessorTable::new(cpus);
            let mut e = Engine::<()>::new(processors);
            let mut groups = vec![1usize; processors];
            let mut draining = None;
            for (step, &(op, p, a, b)) in ops.iter().enumerate() {
                let p = p % processors;
                let group = GroupId((a * groups[p] as f64) as usize);
                match op {
                    0 => {
                        t.add_group(&mut e, p, b);
                        groups[p] += 1;
                    }
                    1 => t.add_job(&mut e, p, group, b, step),
                    // A quarter of the cap moves park the group at zero.
                    2 => t.set_group_cap(&mut e, p, group, if b < 0.5 { 0.0 } else { b }),
                    3 => {
                        let running: Vec<_> = t.running(p).map(|(job, _)| job).collect();
                        if !running.is_empty() {
                            let job = running[(a * running.len() as f64) as usize];
                            t.remove_job(&mut e, p, job);
                        }
                    }
                    4 if draining.is_none() => {
                        let end = e.now + b;
                        match e.pop_due(end) {
                            Some((at, Due::Completion { proc })) => {
                                e.now = at;
                                draining = Some(proc);
                            }
                            Some((_, Due::Timer(()))) => unreachable!("no timer was pushed"),
                            None => e.now = end,
                        }
                    }
                    _ => {
                        if let Some(proc) = draining {
                            if t.pop_finished(&mut e, proc).is_none() {
                                draining = None;
                            }
                        }
                    }
                }
                proptest::prop_assert!(published(&e, &mut t, draining), "step {step}: op {op} on {p}");
            }
        }
    }
}
