//! Bit-level oracle for [`PsProcessor`]'s host-time structures.
//!
//! `reference` holds the processor as it stood before two of them,
//! verbatim: each group's jobs in a `BTreeSet` keyed by `(tag, JobId)`,
//! and the full water-filling pass after every change. The processor in
//! `src/` keeps each group's jobs in a min-heap instead, and when a job
//! enters or leaves a group without moving the group's demand it
//! recomputes that one group's rate. Neither may change a single bit, so
//! the two are driven through the same seeded sequences — adds,
//! completions, removals of jobs that are not their group's next
//! finisher (what a replica failure does), caps moved to 0 and back,
//! over-subscribed water-fills, reads of remaining work part of the way
//! to a completion — and must agree *exactly* on the next completion,
//! remaining and residual work, and the busy integrals.

use atom_sim::processor::{GroupId, JobId, PsProcessor};
use atom_sim::SimRng;

#[allow(dead_code)]
mod reference {
    use std::collections::BTreeSet;

    use atom_sim::processor::{GroupId, JobId};

    #[derive(Debug, Clone)]
    struct Group {
        cap: f64,
        /// Allocated cores at the current allocation.
        alloc: f64,
        /// ∫ allocated-cores dt — for per-container utilisation metering.
        busy_integral: f64,
        /// Work-units per second each job receives at the current
        /// allocation: `alloc / jobs · speed`.
        rate: f64,
        /// Virtual clock: work each job has received since the group was
        /// last idle.
        vclock: f64,
        /// Active jobs by finish tag. Tags are non-negative, so their bit
        /// patterns order as their values do.
        queue: BTreeSet<(u64, JobId)>,
    }

    #[derive(Debug, Clone, Copy)]
    struct Job {
        group: GroupId,
        /// Value of the group's virtual clock at which the job completes.
        tag: f64,
    }

    /// A multi-core processor-sharing CPU. See the [module docs](self).
    #[derive(Debug, Clone)]
    pub struct PsProcessor {
        cores: f64,
        speed: f64,
        groups: Vec<Group>,
        jobs: Vec<Option<Job>>,
        free_slots: Vec<usize>,
        active_count: usize,
        last_update: f64,
        busy_integral: f64,
        /// Σ group allocations, in group order.
        total_alloc: f64,
        generation: u64,
        /// The next completion under the current generation, once computed.
        pending: Option<(f64, JobId)>,
        /// Scratch for `reallocate`: `(group, demanded cores)`.
        demands: Vec<(usize, f64)>,
    }

    impl PsProcessor {
        /// Creates a processor with `cores` cores, each running at `speed`
        /// work-units per second.
        ///
        /// # Panics
        ///
        /// Panics if `cores` or `speed` is not strictly positive and finite.
        pub fn new(cores: f64, speed: f64) -> Self {
            assert!(
                cores.is_finite() && cores > 0.0,
                "cores must be positive, got {cores}"
            );
            assert!(
                speed.is_finite() && speed > 0.0,
                "speed must be positive, got {speed}"
            );
            PsProcessor {
                cores,
                speed,
                groups: Vec::new(),
                jobs: Vec::new(),
                free_slots: Vec::new(),
                active_count: 0,
                last_update: 0.0,
                busy_integral: 0.0,
                total_alloc: 0.0,
                generation: 0,
                pending: None,
                demands: Vec::new(),
            }
        }

        /// Number of cores.
        pub fn cores(&self) -> f64 {
            self.cores
        }

        /// Speed factor (work-units per core-second).
        pub fn speed(&self) -> f64 {
            self.speed
        }

        /// Adds a group (container) capped at `cap` cores and returns its id.
        ///
        /// # Panics
        ///
        /// Panics if `cap` is negative or NaN.
        pub fn add_group(&mut self, cap: f64) -> GroupId {
            assert!(cap.is_finite() && cap >= 0.0, "cap must be >= 0, got {cap}");
            self.groups.push(Group {
                cap,
                alloc: 0.0,
                busy_integral: 0.0,
                rate: 0.0,
                vclock: 0.0,
                queue: BTreeSet::new(),
            });
            GroupId(self.groups.len() - 1)
        }

        /// Changes the core cap of `group` (vertical scaling), effective at
        /// simulation time `now`.
        ///
        /// # Panics
        ///
        /// Panics if the group does not exist or `cap` is invalid.
        pub fn set_group_cap(&mut self, now: f64, group: GroupId, cap: f64) {
            assert!(cap.is_finite() && cap >= 0.0, "cap must be >= 0, got {cap}");
            self.advance(now);
            self.groups[group.0].cap = cap;
            self.reallocate();
        }

        /// Adds a job with `work` work-units to `group` at time `now`.
        ///
        /// # Panics
        ///
        /// Panics if `work` is negative/NaN or the group does not exist.
        pub fn add_job(&mut self, now: f64, group: GroupId, work: f64) -> JobId {
            assert!(
                work.is_finite() && work >= 0.0,
                "work must be >= 0, got {work}"
            );
            self.advance(now);
            let tag = self.groups[group.0].vclock + work;
            let job = Some(Job { group, tag });
            let id = match self.free_slots.pop() {
                Some(slot) => {
                    self.jobs[slot] = job;
                    JobId(slot)
                }
                None => {
                    self.jobs.push(job);
                    JobId(self.jobs.len() - 1)
                }
            };
            self.groups[group.0].queue.insert((tag.to_bits(), id));
            self.active_count += 1;
            self.reallocate();
            id
        }

        /// Removes `job` at time `now` (normally on completion) and returns its
        /// residual work (≈0 when complete).
        ///
        /// # Panics
        ///
        /// Panics if the job does not exist.
        pub fn remove_job(&mut self, now: f64, job: JobId) -> f64 {
            self.advance(now);
            let j = self.jobs[job.0].take().expect("job does not exist");
            let g = &mut self.groups[j.group.0];
            g.queue.remove(&(j.tag.to_bits(), job));
            let residual = (j.tag - g.vclock).max(0.0);
            if g.queue.is_empty() {
                g.vclock = 0.0;
            }
            self.active_count -= 1;
            self.free_slots.push(job.0);
            self.reallocate();
            residual
        }

        /// Remaining work of `job`, after advancing to `now`.
        pub fn remaining(&mut self, now: f64, job: JobId) -> f64 {
            self.advance(now);
            let j = self.jobs[job.0].as_ref().expect("job does not exist");
            (j.tag - self.groups[j.group.0].vclock).max(0.0)
        }

        /// Earliest `(completion_time, job)` among active jobs, evaluated at
        /// `now`; ties go to the lower `JobId`. Returns `None` if no job is
        /// running (or all rates are zero, e.g. every group cap is 0).
        ///
        /// The answer is computed once per [generation](Self::generation)
        /// and repeated until the allocation changes. Jobs left in place
        /// past their completion time come out of a group in tag order.
        pub fn next_completion(&mut self, now: f64) -> Option<(f64, JobId)> {
            self.advance(now);
            if let Some((t, job)) = self.pending {
                return Some((t.max(now), job));
            }
            let mut best: Option<(f64, JobId)> = None;
            for g in &self.groups {
                if g.rate > 0.0 {
                    if let Some(&(tag, job)) = g.queue.first() {
                        let t = now + (f64::from_bits(tag) - g.vclock).max(0.0) / g.rate;
                        if best.is_none_or(|b| (t, job) < b) {
                            best = Some((t, job));
                        }
                    }
                }
            }
            self.pending = best;
            best
        }

        /// Generation counter: bumped whenever the rate allocation changes.
        /// Completion events scheduled under an older generation are stale.
        pub fn generation(&self) -> u64 {
            self.generation
        }

        /// Number of active jobs.
        pub fn active_jobs(&self) -> usize {
            self.active_count
        }

        /// Advances simulation time to `now`: every group's virtual clock
        /// and busy integral move on at the current rates. Idempotent for
        /// `now <=` the last update time.
        pub fn advance(&mut self, now: f64) {
            let dt = now - self.last_update;
            if dt <= 0.0 {
                return;
            }
            for g in &mut self.groups {
                g.busy_integral += g.alloc * dt;
                g.vclock += g.rate * dt;
            }
            self.busy_integral += self.total_alloc * dt;
            self.last_update = now;
        }

        /// ∫ busy-cores dt since construction (core-seconds).
        /// `(busy_core_seconds(t2) - busy_core_seconds(t1)) / (cores · (t2-t1))`
        /// is the machine utilisation over a window.
        pub fn busy_core_seconds(&self) -> f64 {
            self.busy_integral
        }

        /// ∫ busy-cores dt for one group (container utilisation metering).
        pub fn group_busy_core_seconds(&self, group: GroupId) -> f64 {
            self.groups[group.0].busy_integral
        }

        /// [`PsProcessor::busy_core_seconds`] projected to `now` *without*
        /// advancing state: the accumulated integral plus the current
        /// allocation extrapolated over `now - last_update` (allocations only
        /// change at mutating calls, so the extrapolation is exact).
        ///
        /// Monitors should read utilisation at observation points (window
        /// boundaries) through this instead of `advance` + the accumulator:
        /// advancing splits the clock arithmetic at the observation time, so
        /// the same simulation windowed differently would drift apart by
        /// floating-point rounding. A pure read keeps replays bit-identical
        /// across window sizes.
        pub fn busy_core_seconds_at(&self, now: f64) -> f64 {
            let dt = (now - self.last_update).max(0.0);
            self.busy_integral + self.total_alloc * dt
        }

        /// [`PsProcessor::group_busy_core_seconds`] projected to `now`
        /// without advancing state (see [`PsProcessor::busy_core_seconds_at`]).
        pub fn group_busy_core_seconds_at(&self, now: f64, group: GroupId) -> f64 {
            let dt = (now - self.last_update).max(0.0);
            let g = &self.groups[group.0];
            g.busy_integral + g.alloc * dt
        }

        /// Recomputes the water-filling allocation and the per-group rates.
        /// Called internally after any change; bumps the generation counter.
        fn reallocate(&mut self) {
            self.generation += 1;
            self.pending = None;
            let PsProcessor {
                groups, demands, ..
            } = self;
            // Demands in cores: a group can use at most min(cap, jobs) cores.
            demands.clear();
            for (i, g) in groups.iter_mut().enumerate() {
                g.alloc = 0.0;
                if !g.queue.is_empty() {
                    let d = g.cap.min(g.queue.len() as f64);
                    if d > 0.0 {
                        demands.push((i, d));
                    }
                }
            }
            let total_demand: f64 = demands.iter().map(|&(_, d)| d).sum();
            if total_demand <= self.cores {
                for &(i, d) in demands.iter() {
                    groups[i].alloc = d;
                }
            } else {
                // Water-filling: equal shares, clamped at each group's demand.
                demands.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                let mut remaining_cap = self.cores;
                let mut remaining = demands.as_slice();
                while !remaining.is_empty() {
                    let share = remaining_cap / remaining.len() as f64;
                    // Groups whose demand fits under the fair share are granted
                    // fully; the rest re-share what is left.
                    let split = remaining.partition_point(|&(_, d)| d <= share);
                    if split == 0 {
                        for &(i, _) in remaining {
                            groups[i].alloc = share;
                        }
                        break;
                    }
                    for &(i, d) in &remaining[..split] {
                        groups[i].alloc = d;
                        remaining_cap -= d;
                    }
                    remaining = &remaining[split..];
                }
            }
            // Per-job rates: equal split within the group, times speed.
            let mut total_alloc = 0.0;
            for g in groups.iter_mut() {
                g.rate = if g.queue.is_empty() {
                    0.0
                } else {
                    g.alloc / g.queue.len() as f64 * self.speed
                };
                total_alloc += g.alloc;
            }
            self.total_alloc = total_alloc;
        }
    }

    /// Not part of the copied code: lets the tests count the removals
    /// that take a job out of turn.
    impl PsProcessor {
        pub fn is_next_in_its_group(&self, job: JobId) -> bool {
            let j = self.jobs[job.0].as_ref().expect("job does not exist");
            self.groups[j.group.0].queue.first() == Some(&(j.tag.to_bits(), job))
        }
    }
}

/// Mean job size of the random sequences.
const MEAN_WORK: f64 = 0.01;

fn same(what: &str, step: usize, new: f64, old: f64) {
    assert_eq!(
        new.to_bits(),
        old.to_bits(),
        "step {step}: {what} {new:e} != reference {old:e}"
    );
}

/// The two processors, driven in lockstep.
struct Pair {
    new: PsProcessor,
    old: reference::PsProcessor,
    caps: Vec<f64>,
    live: Vec<(JobId, GroupId)>,
    now: f64,
    step: usize,
    completions: usize,
    /// Removals of a job that was not its group's next finisher.
    out_of_turn: usize,
}

impl Pair {
    fn new(cores: f64, speed: f64, caps: &[f64]) -> Self {
        let mut new = PsProcessor::new(cores, speed);
        let mut old = reference::PsProcessor::new(cores, speed);
        for &cap in caps {
            assert_eq!(new.add_group(cap), old.add_group(cap));
        }
        Pair {
            new,
            old,
            caps: caps.to_vec(),
            live: Vec::new(),
            now: 0.0,
            step: 0,
            completions: 0,
            out_of_turn: 0,
        }
    }

    fn add(&mut self, group: GroupId, work: f64) {
        let id = self.new.add_job(self.now, group, work);
        assert_eq!(id, self.old.add_job(self.now, group, work), "slot reuse");
        self.live.push((id, group));
    }

    /// Removes the `k`-th live job, wherever it stands in its group.
    fn remove_kth(&mut self, k: usize) {
        let (job, _) = self.live.swap_remove(k);
        if !self.old.is_next_in_its_group(job) {
            self.out_of_turn += 1;
        }
        let new = self.new.remove_job(self.now, job);
        let old = self.old.remove_job(self.now, job);
        same("residual work", self.step, new, old);
    }

    fn set_cap(&mut self, group: GroupId, cap: f64) {
        self.new.set_group_cap(self.now, group, cap);
        self.old.set_group_cap(self.now, group, cap);
    }

    /// What a replica failure does: the group's cap drops to 0, then
    /// its jobs leave in `JobId` order.
    fn fail_group(&mut self, group: GroupId) {
        self.set_cap(group, 0.0);
        let mut mine: Vec<JobId> = self
            .live
            .iter()
            .filter(|&&(_, g)| g == group)
            .map(|&(j, _)| j)
            .collect();
        mine.sort();
        for job in mine {
            let k = self.live.iter().position(|&(j, _)| j == job).unwrap();
            self.remove_kth(k);
        }
    }

    /// The next completion, agreed by both bit for bit.
    fn next(&mut self) -> Option<(f64, JobId)> {
        let new = self.new.next_completion(self.now);
        let old = self.old.next_completion(self.now);
        match (new, old) {
            (None, None) => None,
            (Some((t, job)), Some((t_old, job_old))) => {
                assert_eq!(job, job_old, "step {}: completion order", self.step);
                same("completion time", self.step, t, t_old);
                Some((t, job))
            }
            _ => panic!("step {}: {new:?} vs reference {old:?}", self.step),
        }
    }

    /// Moves to the next completion, after a read of the job's remaining
    /// work part of the way there, and removes that job.
    fn complete_next(&mut self, rng: &mut SimRng) -> bool {
        let Some((t, job)) = self.next() else {
            return false;
        };
        if rng.bernoulli(0.3) {
            let part = self.now + rng.uniform() * (t - self.now);
            same(
                "remaining work",
                self.step,
                self.new.remaining(part, job),
                self.old.remaining(part, job),
            );
        }
        self.now = t;
        let k = self.live.iter().position(|&(j, _)| j == job).unwrap();
        self.remove_kth(k);
        self.completions += 1;
        true
    }

    /// Everything observable, compared bit for bit.
    fn check(&mut self) {
        let step = self.step;
        assert_eq!(
            self.new.active_jobs(),
            self.old.active_jobs(),
            "step {step}"
        );
        assert_eq!(self.new.active_jobs(), self.live.len());
        // Pure reads, taken before the calls below advance the clocks.
        let probe = self.now + MEAN_WORK;
        same(
            "projected busy integral",
            step,
            self.new.busy_core_seconds_at(probe),
            self.old.busy_core_seconds_at(probe),
        );
        for g in 0..self.caps.len() {
            same(
                "projected group busy integral",
                step,
                self.new.group_busy_core_seconds_at(probe, GroupId(g)),
                self.old.group_busy_core_seconds_at(probe, GroupId(g)),
            );
        }
        self.next();
        for &(job, _) in &self.live {
            same(
                "remaining work",
                step,
                self.new.remaining(self.now, job),
                self.old.remaining(self.now, job),
            );
        }
        same(
            "busy integral",
            step,
            self.new.busy_core_seconds(),
            self.old.busy_core_seconds(),
        );
        for g in 0..self.caps.len() {
            same(
                "group busy integral",
                step,
                self.new.group_busy_core_seconds(GroupId(g)),
                self.old.group_busy_core_seconds(GroupId(g)),
            );
        }
        self.step += 1;
    }
}

/// A uniform index below `n`.
fn index(rng: &mut SimRng, n: usize) -> usize {
    (rng.uniform() * n as f64) as usize % n
}

fn pick<T: Copy>(rng: &mut SimRng, from: &[T]) -> T {
    from[index(rng, from.len())]
}

/// Random sequences over up to eight groups on machines from too small
/// to roomy: every kind of step, in filling and draining phases.
#[test]
fn agrees_bit_for_bit_with_the_ordered_set_reference() {
    let (mut completions, mut out_of_turn) = (0, 0);
    for seed in 0..60 {
        let mut rng = SimRng::seed_from(3000 + seed);
        let cores = pick(&mut rng, &[1.0, 2.0, 3.0, 8.0]);
        let speed = pick(&mut rng, &[0.8, 1.0, 1.25]);
        // Fractional caps (demand fixed once the group holds a job) and
        // whole ones (demand grows with every job up to the cap).
        let caps: Vec<f64> = (0..1 + seed as usize % 8)
            .map(|_| {
                if rng.bernoulli(0.5) {
                    rng.uniform_in(0.1, 1.0)
                } else {
                    pick(&mut rng, &[1.0, 2.0, 4.0])
                }
            })
            .collect();
        let mut pair = Pair::new(cores, speed, &caps);
        for op in 0..800 {
            let p_add = if (op / 100) % 2 == 0 { 0.55 } else { 0.25 };
            let group = GroupId(index(&mut rng, caps.len()));
            let u = rng.uniform();
            if u < p_add {
                let work = if rng.bernoulli(0.02) {
                    0.0
                } else {
                    rng.exponential(MEAN_WORK)
                };
                pair.add(group, work);
            } else if u < 0.8 {
                pair.complete_next(&mut rng);
            } else if u < 0.88 && !pair.live.is_empty() {
                let k = index(&mut rng, pair.live.len());
                pair.remove_kth(k);
            } else if u < 0.9 {
                pair.fail_group(group);
            } else if u < 0.96 {
                // To 0, to a new cap, or back to where it started.
                let moved = rng.uniform_in(0.1, 3.0);
                let cap = pick(&mut rng, &[0.0, moved, caps[group.0]]);
                pair.set_cap(group, cap);
            } else {
                // Time passes with nothing taken, even past a due job.
                pair.now += rng.exponential(MEAN_WORK);
            }
            pair.check();
        }
        for (g, &cap) in caps.iter().enumerate() {
            pair.set_cap(GroupId(g), cap);
        }
        while pair.complete_next(&mut rng) {
            pair.check();
        }
        assert_eq!(pair.new.active_jobs(), 0);
        completions += pair.completions;
        out_of_turn += pair.out_of_turn;
    }
    assert!(completions > 10_000, "only {completions} completions");
    assert!(
        out_of_turn > 1_000,
        "only {out_of_turn} out-of-turn removals"
    );
}

/// Many jobs per group, so the heaps are deep: a one-group hot loop of
/// completions and replacements with the odd out-of-turn removal.
#[test]
fn agrees_bit_for_bit_with_deep_groups() {
    let mut rng = SimRng::seed_from(3100);
    let mut pair = Pair::new(2.0, 1.0, &[1.5, 0.4, 3.0]);
    for _ in 0..300 {
        let group = GroupId(pick(&mut rng, &[0, 1, 2]));
        pair.add(group, rng.exponential(MEAN_WORK));
    }
    for _ in 0..3000 {
        if rng.bernoulli(0.9) {
            pair.complete_next(&mut rng);
        } else {
            let k = index(&mut rng, pair.live.len());
            pair.remove_kth(k);
        }
        let group = GroupId(pick(&mut rng, &[0, 1, 2]));
        pair.add(group, rng.exponential(MEAN_WORK));
        pair.check();
    }
    assert!(
        pair.out_of_turn > 200,
        "only {} out of turn",
        pair.out_of_turn
    );
}
