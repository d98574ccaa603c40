//! Differential oracle for the virtual-time [`PsProcessor`].
//!
//! `reference` holds the per-job implementation the virtual-time one
//! replaced, verbatim: every job carries its own `remaining` and `rate`,
//! and every mutation walks all of them. It is O(jobs) per operation and
//! rounds every job on every event, which is why it left `src/`; it is
//! also obviously right, which is why it stays here. Both are driven
//! through the same operation sequences and must agree on
//!
//! * the *order* of completions — exactly;
//! * the busy integrals — exactly (same allocations over the same
//!   instants);
//! * completion times and remaining work — within 1e-9 relative, and
//!   bit for bit when works, caps, times and rates are dyadic, where
//!   neither implementation rounds at all.
//!
//! The driver never leaves a job in place past its completion time (the
//! event protocol of `atom-cluster` and `atom-lqn` never does either);
//! overdue jobs of one group come out in tag order rather than `JobId`
//! order, the one documented difference.

use atom_sim::processor::{GroupId, JobId, PsProcessor};
use atom_sim::SimRng;

#[allow(dead_code)]
mod reference {
    use atom_sim::processor::{GroupId, JobId};

    #[derive(Debug, Clone)]
    struct Group {
        cap: f64,
        active_jobs: usize,
        /// Allocated cores at the current allocation.
        alloc: f64,
        /// ∫ allocated-cores dt — for per-container utilisation metering.
        busy_integral: f64,
    }

    #[derive(Debug, Clone)]
    struct Job {
        group: GroupId,
        remaining: f64,
        /// Work-units per second at the current allocation.
        rate: f64,
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
        generation: u64,
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
                generation: 0,
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
                active_jobs: 0,
                alloc: 0.0,
                busy_integral: 0.0,
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
            let job = Job {
                group,
                remaining: work,
                rate: 0.0,
            };
            let id = match self.free_slots.pop() {
                Some(slot) => {
                    self.jobs[slot] = Some(job);
                    JobId(slot)
                }
                None => {
                    self.jobs.push(Some(job));
                    JobId(self.jobs.len() - 1)
                }
            };
            self.groups[group.0].active_jobs += 1;
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
            self.groups[j.group.0].active_jobs -= 1;
            self.active_count -= 1;
            self.free_slots.push(job.0);
            self.reallocate();
            j.remaining
        }

        /// Remaining work of `job`, after advancing to `now`.
        pub fn remaining(&mut self, now: f64, job: JobId) -> f64 {
            self.advance(now);
            self.jobs[job.0]
                .as_ref()
                .expect("job does not exist")
                .remaining
        }

        /// Earliest `(completion_time, job)` among active jobs, evaluated at
        /// `now`. Returns `None` if no job is running (or all rates are zero,
        /// e.g. every group cap is 0).
        pub fn next_completion(&mut self, now: f64) -> Option<(f64, JobId)> {
            self.advance(now);
            let mut best: Option<(f64, JobId)> = None;
            for (i, slot) in self.jobs.iter().enumerate() {
                if let Some(j) = slot {
                    if j.rate > 0.0 {
                        let t = now + j.remaining / j.rate;
                        if best.is_none_or(|(bt, _)| t < bt) {
                            best = Some((t, JobId(i)));
                        }
                    }
                }
            }
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

        /// Advances virtual time to `now`, draining remaining work at the
        /// current rates. Idempotent for `now <=` the last update time.
        pub fn advance(&mut self, now: f64) {
            let dt = now - self.last_update;
            if dt <= 0.0 {
                return;
            }
            let mut total_alloc = 0.0;
            for g in &mut self.groups {
                g.busy_integral += g.alloc * dt;
                total_alloc += g.alloc;
            }
            self.busy_integral += total_alloc * dt;
            for j in self.jobs.iter_mut().flatten() {
                j.remaining = (j.remaining - j.rate * dt).max(0.0);
            }
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
        /// advancing splits the remaining-work arithmetic at the observation
        /// time, so the same simulation windowed differently would drift
        /// apart by floating-point rounding. A pure read keeps replays
        /// bit-identical across window sizes.
        pub fn busy_core_seconds_at(&self, now: f64) -> f64 {
            let dt = (now - self.last_update).max(0.0);
            let total_alloc: f64 = self.groups.iter().map(|g| g.alloc).sum();
            self.busy_integral + total_alloc * dt
        }

        /// [`PsProcessor::group_busy_core_seconds`] projected to `now`
        /// without advancing state (see [`PsProcessor::busy_core_seconds_at`]).
        pub fn group_busy_core_seconds_at(&self, now: f64, group: GroupId) -> f64 {
            let dt = (now - self.last_update).max(0.0);
            let g = &self.groups[group.0];
            g.busy_integral + g.alloc * dt
        }

        /// Recomputes the water-filling allocation. Called internally after any
        /// change; bumps the generation counter.
        fn reallocate(&mut self) {
            self.generation += 1;
            // Demands in cores: a group can use at most min(cap, jobs) cores.
            let mut demands: Vec<(usize, f64)> = Vec::new();
            for (i, g) in self.groups.iter_mut().enumerate() {
                g.alloc = 0.0;
                if g.active_jobs > 0 {
                    let d = g.cap.min(g.active_jobs as f64);
                    if d > 0.0 {
                        demands.push((i, d));
                    }
                }
            }
            let total_demand: f64 = demands.iter().map(|&(_, d)| d).sum();
            if total_demand <= self.cores {
                for &(i, d) in &demands {
                    self.groups[i].alloc = d;
                }
            } else {
                // Water-filling: equal shares, clamped at each group's demand.
                demands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                let mut remaining_cap = self.cores;
                let mut remaining = demands.as_slice();
                while !remaining.is_empty() {
                    let share = remaining_cap / remaining.len() as f64;
                    // Groups whose demand fits under the fair share are granted
                    // fully; the rest re-share what is left.
                    let split = remaining.partition_point(|&(_, d)| d <= share);
                    if split == 0 {
                        for &(i, _) in remaining {
                            self.groups[i].alloc = share;
                        }
                        break;
                    }
                    for &(i, d) in &remaining[..split] {
                        self.groups[i].alloc = d;
                        remaining_cap -= d;
                    }
                    remaining = &remaining[split..];
                }
            }
            // Per-job rates: equal split within the group, times speed.
            for j in self.jobs.iter_mut().flatten() {
                let g = &self.groups[j.group.0];
                j.rate = if g.active_jobs > 0 {
                    g.alloc / g.active_jobs as f64 * self.speed
                } else {
                    0.0
                };
            }
        }
    }

    /// Not part of the copied code: lets the dyadic test check its own
    /// premise (every running job's rate is a power of two, so no
    /// product or quotient the two implementations form can round).
    impl PsProcessor {
        pub fn rates_are_powers_of_two(&self) -> bool {
            self.jobs
                .iter()
                .flatten()
                .all(|j| j.rate == 0.0 || j.rate.to_bits() & ((1u64 << 52) - 1) == 0)
        }
    }
}

/// Mean job size of the random sequences, and the floor under which a
/// relative difference is measured against this instead.
const MEAN_WORK: f64 = 0.01;

/// How closely the two implementations must agree on times and work.
#[derive(Clone, Copy)]
enum Agree {
    /// Within 1e-9 relative.
    Close,
    /// Bit for bit.
    Exact,
}

fn assert_agree(what: &str, step: usize, new: f64, old: f64, agree: Agree) {
    match agree {
        Agree::Exact => assert_eq!(
            new.to_bits(),
            old.to_bits(),
            "step {step}: {what} {new:e} != reference {old:e}"
        ),
        Agree::Close => {
            let scale = new.abs().max(old.abs()).max(MEAN_WORK);
            assert!(
                (new - old).abs() <= 1e-9 * scale,
                "step {step}: {what} {new:e} vs reference {old:e}"
            );
        }
    }
}

/// The two processors, driven in lockstep.
struct Pair {
    new: PsProcessor,
    old: reference::PsProcessor,
    groups: Vec<GroupId>,
    live: Vec<(JobId, GroupId)>,
    now: f64,
    step: usize,
    completions: usize,
    agree: Agree,
}

impl Pair {
    fn new(cores: f64, speed: f64, caps: &[f64], agree: Agree) -> Self {
        let mut new = PsProcessor::new(cores, speed);
        let mut old = reference::PsProcessor::new(cores, speed);
        let groups = caps
            .iter()
            .map(|&cap| {
                let g = new.add_group(cap);
                assert_eq!(g, old.add_group(cap));
                g
            })
            .collect();
        Pair {
            new,
            old,
            groups,
            live: Vec::new(),
            now: 0.0,
            step: 0,
            completions: 0,
            agree,
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
        let (new, old) = (
            self.new.remove_job(self.now, job),
            self.old.remove_job(self.now, job),
        );
        assert_agree("residual work", self.step, new, old, self.agree);
    }

    fn set_cap(&mut self, group: GroupId, cap: f64) {
        self.new.set_group_cap(self.now, group, cap);
        self.old.set_group_cap(self.now, group, cap);
    }

    /// The next completion, agreed by both; `None` when nothing runs.
    fn next(&mut self) -> Option<(f64, JobId)> {
        let new = self.new.next_completion(self.now);
        let old = self.old.next_completion(self.now);
        match (new, old) {
            (None, None) => None,
            (Some((t, job)), Some((t_old, job_old))) => {
                assert_eq!(job, job_old, "step {}: completion order", self.step);
                assert_agree("completion time", self.step, t, t_old, self.agree);
                Some((t.max(t_old), job))
            }
            _ => panic!("step {}: {new:?} vs reference {old:?}", self.step),
        }
    }

    /// Moves to the next completion and removes that job. Returns its
    /// group, or `None` when nothing runs.
    fn complete_next(&mut self) -> Option<GroupId> {
        let (t, job) = self.next()?;
        self.now = t;
        let k = self
            .live
            .iter()
            .position(|&(j, _)| j == job)
            .expect("live job");
        let group = self.live[k].1;
        self.remove_kth(k);
        self.completions += 1;
        Some(group)
    }

    /// Lets `dt` pass, stopping at (and taking) a completion on the way;
    /// returns the group of the job it took.
    fn idle(&mut self, dt: f64) -> Option<GroupId> {
        match self.next() {
            Some((t, _)) if t <= self.now + dt => self.complete_next(),
            _ => {
                self.now += dt;
                None
            }
        }
    }

    /// Everything observable, compared.
    fn check(&mut self) {
        let (step, agree) = (self.step, self.agree);
        assert_eq!(
            self.new.active_jobs(),
            self.old.active_jobs(),
            "step {step}"
        );
        assert_eq!(self.new.active_jobs(), self.live.len(), "step {step}");
        // Pure reads, taken before the calls below advance the clocks.
        let probe = self.now + MEAN_WORK;
        assert_eq!(
            self.new.busy_core_seconds_at(probe).to_bits(),
            self.old.busy_core_seconds_at(probe).to_bits(),
            "step {step}: projected busy integral"
        );
        self.next();
        for &(job, _) in &self.live {
            let (new, old) = (
                self.new.remaining(self.now, job),
                self.old.remaining(self.now, job),
            );
            assert_agree("remaining work", step, new, old, agree);
        }
        assert_eq!(
            self.new.busy_core_seconds().to_bits(),
            self.old.busy_core_seconds().to_bits(),
            "step {step}: busy integral"
        );
        for &g in &self.groups {
            assert_eq!(
                self.new.group_busy_core_seconds(g).to_bits(),
                self.old.group_busy_core_seconds(g).to_bits(),
                "step {step}: busy integral of group {}",
                g.0
            );
            assert_eq!(
                self.new.group_busy_core_seconds_at(probe, g).to_bits(),
                self.old.group_busy_core_seconds_at(probe, g).to_bits(),
                "step {step}: projected busy integral of group {}",
                g.0
            );
        }
        self.step += 1;
    }
}

fn pick<T: Copy>(rng: &mut SimRng, from: &[T]) -> T {
    from[(rng.uniform() * from.len() as f64) as usize % from.len()]
}

/// Random sequences over several groups on a machine too small for
/// them: over-subscribed water-filling, caps moved mid-flight (to 0 and
/// back), arbitrary removals, slot reuse, and phases that drain every
/// group so the virtual clocks restart.
#[test]
fn agrees_with_the_per_job_reference_on_random_sequences() {
    let mut completions = 0;
    for seed in 0..40 {
        let mut rng = SimRng::seed_from(1000 + seed);
        let cores = pick(&mut rng, &[1.0, 2.0, 3.0, 4.0]);
        let speed = pick(&mut rng, &[0.8, 1.0, 1.25]);
        let caps: Vec<f64> = (0..1 + seed as usize % 6)
            .map(|_| rng.uniform_in(0.1, 3.0))
            .collect();
        let mut pair = Pair::new(cores, speed, &caps, Agree::Close);
        for op in 0..600 {
            // Alternate filling and draining phases.
            let p_add = if (op / 100) % 2 == 0 { 0.55 } else { 0.2 };
            let u = rng.uniform();
            let group = pick(&mut rng, &pair.groups);
            if u < p_add {
                let work = if rng.bernoulli(0.02) {
                    0.0
                } else {
                    rng.exponential(MEAN_WORK)
                };
                pair.add(group, work);
            } else if u < 0.82 {
                pair.complete_next();
            } else if u < 0.88 && !pair.live.is_empty() {
                let k = (rng.uniform() * pair.live.len() as f64) as usize % pair.live.len();
                pair.remove_kth(k);
            } else if u < 0.94 {
                let cap = if rng.bernoulli(0.3) {
                    0.0
                } else {
                    rng.uniform_in(0.1, 3.0)
                };
                pair.set_cap(group, cap);
            } else {
                pair.idle(rng.exponential(MEAN_WORK));
            }
            pair.check();
        }
        // Run dry: every cap back on, every job to completion.
        for (i, &cap) in caps.iter().enumerate() {
            pair.set_cap(GroupId(i), cap);
        }
        while pair.complete_next().is_some() {
            pair.check();
        }
        assert_eq!(pair.new.active_jobs(), 0);
        completions += pair.completions;
    }
    assert!(
        completions > 5_000,
        "only {completions} completions compared"
    );
}

/// Dyadic inputs: works are multiples of 2^-10, caps and cores powers of
/// two, and the job count of every group is a power of two whenever time
/// passes, so every rate is a power of two (the reference confirms it)
/// and no sum, product or quotient in either implementation rounds. The
/// two must then agree bit for bit.
#[test]
fn agrees_exactly_on_dyadic_sequences() {
    let mut completions = 0;
    for seed in 0..40 {
        let mut rng = SimRng::seed_from(2000 + seed);
        // Even seeds: two groups over-subscribing two cores (each is
        // granted 1 or 2 cores), plus one parked at cap 0. Odd seeds:
        // many groups on a machine that fits them all.
        let (cores, caps): (f64, Vec<f64>) = if seed % 2 == 0 {
            (2.0, vec![2.0, 4.0, 0.0])
        } else {
            (
                64.0,
                (0..6).map(|_| pick(&mut rng, &[1.0, 2.0, 4.0])).collect(),
            )
        };
        let speed = pick(&mut rng, &[0.5, 1.0, 2.0]);
        let mut pair = Pair::new(cores, speed, &caps, Agree::Exact);
        let dyadic_work = |rng: &mut SimRng| (1.0 + (rng.uniform() * 64.0).floor()) / 1024.0;
        for _ in 0..300 {
            let group = pick(&mut rng, &pair.groups);
            let u = rng.uniform();
            if u < 0.5 {
                // Resize one group to a power-of-two job count, all at
                // this instant.
                let target = pick(&mut rng, &[0usize, 1, 2, 4, 8]);
                let mut mine: Vec<usize> = Vec::new();
                loop {
                    mine.clear();
                    mine.extend((0..pair.live.len()).filter(|&k| pair.live[k].1 == group));
                    if mine.len() <= target {
                        break;
                    }
                    let k = pick(&mut rng, &mine);
                    pair.remove_kth(k);
                }
                for _ in mine.len()..target {
                    let work = dyadic_work(&mut rng);
                    pair.add(group, work);
                }
            } else if u < 0.95 {
                // Complete the next job, or let some time pass; a job
                // taken is replaced where it ran, so the count is a power
                // of two again before time moves.
                let taken = if u < 0.9 {
                    pair.complete_next()
                } else {
                    pair.idle((1.0 + (rng.uniform() * 16.0).floor()) / 4096.0)
                };
                if let Some(group) = taken {
                    let work = dyadic_work(&mut rng);
                    pair.add(group, work);
                }
            } else {
                let cap = if caps[group.0] == 0.0 {
                    0.0
                } else if seed % 2 == 0 {
                    pick(&mut rng, &[2.0, 4.0])
                } else {
                    pick(&mut rng, &[0.0, 1.0, 2.0, 4.0])
                };
                pair.set_cap(group, cap);
            }
            assert!(
                pair.old.rates_are_powers_of_two(),
                "step {}: the sequence left the dyadic regime",
                pair.step
            );
            pair.check();
        }
        completions += pair.completions;
    }
    assert!(
        completions > 2_000,
        "only {completions} completions compared"
    );
}

/// Late in a long run (`now` ≈ 1.5e4 s, the clocks of a group that never
/// idles equally large) with ≥ 512 jobs sharing one core, a check fired
/// at the time `next_completion` returned must find that job due under
/// the callers' `t <= now + 1e-12` rule — never a zero-progress
/// reschedule, whatever the clocks rounded to on the way.
#[test]
fn a_check_fired_at_the_returned_time_always_completes_a_job() {
    let mut rng = SimRng::seed_from(7);
    let mut cpu = PsProcessor::new(4.0, 1.0);
    let busy = cpu.add_group(1.0);
    let other = cpu.add_group(0.7);
    // Bring the busy group's clock to the scale of `now` (one long
    // companion job keeps it from ever idling), then load it.
    cpu.add_job(0.0, busy, 1.0e6);
    let mut now = 1.5e4;
    for _ in 0..600 {
        cpu.add_job(now, busy, rng.exponential(0.005));
    }
    for _ in 0..20_000 {
        let (t, job) = cpu.next_completion(now).expect("jobs are running");
        assert!(t >= now);
        // A read part of the way there splits the clock arithmetic.
        cpu.remaining(now + 0.4 * (t - now), job);
        now = t;
        // The check: what `ProcessorTable::pop_finished` does when the
        // completion comes due.
        let (due, due_job) = cpu.next_completion(now).expect("jobs are running");
        assert!(
            due <= now + 1e-12,
            "check at {now} found the next completion at {due}: zero progress"
        );
        assert_eq!(due_job, job);
        cpu.remove_job(now, due_job);
        let group = if rng.bernoulli(0.1) { other } else { busy };
        cpu.add_job(now, group, rng.exponential(0.005));
        assert!(cpu.active_jobs() >= 512);
    }
}
