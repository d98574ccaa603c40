//! A processor-sharing multi-core CPU with per-group rate caps.
//!
//! The model matches Linux CFS bandwidth control as used by Docker CPU
//! shares in the ATOM paper:
//!
//! * the processor has `cores` cores, each executing `speed` work-units per
//!   second (work is expressed in *reference* CPU-seconds, so `speed`
//!   captures CPU frequency differences between servers, Table V);
//! * each **group** (one container replica) is capped at `cap` cores, e.g.
//!   a CPU share of 0.2 means at most 20% of one core even when the rest of
//!   the machine is idle;
//! * each **job** (one request being executed by one thread) can use at most
//!   one core — a single-threaded service cannot go faster by being given a
//!   larger share, which is exactly the effect that makes vertical scaling
//!   ineffective in the paper's heavy-load Case B (Fig. 2b);
//! * capacity is divided by *water-filling*: every group demands
//!   `min(cap, jobs)` cores; if total demand exceeds the machine, groups
//!   share the shortfall equally (no group gets more than its demand).
//!
//! # Virtual time
//!
//! Jobs of one group always run at the same rate, so the group — not the
//! job — carries the progress: each group has a **virtual clock** `V`,
//! the work every one of its jobs has received since the group was last
//! idle, advancing at the per-job rate `alloc / jobs · speed`. A job
//! entering with `work` gets the **finish tag** `V + work` and completes
//! when `V` reaches it; its remaining work is `tag − V`. Tags sit in a
//! per-group min-heap keyed by `(tag, JobId)`: adding a job and removing
//! the group's next finisher (every normal completion) cost O(log jobs),
//! a group's next finisher is a peek, and the next completion is a
//! minimum over the groups' heap tops. Removing any other job costs
//! O(jobs in the group) — only a replica failure pulls running jobs out
//! of turn, and it is rare. A rate change (a new cap, a water-filling
//! pass) rewrites one rate per group and touches no job. `V` returns to 0
//! whenever its group empties, which keeps tags near the size of one
//! job's work on any group that ever idles.
//!
//! # Reallocation
//!
//! Each group keeps its **demand**, `min(cap, jobs)` cores (0 when it
//! has no job). The water-filling pass reads only the demands, so a job
//! that enters or leaves a group without moving its demand — the common
//! case once a group holds more jobs than its cap — leaves every
//! allocation as it was, and only that group's per-job rate is
//! recomputed, by the same formula as the full pass. Any other change
//! runs the full pass. Either way the cached next completion is dropped.
//!
//! Callers drive simulation time explicitly: every mutating call takes
//! the current time and advances the clocks and the busy integrals to it.
//! Between two changes to the rates the next completion is a fixed
//! instant: [`PsProcessor::next_completion`] computes it once after each
//! change and repeats it, so a check that fires at the returned time
//! finds that job due whatever rounding the clocks picked up on the way
//! there.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a group (container) on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// Identifier of a job (in-flight request execution) on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub usize);

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
    /// Cores the group asked for at the last reallocation:
    /// `min(cap, jobs)`, 0 with no job.
    demand: f64,
    /// Active jobs, earliest finish tag on top. Tags are non-negative,
    /// so their bit patterns order as their values do.
    queue: BinaryHeap<Reverse<(u64, JobId)>>,
}

impl Group {
    /// Cores the group asks for now: `min(cap, jobs)`, 0 with no job.
    fn current_demand(&self) -> f64 {
        if self.queue.is_empty() {
            0.0
        } else {
            self.cap.min(self.queue.len() as f64)
        }
    }

    /// Work-units per second each job receives at the current
    /// allocation: `alloc / jobs · speed`, 0 with no job.
    fn job_rate(&self, speed: f64) -> f64 {
        if self.queue.is_empty() {
            0.0
        } else {
            self.alloc / self.queue.len() as f64 * speed
        }
    }
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
    /// The next completion under the current rates, once computed;
    /// dropped by every change to them.
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
            pending: None,
            demands: Vec::new(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> f64 {
        self.cores
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
            demand: 0.0,
            queue: BinaryHeap::new(),
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
        self.groups[group.0]
            .queue
            .push(Reverse((tag.to_bits(), id)));
        self.active_count += 1;
        self.reallocate_after_job_change(group);
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
        let key = Reverse((j.tag.to_bits(), job));
        if g.queue.peek() == Some(&key) {
            g.queue.pop();
        } else {
            g.queue.retain(|k| *k != key);
        }
        let residual = (j.tag - g.vclock).max(0.0);
        if g.queue.is_empty() {
            g.vclock = 0.0;
        }
        self.active_count -= 1;
        self.free_slots.push(job.0);
        self.reallocate_after_job_change(j.group);
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
    /// The answer is computed once and repeated until a job enters or
    /// leaves, or a cap changes. Jobs left in place past their
    /// completion time come out of a group in tag order.
    pub fn next_completion(&mut self, now: f64) -> Option<(f64, JobId)> {
        self.advance(now);
        if let Some((t, job)) = self.pending {
            return Some((t.max(now), job));
        }
        let mut best: Option<(f64, JobId)> = None;
        for g in &self.groups {
            if g.rate > 0.0 {
                if let Some(&Reverse((tag, job))) = g.queue.peek() {
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

    /// Number of active jobs.
    pub fn active_jobs(&self) -> usize {
        self.active_count
    }

    /// Advances simulation time to `now`: every group's virtual clock
    /// and busy integral move on at the current rates. Idempotent for
    /// `now <=` the last update time.
    pub(crate) fn advance(&mut self, now: f64) {
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

    /// Reallocates after a job entered or left `group`. When the group's
    /// demand is unchanged, so is every allocation (the water-filling
    /// pass reads only demands), and only the group's per-job rate moves.
    /// Drops the cached next completion either way.
    fn reallocate_after_job_change(&mut self, group: GroupId) {
        let g = &mut self.groups[group.0];
        if g.current_demand() != g.demand {
            self.reallocate();
            return;
        }
        self.pending = None;
        g.rate = g.job_rate(self.speed);
    }

    /// Recomputes the water-filling allocation and the per-group rates.
    /// Called internally after any change; drops the cached next
    /// completion.
    fn reallocate(&mut self) {
        self.pending = None;
        let PsProcessor {
            groups, demands, ..
        } = self;
        // Demands in cores: a group can use at most min(cap, jobs) cores.
        demands.clear();
        for (i, g) in groups.iter_mut().enumerate() {
            g.alloc = 0.0;
            g.demand = g.current_demand();
            if g.demand > 0.0 {
                demands.push((i, g.demand));
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
            g.rate = g.job_rate(self.speed);
            total_alloc += g.alloc;
        }
        self.total_alloc = total_alloc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_full_core() {
        let mut cpu = PsProcessor::new(4.0, 1.0);
        let g = cpu.add_group(4.0);
        let j = cpu.add_job(0.0, g, 2.0);
        let (t, id) = cpu.next_completion(0.0).unwrap();
        assert_eq!(id, j);
        // One job can use at most one core even with cap 4.
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn share_cap_limits_rate() {
        let mut cpu = PsProcessor::new(4.0, 1.0);
        let g = cpu.add_group(0.2);
        cpu.add_job(0.0, g, 1.0);
        let (t, _) = cpu.next_completion(0.0).unwrap();
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn speed_scales_execution() {
        let mut cpu = PsProcessor::new(1.0, 0.8);
        let g = cpu.add_group(1.0);
        cpu.add_job(0.0, g, 0.8);
        let (t, _) = cpu.next_completion(0.0).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ps_sharing_within_group() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j1 = cpu.add_job(0.0, g, 1.0);
        let _j2 = cpu.add_job(0.0, g, 2.0);
        // Each job runs at 0.5: j1 done at t=2.
        let (t, id) = cpu.next_completion(0.0).unwrap();
        assert_eq!(id, j1);
        assert!((t - 2.0).abs() < 1e-12);
        cpu.remove_job(t, j1);
        // j2 has 2 - 0.5*2 = 1 left, now at full rate: done at t=3.
        let (t2, _) = cpu.next_completion(t).unwrap();
        assert!((t2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn water_filling_respects_caps() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let small = cpu.add_group(0.25);
        let big = cpu.add_group(4.0);
        cpu.add_job(0.0, small, 10.0);
        for _ in 0..4 {
            cpu.add_job(0.0, big, 10.0);
        }
        // Demands: small 0.25, big min(4, 4)=4 -> total 4.25 > 2.
        // Fair share pass: share=1.0 -> small (0.25) granted, big gets 1.75.
        cpu.advance(1.0);
        assert!((cpu.group_busy_core_seconds(small) - 0.25).abs() < 1e-12);
        assert!((cpu.group_busy_core_seconds(big) - 1.75).abs() < 1e-12);
        assert!((cpu.busy_core_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn equal_split_when_all_saturated() {
        let mut cpu = PsProcessor::new(3.0, 1.0);
        let g1 = cpu.add_group(2.0);
        let g2 = cpu.add_group(2.0);
        for _ in 0..2 {
            cpu.add_job(0.0, g1, 10.0);
            cpu.add_job(0.0, g2, 10.0);
        }
        // Demands 2+2=4 > 3 -> each gets 1.5.
        cpu.advance(2.0);
        assert!((cpu.group_busy_core_seconds(g1) - 3.0).abs() < 1e-12);
        assert!((cpu.group_busy_core_seconds(g2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn vertical_scale_mid_flight() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(0.5);
        let j = cpu.add_job(0.0, g, 1.0);
        // After 1s at rate 0.5, 0.5 work left; double the share.
        cpu.set_group_cap(1.0, g, 1.0);
        let (t, id) = cpu.next_completion(1.0).unwrap();
        assert_eq!(id, j);
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn every_job_change_drops_the_cached_completion() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j = cpu.add_job(0.0, g, 1.0);
        assert_eq!(cpu.next_completion(0.0), Some((1.0, j)));
        // j has 0.5 left and now runs at half the rate.
        let k = cpu.add_job(0.5, g, 1.0);
        assert_eq!(cpu.next_completion(0.5), Some((1.5, j)));
        // j has 0.25 left and runs at the full rate again.
        cpu.remove_job(1.0, k);
        assert_eq!(cpu.next_completion(1.0), Some((1.25, j)));
    }

    #[test]
    fn zero_cap_group_makes_no_progress() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(0.0);
        cpu.add_job(0.0, g, 1.0);
        assert!(cpu.next_completion(0.0).is_none());
        assert_eq!(cpu.active_jobs(), 1);
    }

    #[test]
    fn remove_returns_residual_work() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j = cpu.add_job(0.0, g, 2.0);
        let residual = cpu.remove_job(0.5, j);
        assert!((residual - 1.5).abs() < 1e-12);
        assert_eq!(cpu.active_jobs(), 0);
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j1 = cpu.add_job(0.0, g, 1.0);
        cpu.remove_job(0.1, j1);
        let j2 = cpu.add_job(0.2, g, 1.0);
        assert_eq!(j1.0, j2.0, "slot should be reused");
        assert_eq!(cpu.active_jobs(), 1);
    }

    #[test]
    fn utilization_integral_accumulates() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let g = cpu.add_group(2.0);
        cpu.add_job(0.0, g, 10.0);
        cpu.add_job(0.0, g, 10.0);
        cpu.advance(3.0);
        // Two jobs, cap 2 -> 2 cores busy for 3 s.
        assert!((cpu.busy_core_seconds() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn projected_integrals_match_advance_without_mutating() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let g = cpu.add_group(2.0);
        let j = cpu.add_job(0.0, g, 10.0);
        // Projection at t=3 agrees with what advancing would report...
        let projected = cpu.busy_core_seconds_at(3.0);
        let group_projected = cpu.group_busy_core_seconds_at(3.0, g);
        let mut advanced = cpu.clone();
        advanced.advance(3.0);
        assert_eq!(projected, advanced.busy_core_seconds());
        assert_eq!(group_projected, advanced.group_busy_core_seconds(g));
        // ...but leaves the simulation state untouched.
        assert!((cpu.remaining(0.0, j) - 10.0).abs() < 1e-12);
        assert_eq!(cpu.busy_core_seconds(), 0.0);
    }

    #[test]
    fn virtual_clock_restarts_when_its_group_idles() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j = cpu.add_job(0.0, g, 2.0);
        cpu.advance(1.0);
        assert_eq!(cpu.groups[g.0].vclock, 1.0);
        assert_eq!(cpu.remove_job(2.0, j), 0.0);
        assert_eq!(cpu.groups[g.0].vclock, 0.0);
        // The next job's tag is its own work again.
        let j = cpu.add_job(5.0, g, 0.5);
        assert_eq!(cpu.next_completion(5.0), Some((5.5, j)));
    }

    #[test]
    fn simultaneous_completions_go_to_the_lower_job_id() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let first = cpu.add_group(1.0);
        let second = cpu.add_group(1.0);
        // The lower id sits in the later group.
        let low = cpu.add_job(0.0, second, 1.0);
        let high = cpu.add_job(0.0, first, 1.0);
        assert_eq!(cpu.next_completion(0.0), Some((1.0, low)));
        cpu.remove_job(1.0, low);
        assert_eq!(cpu.next_completion(1.0), Some((1.0, high)));
    }

    #[test]
    fn next_completion_is_fixed_until_the_allocation_changes() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(0.3);
        let j = cpu.add_job(0.0, g, 0.7);
        let promised = cpu.next_completion(0.0).unwrap();
        // Reading in between splits the clock arithmetic, not the answer.
        cpu.remaining(0.9, j);
        assert_eq!(cpu.next_completion(1.1), Some(promised));
        assert_eq!(cpu.next_completion(promised.0), Some(promised));
        // Asked late, it is due now.
        assert_eq!(cpu.next_completion(3.0), Some((3.0, j)));
        // A new allocation is a new answer.
        cpu.set_group_cap(3.0, g, 0.0);
        assert_eq!(cpu.next_completion(3.0), None);
    }

    #[test]
    fn removing_a_job_out_of_turn_keeps_the_rest_in_tag_order() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        // Tags 3, 1, 4, 1, 5 (the two 1s tie and go by JobId).
        let works = [3.0, 1.0, 4.0, 1.0, 5.0];
        let jobs: Vec<JobId> = works.iter().map(|&w| cpu.add_job(0.0, g, w)).collect();
        // Neither is the group's next finisher.
        cpu.remove_job(0.0, jobs[2]);
        cpu.remove_job(0.0, jobs[3]);
        let mut order = Vec::new();
        let mut now = 0.0;
        while let Some((t, job)) = cpu.next_completion(now) {
            now = t;
            cpu.remove_job(now, job);
            order.push(job);
        }
        assert_eq!(order, vec![jobs[1], jobs[0], jobs[4]]);
    }

    #[test]
    fn an_add_that_keeps_the_demand_still_drops_the_cached_completion() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let g = cpu.add_group(0.5);
        let first = cpu.add_job(0.0, g, 1.0);
        let (t, _) = cpu.next_completion(0.0).unwrap();
        assert_eq!(t, 2.0);
        // Demand stays min(0.5, jobs) = 0.5: no reallocation, but the
        // first job now runs at half the rate, so its promised time
        // must not be repeated.
        cpu.add_job(0.0, g, 1.0);
        assert_eq!(cpu.groups[g.0].demand, 0.5);
        assert_eq!(cpu.next_completion(0.0), Some((4.0, first)));
    }

    #[test]
    #[should_panic(expected = "cores must be positive")]
    fn rejects_zero_cores() {
        PsProcessor::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "work must be >= 0")]
    fn rejects_negative_work() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        cpu.add_job(0.0, g, -1.0);
    }
}
