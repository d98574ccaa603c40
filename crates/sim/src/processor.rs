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
//! Callers drive virtual time explicitly: every mutating call takes the
//! current simulation time and internally advances all remaining-work
//! counters. The [`PsProcessor::generation`] counter is bumped whenever the
//! rate allocation changes, letting simulators detect stale completion
//! events.

/// Identifier of a group (container) on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// Identifier of a job (in-flight request execution) on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub usize);

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
    fn generation_bumps_on_change() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let g0 = cpu.generation();
        let j = cpu.add_job(0.0, g, 1.0);
        assert!(cpu.generation() > g0);
        let g1 = cpu.generation();
        cpu.remove_job(0.5, j);
        assert!(cpu.generation() > g1);
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
