//! Scaling gate for [`PsProcessor`]: the cost of one complete-and-add
//! cycle must not grow with the number of jobs in flight.
//!
//! A ratio, not a wall budget: the same loop is timed at 16 and at 4 096
//! jobs in interleaved batches (so both see the same machine), five
//! times over, and the median of the per-round ratios is gated. The
//! per-job implementation this one replaced walked every job on every
//! operation and sat above 50×; a heap per group grows by the few
//! levels between 16 and 4 096 keys.

use std::hint::black_box;
use std::time::Instant;

use atom_sim::processor::{GroupId, PsProcessor};
use atom_sim::SimRng;

/// One group holding `jobs` jobs, each with a core to itself.
struct Held {
    cpu: PsProcessor,
    group: GroupId,
    now: f64,
    rng: SimRng,
}

impl Held {
    fn new(jobs: usize) -> Self {
        let mut rng = SimRng::seed_from(13);
        let mut cpu = PsProcessor::new(2.0 * jobs as f64, 1.0);
        let group = cpu.add_group(jobs as f64);
        for _ in 0..jobs {
            cpu.add_job(0.0, group, rng.exponential(0.005));
        }
        Held {
            cpu,
            group,
            now: 0.0,
            rng,
        }
    }

    /// Nanoseconds per cycle over `cycles` of: complete the next job,
    /// add a fresh one.
    fn ns_per_cycle(&mut self, cycles: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..cycles {
            let (t, job) = self.cpu.next_completion(self.now).expect("jobs are active");
            self.now = t;
            black_box(self.cpu.remove_job(self.now, job));
            let work = self.rng.exponential(0.005);
            black_box(self.cpu.add_job(self.now, self.group, work));
        }
        start.elapsed().as_nanos() as f64 / cycles as f64
    }
}

#[test]
fn cycle_cost_at_4096_jobs_is_within_6x_of_16_jobs() {
    const CYCLES: usize = 20_000;
    let (mut few, mut many) = (Held::new(16), Held::new(4_096));
    // Warm both (allocator, caches, branch predictors) before timing.
    few.ns_per_cycle(CYCLES);
    many.ns_per_cycle(CYCLES);
    let mut ratios: Vec<f64> = (0..5)
        .map(|_| {
            let (mut few_ns, mut many_ns) = (0.0, 0.0);
            for _ in 0..4 {
                few_ns += few.ns_per_cycle(CYCLES / 4);
                many_ns += many.ns_per_cycle(CYCLES / 4);
            }
            many_ns / few_ns
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median <= 6.0,
        "a cycle at 4 096 jobs costs {median:.1}x one at 16 jobs (rounds: {ratios:.1?})"
    );
    println!("4 096 jobs / 16 jobs, ns per cycle: {median:.2}x (rounds: {ratios:.2?})");
}
