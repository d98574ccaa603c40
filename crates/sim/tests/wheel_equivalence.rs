//! The timer wheel must pop in exactly the order the binary-heap
//! calendar does — `(time, insertion sequence)` — under arbitrary
//! interleavings of pushes and pops. The cluster's bitwise-reproducible
//! runs depend on this equivalence.

use atom_sim::{EventQueue, SimRng, TimerWheel};

/// Drives both calendars through the same randomised schedule and
/// asserts identical pop streams.
fn check_schedule(seed: u64, ops: usize, time_scale: f64, tie_prob: f64) {
    let mut rng = SimRng::seed_from(seed);
    let mut heap = EventQueue::new();
    let mut wheel = TimerWheel::new();
    let mut next_id = 0u64;
    let mut now = 0.0f64;
    let mut last_time = 0.0f64;
    for _ in 0..ops {
        let r = rng.uniform();
        if r < 0.6 || heap.is_empty() {
            // Push: usually in the future relative to the virtual clock,
            // sometimes an exact duplicate of the last time (FIFO ties),
            // sometimes slightly in the past (reschedules at `now`).
            let time = if rng.uniform() < tie_prob {
                last_time
            } else {
                let dt = rng.exponential(time_scale);
                now + dt - if rng.uniform() < 0.1 { dt * 0.5 } else { 0.0 }
            };
            last_time = time;
            heap.push(time, next_id);
            wheel.push(time, next_id);
            next_id += 1;
        } else {
            let h = heap.pop();
            let w = wheel.pop();
            assert_eq!(h, w, "pop divergence at op (seed {seed})");
            if let Some((t, _)) = h {
                now = now.max(t);
            }
        }
        assert_eq!(heap.len(), wheel.len());
    }
    // Drain both to the end.
    loop {
        let h = heap.pop();
        let w = wheel.pop();
        assert_eq!(h, w, "drain divergence (seed {seed})");
        if h.is_none() {
            break;
        }
    }
}

#[test]
fn matches_heap_on_dense_short_horizons() {
    // Sub-tick spacing: many events share level-0 slots.
    for seed in 0..5 {
        check_schedule(seed, 4000, 0.0004, 0.2);
    }
}

#[test]
fn matches_heap_on_sparse_long_horizons() {
    // Mean gaps of minutes: events land on upper levels and cascade.
    for seed in 10..15 {
        check_schedule(seed, 1500, 180.0, 0.05);
    }
}

#[test]
fn matches_heap_beyond_the_wheel_horizon() {
    // Mean gaps of hours: pushes overflow past the 64^4-tick horizon.
    for seed in 20..23 {
        check_schedule(seed, 600, 20_000.0, 0.02);
    }
}

#[test]
fn matches_heap_on_mixed_scales() {
    // Think-time-like seconds mixed with millisecond service times —
    // the cluster's actual regime.
    for seed in 30..35 {
        check_schedule(seed, 4000, 1.0, 0.1);
    }
}

#[test]
fn matches_heap_across_top_level_windows_under_closed_loop_load() {
    // A closed loop — every pop schedules its successor — carried over
    // several 64^4-tick top-level windows. Timers pushed across a window
    // boundary wait in the overflow list while the timers of users
    // already past it keep the wheel occupied; they must re-enter as
    // soon as the cursor reaches their window, not when the wheel next
    // runs empty. One user per window fires in the window's last tick,
    // so the cursor steps into the next window with its successor the
    // only thing in the wheel. A coarse tick keeps the crossings cheap.
    const TICK: f64 = 0.25;
    let window = TICK * (1u64 << 24) as f64;
    for seed in 40..43 {
        let mut rng = SimRng::seed_from(seed);
        let mut heap = EventQueue::new();
        let mut wheel = TimerWheel::with_tick(TICK);
        for user in 0..32u64 {
            let t = rng.exponential(window / 40.0);
            heap.push(t, user);
            wheel.push(t, user);
        }
        for k in 1..=4u64 {
            let t = k as f64 * window - TICK / 2.0;
            heap.push(t, 100 + k);
            wheel.push(t, 100 + k);
        }
        let mut now = 0.0f64;
        while now < 4.5 * window {
            let h = heap.pop();
            assert_eq!(h, wheel.pop(), "pop divergence at t={now} (seed {seed})");
            let (t, user) = h.expect("a closed loop never drains");
            now = t;
            // A long think or a short service hop, like the cluster's mix.
            let mean = if rng.uniform() < 0.5 {
                window / 40.0
            } else {
                window / 40_000.0
            };
            let next = now + rng.exponential(mean);
            heap.push(next, user);
            wheel.push(next, user);
            assert_eq!(heap.len(), wheel.len());
        }
    }
}
