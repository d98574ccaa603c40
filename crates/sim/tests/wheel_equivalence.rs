//! The timer wheel must pop in exactly the order the binary-heap
//! calendar does — `(time, insertion sequence)` — under arbitrary
//! interleavings of pushes and pops. The cluster's bitwise-reproducible
//! runs depend on this equivalence.

use atom_sim::{EventQueue, SimRng, TimerWheel};

/// Pushes `(time, id)` into both calendars.
fn push_both(heap: &mut EventQueue<u64>, wheel: &mut TimerWheel<u64>, time: f64, id: u64) {
    heap.push(time, id);
    wheel.push(time, id);
}

/// Pops both calendars until empty, asserting identical streams; returns
/// the number of events popped.
fn drain_both(heap: &mut EventQueue<u64>, wheel: &mut TimerWheel<u64>, what: &str) -> usize {
    let mut popped = 0;
    loop {
        let h = heap.pop();
        assert_eq!(h, wheel.pop(), "{what}: divergence after {popped} pops");
        if h.is_none() {
            return popped;
        }
        popped += 1;
    }
}

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
            push_both(&mut heap, &mut wheel, time, next_id);
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
    drain_both(&mut heap, &mut wheel, &format!("drain (seed {seed})"));
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
            push_both(&mut heap, &mut wheel, t, user);
        }
        for k in 1..=4u64 {
            let t = k as f64 * window - TICK / 2.0;
            push_both(&mut heap, &mut wheel, t, 100 + k);
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
            push_both(&mut heap, &mut wheel, next, user);
            assert_eq!(heap.len(), wheel.len());
        }
    }
}

#[test]
fn matches_heap_on_sparse_schedules_across_every_level_boundary() {
    // A handful of timers around each power of 64 ticks — the last tick
    // of one level-l slot, the first of the next, the wrap from slot 63
    // to the next lap — and nothing in between, so nearly every slot the
    // occupancy search skips is empty and every level's word is used on
    // both sides of the cursor's own slot.
    const TICK: f64 = 0.5;
    let mut heap = EventQueue::new();
    let mut wheel = TimerWheel::with_tick(TICK);
    let mut id = 0u64;
    for level in 1..=4u32 {
        let span = 64u64.pow(level);
        for k in [1, 2, 31, 32, 63, 64, 65] {
            let boundary = (k * span) as f64 * TICK;
            for offset in [-1.5 * TICK, -0.25 * TICK, 0.0, 0.25 * TICK, 1.5 * TICK] {
                push_both(&mut heap, &mut wheel, boundary + offset, id);
                id += 1;
            }
        }
    }
    // Pop half of them with a sparse successor pushed after every pop:
    // some land in the slot the cursor is in, some a level or two up.
    let mut rng = SimRng::seed_from(77);
    for n in 0..id / 2 {
        let h = heap.pop();
        assert_eq!(h, wheel.pop(), "divergence at pop {n}");
        let (now, _) = h.unwrap();
        let ahead = TICK * 64f64.powf(rng.uniform() * 4.2);
        push_both(&mut heap, &mut wheel, now + ahead, id + n);
        assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    let left = drain_both(&mut heap, &mut wheel, "sparse");
    assert_eq!(left as u64, id);
}

#[test]
fn matches_heap_when_overflow_refiles_more_than_once() {
    // Timers one, two and three horizons out, pushed while nearer ones
    // keep the wheel occupied: each re-filing puts the next window's
    // timers in the wheel and sends the rest back to the overflow list.
    const TICK: f64 = 0.125;
    let horizon = TICK * (1u64 << 24) as f64;
    let mut heap = EventQueue::new();
    let mut wheel = TimerWheel::with_tick(TICK);
    let mut rng = SimRng::seed_from(78);
    let mut id = 0u64;
    for windows_out in [3.0, 1.0, 2.0, 3.0, 1.0] {
        for _ in 0..6 {
            let t = (windows_out + rng.uniform()) * horizon;
            push_both(&mut heap, &mut wheel, t, id);
            id += 1;
        }
        // Two that tie exactly, across the horizon: FIFO must survive
        // the trip through the overflow list.
        let t = (windows_out + 0.5) * horizon;
        push_both(&mut heap, &mut wheel, t, id);
        push_both(&mut heap, &mut wheel, t, id + 1);
        id += 2;
    }
    for _ in 0..40 {
        push_both(&mut heap, &mut wheel, rng.uniform() * horizon, id);
        id += 1;
    }
    // Pop through the first window with pushes landing in later ones.
    for n in 0..30 {
        let h = heap.pop();
        assert_eq!(h, wheel.pop(), "divergence at pop {n}");
        let (now, _) = h.unwrap();
        push_both(&mut heap, &mut wheel, now + 1.25 * horizon, id + n);
    }
    let left = drain_both(&mut heap, &mut wheel, "overflow");
    assert_eq!(left as u64, id);
}

#[test]
fn a_cleared_wheel_is_as_good_as_new() {
    // Fill every level and the overflow list, run the cursor part of the
    // way in, clear, and use the wheel again: nothing of the first life —
    // entries, occupancy bits, the overflow minimum — may leak into the
    // second. The cursor stays where it was, so the second life's times
    // start there.
    const TICK: f64 = 0.01;
    let mut wheel: TimerWheel<u64> = TimerWheel::with_tick(TICK);
    let mut rng = SimRng::seed_from(79);
    for i in 0..2000u64 {
        let t = TICK * 64f64.powf(rng.uniform() * 4.5);
        wheel.push(t, i);
    }
    let mut now = 0.0;
    for _ in 0..500 {
        now = wheel.pop().expect("2000 pushed").0;
    }
    assert!(!wheel.is_empty());
    wheel.clear();
    assert!(wheel.is_empty());
    assert_eq!(wheel.peek_time(), None);
    assert_eq!(wheel.pop(), None);

    let mut heap = EventQueue::new();
    for i in 0..2000u64 {
        let t = now + TICK * 64f64.powf(rng.uniform() * 4.5);
        push_both(&mut heap, &mut wheel, t, i);
        if i % 3 == 2 {
            assert_eq!(heap.pop(), wheel.pop(), "divergence in the second life");
        }
        assert_eq!(heap.len(), wheel.len());
    }
    drain_both(&mut heap, &mut wheel, "after clear");
}

#[test]
fn matches_heap_when_pushes_land_in_a_half_consumed_ready_run() {
    // `Engine::pop_due`'s pattern: peek, then pop, and the handler of
    // what was popped pushes — at the very instant (a reschedule),
    // elsewhere in the tick being consumed, or ticks behind the cursor.
    // Fifty-odd timers per tick keep the ready run long, so those pushes
    // land in the middle of it, before, between and after its entries.
    const TICK: f64 = 1e-3;
    for seed in 50..55 {
        let mut rng = SimRng::seed_from(seed);
        let mut heap = EventQueue::new();
        let mut wheel = TimerWheel::with_tick(TICK);
        let mut id = 0u64;
        for _ in 0..2000 {
            let tick = (rng.uniform() * 40.0).floor();
            // One in five on the tick's first instant: exact ties.
            let within = if rng.bernoulli(0.2) {
                0.0
            } else {
                rng.uniform()
            };
            push_both(&mut heap, &mut wheel, (tick + within) * TICK, id);
            id += 1;
        }
        let mut pops = 0;
        loop {
            assert_eq!(
                wheel.peek_time(),
                heap.peek_time(),
                "peek divergence after {pops} pops (seed {seed})"
            );
            let h = heap.pop();
            assert_eq!(
                h,
                wheel.pop(),
                "pop divergence after {pops} pops (seed {seed})"
            );
            let Some((now, _)) = h else { break };
            pops += 1;
            let tick_start = (now / TICK).floor() * TICK;
            let u = rng.uniform();
            let time = if u < 0.2 {
                now
            } else if u < 0.45 {
                tick_start + rng.uniform() * TICK
            } else if u < 0.65 {
                now - (1.0 + rng.uniform() * 4.0) * TICK
            } else if u < 0.8 {
                now + rng.exponential(10.0 * TICK)
            } else {
                continue;
            };
            push_both(&mut heap, &mut wheel, time, id);
            id += 1;
            assert_eq!(heap.len(), wheel.len());
        }
        assert!(pops > 5000, "only {pops} pops (seed {seed})");
    }
}

#[test]
fn matches_heap_on_ties_pushed_right_after_a_boundary_step() {
    // A level-0 expiry moves the cursor one tick past the slot it
    // expired. When that tick starts a level-1 slot (a multiple of 64),
    // a level-2 slot (of 4 096) or a new top-level window (of 64^4),
    // the cursor now sits inside a slot whose entries were filed a level
    // up, or in the overflow list, before it got there. A push at that
    // moment that ties one of them exactly must still pop after it. On a
    // coarse tick grid ties are the rule: half the pending times sit on
    // the grid, and each is pushed again right after the step. Tick 0
    // carries `-0.0`, `0.0` and negative times, which tie or order
    // exactly like the heap's `partial_cmp`.
    for (tick, seed0) in [(1.0, 80), (0.25, 90), (1e-3, 100)] {
        for (case, boundary) in [64u64, 3 * 64, 4096, 2 * 4096, 1 << 24]
            .into_iter()
            .enumerate()
        {
            for seed in seed0..seed0 + 3 {
                let what = format!("tick {tick}, boundary {boundary}, seed {seed}");
                let mut rng = SimRng::seed_from(seed * 10 + case as u64);
                let mut heap = EventQueue::new();
                let mut wheel = TimerWheel::with_tick(tick);
                let mut id = 0u64;
                let mut push = |heap: &mut EventQueue<u64>, wheel: &mut TimerWheel<u64>, t| {
                    push_both(heap, wheel, t, id);
                    id += 1;
                };
                for t in [0.0, -0.0, -1.5 * tick, 0.0, -0.0, -1.5 * tick] {
                    push(&mut heap, &mut wheel, t);
                }
                // Pending entries just past the boundary: in the slot the
                // step enters and the few after it, at every level.
                let span = (boundary * 2).min(3 * 4096);
                let mut pending = Vec::new();
                for _ in 0..24 {
                    let n = boundary + (rng.uniform() * span as f64) as u64;
                    let t = if rng.bernoulli(0.5) {
                        n as f64 * tick
                    } else {
                        (n as f64 + 0.5) * tick
                    };
                    pending.push(t);
                    push(&mut heap, &mut wheel, t);
                }
                // The entry whose expiry steps the cursor onto the boundary.
                let step = (boundary as f64 - 0.5) * tick;
                push(&mut heap, &mut wheel, step);
                loop {
                    let h = heap.pop();
                    assert_eq!(h, wheel.pop(), "{what}: divergence before the step");
                    if h.expect("the step is pending").0 == step {
                        break;
                    }
                }
                // Right after the step: exact ties with every pending time,
                // a tie with the instant just expired (behind the cursor),
                // and tick 0's signed zeros.
                for &t in &pending {
                    push(&mut heap, &mut wheel, t);
                }
                for t in [step, -0.0, 0.0, step] {
                    push(&mut heap, &mut wheel, t);
                }
                let left = drain_both(&mut heap, &mut wheel, &what);
                assert_eq!(left, 2 * pending.len() + 4, "{what}");
            }
        }
    }
}

/// Entries per chunk of an upper-level wheel slot (`wheel.rs`'s `CHUNK`).
/// The case below fills slots to either side of its multiples; at another
/// chunk size it still holds the wheel to the heap, only less sharply.
const CHUNK: usize = 64;

#[test]
fn matches_heap_on_slots_filled_around_the_chunk_size() {
    // Slots of levels 1, 2 and 3 hold CHUNK-1, CHUNK, CHUNK+1 and
    // 2*CHUNK+1 entries, pushed round-robin so their chunk lists
    // interleave in the pool. In each slot, the entries either side of
    // every chunk boundary tie exactly, so FIFO must survive the step from
    // one chunk to the next. The rest fall in three of the slot's 64
    // sub-slots, most in the first, so a cascade refiles more than a
    // chunk into one slot a level down while it drains and recycles its
    // own. Pops, peeks and pushes behind the cursor, at
    // the instant just popped, and up to three levels ahead, interleave
    // with the cascades.
    const TICK: f64 = 1e-3;
    let fills = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1];
    for seed in 60..64 {
        let mut rng = SimRng::seed_from(seed);
        let mut heap = EventQueue::new();
        let mut wheel = TimerWheel::with_tick(TICK);
        let mut slots = Vec::new();
        for level in 1..=3u32 {
            let span = 64u64.pow(level);
            let sub = span / 64;
            for (k, &fill) in fills.iter().enumerate() {
                // Slot k+1 of the level's first window: ahead of the
                // cursor at 0, so it files at this level.
                let start = (k as u64 + 1) * span;
                let subs: Vec<u64> = (0..3).map(|_| (rng.uniform() * 64.0) as u64).collect();
                let tie = (start + subs[0] * sub) as f64 * TICK;
                slots.push((start, sub, subs, tie, fill));
            }
        }
        let mut id = 0u64;
        for i in 0..2 * CHUNK + 1 {
            for &(start, sub, ref subs, tie, fill) in &slots {
                if i >= fill {
                    continue;
                }
                let at_boundary = i > 0 && [0, 1, 2].contains(&((i + 2) % CHUNK));
                let t = if at_boundary {
                    tie
                } else {
                    let u = rng.uniform();
                    let s = subs[usize::from(u >= 0.6) + usize::from(u >= 0.9)];
                    (start + s * sub) as f64 * TICK + rng.uniform() * sub as f64 * TICK
                };
                push_both(&mut heap, &mut wheel, t, id);
                id += 1;
            }
        }
        let mut pops = 0u64;
        loop {
            if rng.bernoulli(0.3) {
                assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
            }
            let h = heap.pop();
            assert_eq!(h, wheel.pop(), "divergence after {pops} pops (seed {seed})");
            let Some((now, _)) = h else { break };
            pops += 1;
            let u = rng.uniform();
            let t = if u < 0.15 {
                now - rng.uniform() * 3.0 * TICK
            } else if u < 0.3 {
                now
            } else if u < 0.6 {
                now + TICK * 64f64.powf(rng.uniform() * 3.5)
            } else {
                continue;
            };
            push_both(&mut heap, &mut wheel, t, id);
            id += 1;
            assert_eq!(heap.len(), wheel.len());
        }
        assert_eq!(pops, id, "seed {seed}");
    }
}
