//! A hierarchical timer-wheel event calendar.
//!
//! Same contract as the binary-heap [`crate::calendar`] — events pop in
//! `(time, insertion order)` order, NaN times are rejected — but pushes
//! and pops are O(1) amortised instead of O(log n), which matters once a
//! cluster simulation carries hundreds of thousands of pending think
//! timers. The design is the classic hashed hierarchical wheel (Varghese
//! & Lauck): `LEVELS` levels of `SLOTS` slots each, where a level-`l`
//! slot spans `SLOTS^l` ticks. An event is filed at the coarsest level
//! whose current window contains it and cascades down as the cursor
//! approaches; events beyond the top-level horizon wait in an overflow
//! list and re-enter the wheel as soon as the cursor reaches their
//! top-level window.
//!
//! Each level keeps one `u64` **occupancy word**, bit `s` set while slot
//! `s` holds an entry, so finding a level's next non-empty slot is a mask
//! and a `trailing_zeros` instead of a walk over up to 64 `Vec`s.
//!
//! Within one level-0 tick, events are ordered by their exact `f64` time
//! (then insertion sequence), so the pop order is *identical* to
//! the heap — a property the simulators' bitwise-reproducibility pins
//! rely on and `tests/wheel_equivalence.rs` checks against randomised
//! schedules.

/// Slots per level (a power of two; the slot index is a bit-field of the
/// tick).
const SLOTS: usize = 64;
/// Bits per level (`log2(SLOTS)`).
const BITS: u32 = 6;
/// Number of wheel levels. Four levels at a 1 ms tick give a ~4.7 h
/// horizon; later events overflow (and re-enter when the horizon moves).
const LEVELS: usize = 4;
/// Bits of a tick below its top-level window index.
const TOP_SHIFT: u32 = BITS * LEVELS as u32;

/// Level-0 tick index of an absolute time (times at or before zero all
/// share tick 0; enormous times saturate — ordering within a shared
/// bucket is still exact, by `f64` time).
fn tick_of(tick: f64, time: f64) -> u64 {
    if time <= 0.0 {
        0
    } else {
        (time / tick) as u64
    }
}

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

// Sixteen bytes of bookkeeping per entry: a 16-byte payload (what the
// cluster's calendar carries) makes a 32-byte entry, two to a cache line.
const _: () = assert!(std::mem::size_of::<Entry<[u64; 2]>>() == 32);

impl<E> Entry<E> {
    /// `(time, seq)` precedes `other` — the calendar's total order.
    /// `partial_cmp` (not `total_cmp`) so `-0.0 == 0.0` ties break by
    /// sequence, exactly like the heap.
    fn before(&self, other: &Self) -> bool {
        match self.time.partial_cmp(&other.time) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => self.seq < other.seq,
        }
    }
}

/// A future-event list with timer-wheel internals and
/// the binary heap's ([`crate::calendar`]) ordering.
///
/// # Examples
///
/// ```
/// use atom_sim::TimerWheel;
///
/// let mut w = TimerWheel::new();
/// w.push(2.0, "b");
/// w.push(1.0, "a");
/// w.push(2.0, "c");
/// assert_eq!(w.pop(), Some((1.0, "a")));
/// assert_eq!(w.pop(), Some((2.0, "b"))); // FIFO among ties
/// assert_eq!(w.pop(), Some((2.0, "c")));
/// assert_eq!(w.pop(), None);
/// ```
pub struct TimerWheel<E> {
    /// Seconds per level-0 tick.
    tick: f64,
    /// Next level-0 tick to expire; only ever advances.
    cursor: u64,
    /// `levels[l][s]` holds entries whose tick hashes to slot `s` of
    /// level `l` (possibly from a future lap; filtered on expiry).
    levels: Vec<Vec<Vec<Entry<E>>>>,
    /// Bit `s` of `occupied[l]` is set iff `levels[l][s]` is non-empty.
    occupied: [u64; LEVELS],
    /// Entries beyond the top-level horizon at insertion time.
    overflow: Vec<Entry<E>>,
    /// Smallest tick in `overflow` (`u64::MAX` when it is empty): the
    /// cursor entering this tick's top-level window re-files the list.
    overflow_min: u64,
    /// Expired entries in *reverse* pop order: the next to pop is the
    /// last, so popping is `Vec::pop`. A level-0 slot expires by swapping
    /// its sorted buffer in (`ready` is empty then), so no entry is
    /// copied on the way out.
    ready: Vec<Entry<E>>,
    /// Entries currently filed in `levels` (not `ready`/`overflow`).
    in_wheel: usize,
    seq: u64,
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel with the default 1 ms tick.
    pub fn new() -> Self {
        TimerWheel::with_tick(1e-3)
    }

    /// An empty wheel with `tick` seconds per level-0 slot.
    ///
    /// # Panics
    ///
    /// Panics unless `tick` is finite and positive.
    pub fn with_tick(tick: f64) -> Self {
        assert!(
            tick.is_finite() && tick > 0.0,
            "wheel tick must be finite and positive"
        );
        TimerWheel {
            tick,
            cursor: 0,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            ready: Vec::new(),
            in_wheel: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            for slot in level {
                slot.clear();
            }
        }
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.ready.clear();
        self.in_wheel = 0;
        self.len = 0;
    }

    fn tick_of(&self, time: f64) -> u64 {
        tick_of(self.tick, time)
    }

    /// Schedules `event` at absolute simulation time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.file(Entry { time, seq, event });
    }

    /// Files an entry into `ready`, a wheel slot, or `overflow`.
    fn file(&mut self, entry: Entry<E>) {
        let t = self.tick_of(entry.time);
        if t < self.cursor {
            // Its tick already expired (same-instant reschedule or a
            // past-time push): join the ready run in reverse (time, seq)
            // order, behind every entry that pops after it.
            let pos = self.ready.partition_point(|e| entry.before(e));
            self.ready.insert(pos, entry);
            return;
        }
        for lvl in 0..LEVELS {
            // Level `lvl` is right when t shares the cursor's
            // level-(lvl+1) slot, i.e. it falls in the current window.
            if (t ^ self.cursor) >> (BITS * (lvl as u32 + 1)) == 0 {
                let slot = ((t >> (BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
                self.levels[lvl][slot].push(entry);
                self.occupied[lvl] |= 1 << slot;
                self.in_wheel += 1;
                return;
            }
        }
        self.overflow_min = self.overflow_min.min(t);
        self.overflow.push(entry);
    }

    /// First due slot of `lvl` at or after the cursor, as
    /// `(slot start tick, absolute slot coordinate)`.
    ///
    /// An unexpired level-`l` entry always shares the cursor's
    /// level-`l+1` slot (true at filing by construction, and preserved
    /// because the cursor is clamped to never pass a pending entry), so
    /// the occupancy bits of the aligned 64-slot window from the cursor's
    /// own slot up cover every entry of the level.
    fn first_due(&self, lvl: usize) -> Option<(u64, u64)> {
        let shift = BITS * lvl as u32;
        let wstart = self.cursor >> shift;
        let from = wstart & (SLOTS as u64 - 1);
        let due = self.occupied[lvl] & (u64::MAX << from);
        if due == 0 {
            return None;
        }
        let s = (wstart - from) + u64::from(due.trailing_zeros());
        Some((s << shift, s))
    }

    /// Moves the cursor forward until `ready` holds the next run of
    /// expired entries. Returns false when the wheel is empty.
    fn advance(&mut self) -> bool {
        if !self.ready.is_empty() {
            return true;
        }
        loop {
            if self.in_wheel == 0 && !self.overflow.is_empty() {
                // Everything pending is beyond the horizon: jump there.
                debug_assert!(self.overflow_min >= self.cursor);
                self.cursor = self.overflow_min;
            }
            if self.cursor >> TOP_SHIFT >= self.overflow_min >> TOP_SHIFT {
                // The cursor is inside the earliest overflow window —
                // by the jump above, or by stepping off the end of the
                // previous window while newer pushes keep the wheel
                // occupied. Re-file before anything later can expire
                // (entries of that window land in the wheel; the
                // still-too-far remainder overflows again).
                self.overflow_min = u64::MAX;
                for e in std::mem::take(&mut self.overflow) {
                    self.file(e);
                }
            }
            if self.in_wheel == 0 {
                return false;
            }
            // The earliest pending entry is bounded below by the start
            // of each level's first due slot; the true minimum is in
            // the level whose bound is smallest. On ties the coarser
            // level must cascade first — its entries can fall anywhere
            // inside the finer slot, including before its entries.
            let mut best: Option<(u64, usize, u64)> = None;
            for lvl in 0..LEVELS {
                if let Some((start, s)) = self.first_due(lvl) {
                    if best.is_none_or(|(bs, _, _)| start <= bs) {
                        best = Some((start, lvl, s));
                    }
                }
            }
            let (start, lvl, s) = best.expect("in_wheel > 0 ⇒ some level has a due slot");
            let shift = BITS * lvl as u32;
            let slot = (s & (SLOTS as u64 - 1)) as usize;
            self.occupied[lvl] &= !(1 << slot);
            // Entering the slot: the cursor moves to its start (never
            // past any pending entry — all ticks in the slot are ≥ it).
            self.cursor = self.cursor.max(start);
            if lvl == 0 {
                // A level-0 slot is a single tick: expire it, latest
                // first (`seq` is unique, so an unstable sort is exact).
                // The slot takes the empty `ready` buffer for its next
                // lap.
                debug_assert!(self.ready.is_empty());
                let due = &mut self.levels[0][slot];
                self.in_wheel -= due.len();
                due.sort_unstable_by(|a, b| {
                    b.time
                        .partial_cmp(&a.time)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| b.seq.cmp(&a.seq))
                });
                std::mem::swap(&mut self.ready, due);
                self.cursor = start + 1;
                return true;
            }
            let due = std::mem::take(&mut self.levels[lvl][slot]);
            self.in_wheel -= due.len();
            // Cascade: each entry shares slot `s`, so with the cursor
            // now inside that slot it re-files at a strictly lower
            // level — the loop always makes progress.
            for e in due {
                debug_assert_eq!(self.tick_of(e.time) >> shift, s);
                self.file(e);
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if !self.advance() {
            return None;
        }
        let e = self.ready.pop().expect("advance filled ready");
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// Time of the earliest pending event without removing it.
    ///
    /// Takes `&mut self` (unlike the heap's `peek_time`) because
    /// peeking may rotate wheel internals to find the next entry.
    pub fn peek_time(&mut self) -> Option<f64> {
        if !self.advance() {
            return None;
        }
        self.ready.last().map(|e| e.time)
    }
}

impl<E> std::fmt::Debug for TimerWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut w = TimerWheel::new();
        w.push(3.0, 3);
        w.push(1.0, 1);
        w.push(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_equal_times() {
        let mut w = TimerWheel::new();
        for i in 0..100 {
            w.push(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sub_tick_times_order_exactly() {
        // Distinct times within the same 1 ms tick must still order by
        // their exact f64 values.
        let mut w = TimerWheel::new();
        w.push(1.0004, "d");
        w.push(1.0001, "a");
        w.push(1.0003, "c");
        w.push(1.0002, "b");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimerWheel::new();
        w.push(10.0, 10);
        w.push(1.0, 1);
        assert_eq!(w.pop(), Some((1.0, 1)));
        // Pushes behind the cursor (times already expired) still pop
        // before later events, in time order.
        w.push(0.5, 0);
        w.push(5.0, 5);
        assert_eq!(w.pop(), Some((0.5, 0)));
        assert_eq!(w.pop(), Some((5.0, 5)));
        assert_eq!(w.pop(), Some((10.0, 10)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut w = TimerWheel::new();
        // Beyond the 64^4 ms ≈ 4.7 h horizon.
        w.push(100_000.0, "far");
        w.push(1.0, "near");
        assert_eq!(w.pop(), Some((1.0, "near")));
        assert_eq!(w.pop(), Some((100_000.0, "far")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_and_len() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        w.push(1.5, ());
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_time(), Some(1.5));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn negative_and_zero_times_share_tick_zero() {
        let mut w = TimerWheel::new();
        w.push(0.0, "z");
        w.push(-1.0, "n");
        assert_eq!(w.pop(), Some((-1.0, "n")));
        assert_eq!(w.pop(), Some((0.0, "z")));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_time() {
        let mut w = TimerWheel::new();
        w.push(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "tick")]
    fn rejects_bad_tick() {
        let _ = TimerWheel::<()>::with_tick(0.0);
    }
}
