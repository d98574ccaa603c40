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
//! and then by insertion order, so the pop order is *identical* to the
//! heap — a property the simulators' bitwise-reproducibility pins rely on
//! and `tests/wheel_equivalence.rs` checks against randomised schedules.
//!
//! A level-0 slot is a `Vec`, sorted in place when it expires. A slot of
//! levels 1–3 is a list of fixed-size *chunks* (`CHUNK` entries each)
//! drawn from one pool the wheel owns: filing appends to the slot's tail
//! chunk, and a cascade hands each chunk back to the pool as it takes the
//! chunk's entries out, so the refiling they feed reuses that chunk.
//! Chunks are allocated once and recycled, so the upper levels hold about
//! one chunk per `CHUNK` pending entries — no `Vec` doubling slack, no
//! buffer kept at its high-water mark, no allocation per lap.
//!
//! An entry is its time and its event, 16 bytes for an 8-byte event: it
//! carries no insertion sequence. Insertion order comes from *position*:
//! every level-0 slot, every chunk list (its chunks linked head to tail
//! in push order) and the overflow list hold their entries in push
//! order, and the ready run holds its entries in exact reverse pop
//! order. Three rules keep it so:
//!
//! * a level-0 slot expires by a *stable* sort on time (equal times keep
//!   push order), reversed into the ready run;
//! * a push behind the cursor joins the ready run in front of every entry
//!   whose time is `<=` its own, all of which were pushed before it;
//! * a cascade re-files a slot's entries, in order, chunk by chunk, into
//!   slots that hold nothing yet. A level-0 expiry that steps the cursor
//!   onto a 64-tick boundary would break that: the slot it enters a level up
//!   (or the overflow list, at a top-level window) still holds entries,
//!   and a push before the next cascade would land ahead of them. So
//!   that step cascades those slots at once, coarsest first.
//!
//! No division is on this path: a time's tick is a multiplication by the
//! stored `1 / tick` (monotone, so a time can move to a neighbouring tick
//! at an exact boundary but the pop order cannot change), and the
//! level-0 sort compares integer keys (`time_key`).

/// Slots per level (a power of two; the slot index is a bit-field of the
/// tick).
const SLOTS: usize = 64;
/// Bits per level (`log2(SLOTS)`).
const BITS: u32 = 6;
/// Entries per chunk of a level-1–3 slot (1 KB of 16-byte entries).
const CHUNK: usize = 64;
/// The end of a chunk list.
const NIL: usize = usize::MAX;
/// Number of wheel levels. Four levels at a 1 ms tick give a ~4.7 h
/// horizon; later events overflow (and re-enter when the horizon moves).
const LEVELS: usize = 4;
/// Bits of a tick below its top-level window index.
const TOP_SHIFT: u32 = BITS * LEVELS as u32;

/// Level-0 tick index of an absolute time, given ticks per second (times
/// at or before zero all share tick 0; enormous times saturate —
/// ordering within a shared bucket is still exact, by `f64` time).
fn tick_of(per_tick: f64, time: f64) -> u64 {
    if time <= 0.0 {
        0
    } else {
        (time * per_tick) as u64
    }
}

/// A time's sort key: its `f64` bits mapped to an unsigned integer of the
/// same order, with `-0.0` folded into `0.0` (`-0.0 + 0.0` is `0.0`) so
/// that signed zeros tie, as they do under `partial_cmp`. Times are never
/// NaN.
fn time_key(time: f64) -> u64 {
    let bits = (time + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

#[derive(Clone)]
struct Entry<E> {
    time: f64,
    event: E,
}

// Eight bytes of bookkeeping per entry: an 8-byte payload (what the
// cluster's calendar carries) makes a 16-byte entry, four to a cache line.
const _: () = assert!(std::mem::size_of::<Entry<u64>>() == 16);
const _: () = assert!(std::mem::size_of::<Entry<[u64; 2]>>() == 24);

/// A level-1–3 slot: its chunks, `head` to `tail` in push order (`NIL`
/// when it holds nothing).
#[derive(Clone, Copy)]
struct ChunkList {
    head: usize,
    tail: usize,
}

impl ChunkList {
    const EMPTY: ChunkList = ChunkList {
        head: NIL,
        tail: NIL,
    };
}

/// Up to `CHUNK` entries of one slot, in push order.
#[derive(Clone)]
struct Chunk<E> {
    /// Capacity `CHUNK`, allocated once.
    entries: Vec<Entry<E>>,
    /// The chunk after this one in its slot's list or in the free list.
    next: usize,
}

/// The chunks every level-1–3 slot draws from. A chunk is allocated once
/// and then recycled through the free list; only the last chunk of a
/// list is ever partly filled.
#[derive(Clone)]
struct ChunkPool<E> {
    chunks: Vec<Chunk<E>>,
    /// Head of the free list.
    free: usize,
    /// An empty buffer of capacity `CHUNK` that a cascade trades for each
    /// chunk it drains, so the chunk is free (and empty) while its entries
    /// are re-filed.
    spare: Vec<Entry<E>>,
}

impl<E> ChunkPool<E> {
    fn new() -> Self {
        ChunkPool {
            chunks: Vec::new(),
            free: NIL,
            spare: Vec::with_capacity(CHUNK),
        }
    }

    /// Appends `entry` to `list`, linking a free chunk (or a new one, when
    /// none is free) behind a full tail.
    fn push(&mut self, list: &mut ChunkList, entry: Entry<E>) {
        if list.tail == NIL || self.chunks[list.tail].entries.len() == CHUNK {
            let c = if self.free == NIL {
                self.chunks.push(Chunk {
                    entries: Vec::with_capacity(CHUNK),
                    next: NIL,
                });
                self.chunks.len() - 1
            } else {
                let c = self.free;
                self.free = std::mem::replace(&mut self.chunks[c].next, NIL);
                c
            };
            match list.tail {
                NIL => list.head = c,
                tail => self.chunks[tail].next = c,
            }
            list.tail = c;
        }
        self.chunks[list.tail].entries.push(entry);
    }

    /// Puts the empty chunk `c` on the free list; returns the chunk that
    /// followed it in its slot's list.
    fn release(&mut self, c: usize) -> usize {
        debug_assert!(self.chunks[c].entries.is_empty());
        let next = std::mem::replace(&mut self.chunks[c].next, self.free);
        self.free = c;
        next
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
#[derive(Clone)]
pub struct TimerWheel<E> {
    /// Level-0 ticks per second (`1 / tick`).
    per_tick: f64,
    /// Next level-0 tick to expire; only ever advances.
    cursor: u64,
    /// `level0[s]` holds the entries whose tick hashes to level-0 slot
    /// `s`, in push order.
    level0: Vec<Vec<Entry<E>>>,
    /// `upper[l - 1][s]` lists the chunks of level-`l` slot `s`.
    upper: Vec<[ChunkList; SLOTS]>,
    /// The chunks behind `upper`.
    pool: ChunkPool<E>,
    /// Bit `s` of `occupied[l]` is set iff slot `s` of level `l` is
    /// non-empty.
    occupied: [u64; LEVELS],
    /// Entries beyond the top-level horizon at insertion time, in push
    /// order.
    overflow: Vec<Entry<E>>,
    /// Smallest tick in `overflow` (`u64::MAX` when it is empty): the
    /// cursor entering this tick's top-level window re-files the list.
    overflow_min: u64,
    /// Expired entries in *reverse* pop order: the next to pop is the
    /// last, so popping is `Vec::pop`. A level-0 slot expires by swapping
    /// its sorted buffer in (`ready` is empty then), so no entry is
    /// copied on the way out.
    ready: Vec<Entry<E>>,
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
            per_tick: 1.0 / tick,
            cursor: 0,
            level0: (0..SLOTS).map(|_| Vec::new()).collect(),
            upper: vec![[ChunkList::EMPTY; SLOTS]; LEVELS - 1],
            pool: ChunkPool::new(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            ready: Vec::new(),
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

    /// Removes all pending events. Every chunk goes back to the pool.
    pub fn clear(&mut self) {
        for slot in &mut self.level0 {
            slot.clear();
        }
        for list in self.upper.iter_mut().flatten() {
            let mut c = std::mem::replace(list, ChunkList::EMPTY).head;
            while c != NIL {
                self.pool.chunks[c].entries.clear();
                c = self.pool.release(c);
            }
        }
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.ready.clear();
        self.len = 0;
    }

    fn tick_of(&self, time: f64) -> u64 {
        tick_of(self.per_tick, time)
    }

    /// Schedules `event` at absolute simulation time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.len += 1;
        self.file(Entry { time, event });
    }

    /// Files an entry into `ready`, a wheel slot, or `overflow`.
    fn file(&mut self, entry: Entry<E>) {
        let t = self.tick_of(entry.time);
        if t < self.cursor {
            // Its tick already expired (same-instant reschedule or a
            // past-time push): join the ready run behind every entry
            // that pops after it, ahead of the earlier-pushed ties.
            let pos = self.ready.partition_point(|e| e.time > entry.time);
            self.ready.insert(pos, entry);
            return;
        }
        for lvl in 0..LEVELS {
            // Level `lvl` is right when t shares the cursor's
            // level-(lvl+1) slot, i.e. it falls in the current window.
            if (t ^ self.cursor) >> (BITS * (lvl as u32 + 1)) == 0 {
                let slot = ((t >> (BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
                if lvl == 0 {
                    self.level0[slot].push(entry);
                } else {
                    self.pool.push(&mut self.upper[lvl - 1][slot], entry);
                }
                self.occupied[lvl] |= 1 << slot;
                return;
            }
        }
        self.overflow_min = self.overflow_min.min(t);
        self.overflow.push(entry);
    }

    /// Re-files the overflow list, in push order: entries of the
    /// cursor's top-level window land in the wheel, the still-too-far
    /// remainder overflows again.
    fn refile_overflow(&mut self) {
        self.overflow_min = u64::MAX;
        for e in std::mem::take(&mut self.overflow) {
            self.file(e);
        }
    }

    /// Empties the level-`lvl` slot (`lvl >= 1`) at absolute coordinate
    /// `s`, which holds the cursor, into the levels below, chunk by chunk
    /// in push order. Each entry shares slot `s`, so it re-files at a
    /// strictly lower level. A chunk is free again before its entries are
    /// re-filed: it takes the empty spare buffer, and its entries become
    /// the next spare once drained.
    fn cascade(&mut self, lvl: usize, s: u64) {
        let slot = (s & (SLOTS as u64 - 1)) as usize;
        self.occupied[lvl] &= !(1 << slot);
        let mut c = std::mem::replace(&mut self.upper[lvl - 1][slot], ChunkList::EMPTY).head;
        let mut due = std::mem::take(&mut self.pool.spare);
        while c != NIL {
            std::mem::swap(&mut due, &mut self.pool.chunks[c].entries);
            c = self.pool.release(c);
            for e in due.drain(..) {
                debug_assert_eq!(self.tick_of(e.time) >> (BITS * lvl as u32), s);
                self.file(e);
            }
        }
        self.pool.spare = due;
    }

    /// The cursor just stepped onto a multiple of `SLOTS` ticks: re-file
    /// the overflow list if this starts its top-level window, then
    /// cascade, coarsest first, every level's slot that starts here. Done
    /// at the step, not at the next `advance`, so that no push in
    /// between lands ahead of their older entries.
    fn enter_boundary(&mut self) {
        if self.cursor >> TOP_SHIFT >= self.overflow_min >> TOP_SHIFT {
            self.refile_overflow();
        }
        for lvl in (1..LEVELS).rev() {
            let shift = BITS * lvl as u32;
            if self.cursor & ((1 << shift) - 1) != 0 {
                continue;
            }
            let s = self.cursor >> shift;
            if self.occupied[lvl] & (1 << (s & (SLOTS as u64 - 1))) != 0 {
                self.cascade(lvl, s);
            }
        }
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
    /// expired entries; leaves it empty only when nothing is pending.
    fn advance(&mut self) {
        while self.ready.is_empty() {
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
            let Some((start, lvl, s)) = best else {
                // No level has a due slot, so the wheel holds nothing
                // (`first_due` sees every filed entry): whatever is
                // pending is beyond the horizon. Jump there and re-file
                // (the earliest entry lands in the wheel).
                debug_assert_eq!(self.occupied, [0; LEVELS]);
                if self.overflow.is_empty() {
                    debug_assert_eq!(self.len, 0, "an entry is lost outside the wheel");
                    return;
                }
                debug_assert!(self.overflow_min >= self.cursor);
                self.cursor = self.overflow_min;
                self.refile_overflow();
                continue;
            };
            // Entering the slot: the cursor moves to its start (never
            // past any pending entry — all ticks in the slot are ≥ it).
            self.cursor = self.cursor.max(start);
            if lvl > 0 {
                self.cascade(lvl, s);
                continue;
            }
            // A level-0 slot is a single tick: expire it. Its buffer is
            // in push order, so a stable sort on time is the heap's
            // `(time, insertion)` order; reversed, the first due is
            // last. The slot takes the empty `ready` buffer for its next
            // lap.
            let slot = (s & (SLOTS as u64 - 1)) as usize;
            self.occupied[0] &= !(1 << slot);
            let due = &mut self.level0[slot];
            due.sort_by_key(|e| time_key(e.time));
            due.reverse();
            std::mem::swap(&mut self.ready, due);
            self.cursor = start + 1;
            if self.cursor & (SLOTS as u64 - 1) == 0 {
                self.enter_boundary();
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.advance();
        let e = self.ready.pop()?;
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// Time of the earliest pending event without removing it.
    ///
    /// Takes `&mut self` (unlike the heap's `peek_time`) because
    /// peeking may rotate wheel internals to find the next entry.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.advance();
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
    use crate::random::SimRng;
    use std::collections::VecDeque;

    /// Chunks on the pool's free list.
    fn free_chunks<E>(w: &TimerWheel<E>) -> usize {
        let mut n = 0;
        let mut c = w.pool.free;
        while c != NIL {
            n += 1;
            c = w.pool.chunks[c].next;
        }
        n
    }

    #[test]
    fn a_hold_model_recycles_every_chunk() {
        // Pop one, push it again one lap later: PENDING entries stay
        // pending. A lap is one level-3 slot (2^18 ticks) and every time
        // is a dyadic rational, so each lap after the first files exactly
        // the layout of the one before, one slot on. The pool must stop
        // growing after the first lap: a drained chunk that is dropped
        // instead of recycled costs a new one every lap.
        const PENDING: usize = 20_000;
        const TICK: f64 = 1.0 / 1024.0;
        let lap = TICK * (1u64 << 18) as f64;
        let mut rng = SimRng::seed_from(3);
        let mut times: Vec<f64> = (0..PENDING)
            .map(|_| (rng.uniform() * (1u64 << 28) as f64).floor() / (1u64 << 20) as f64)
            .collect();
        times.sort_by(f64::total_cmp);
        let mut pending = VecDeque::from(times);
        let mut w = TimerWheel::with_tick(TICK);
        for &t in &pending {
            w.push(t, ());
        }
        let mut chunks = Vec::new();
        for _ in 0..8 {
            for _ in 0..PENDING {
                let t = pending.pop_front().unwrap();
                assert_eq!(w.pop(), Some((t, ())));
                w.push(t + lap, ());
                pending.push_back(t + lap);
            }
            chunks.push(w.pool.chunks.len());
        }
        assert!(chunks[0] > PENDING / CHUNK, "{chunks:?}");
        assert!(chunks[1..].iter().all(|&n| n == chunks[1]), "{chunks:?}");

        // Cleared, every chunk is free; the same entries filed again take
        // no new chunk, and drained, they give every chunk back.
        w.clear();
        assert_eq!(free_chunks(&w), chunks[1]);
        for &t in &pending {
            w.push(t, ());
        }
        assert_eq!(w.pool.chunks.len(), chunks[1]);
        for t in pending {
            assert_eq!(w.pop(), Some((t, ())));
        }
        assert_eq!(w.pop(), None);
        assert_eq!(free_chunks(&w), chunks[1]);
    }

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
