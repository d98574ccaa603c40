//! The per-user DES backend: one think timer per closed-workload user.
//!
//! This is the monolithic runtime's population behaviour extracted
//! verbatim — same RNG draw order, same event schedule (the digests of
//! `tests/pin_per_user.rs` pin both).

use atom_sim::TimeWeighted;
use atom_workload::burstiness::Mmpp2;

use super::PopCtx;
use crate::event::{idx32, Event};

/// One discrete user per population slot, one bit per slot. Slots of
/// retired users are reused, lowest first, so the bitset stays as small
/// as the peak population: 125 KB at a million users.
#[derive(Clone)]
pub(crate) struct PerUserDes {
    /// Bit `u % 64` of word `u / 64` is set while user slot `u` is alive.
    /// Bits past the highest slot ever used are clear.
    alive_bits: Vec<u64>,
    /// No slot below this is dead: the lowest dead slot, or the first
    /// never-used one, is at or above it. Spawning scans from here, so a
    /// million-user spawn stays linear.
    dead_hint: usize,
    alive: usize,
    users_tw: TimeWeighted,
    /// MMPP-2 think-rate modulation, when the workload is bursty.
    mmpp: Option<Mmpp2>,
    /// The tenant every scheduled `UserReady` names.
    tenant: u16,
}

impl PerUserDes {
    pub(crate) fn new(mmpp: Option<Mmpp2>, tenant: u16) -> Self {
        PerUserDes {
            alive_bits: Vec::new(),
            dead_hint: 0,
            alive: 0,
            users_tw: TimeWeighted::new(0.0, 0.0),
            mmpp,
            tenant,
        }
    }

    /// Restores window continuity when the hybrid policy hands the
    /// population over mid-window.
    pub(crate) fn adopt(&mut self, users_tw: TimeWeighted) {
        self.users_tw = users_tw;
    }

    /// The population integral, for handing over to the other backend.
    pub(crate) fn users_tw(&self) -> TimeWeighted {
        self.users_tw
    }

    fn alive_count(&self) -> usize {
        self.alive
    }

    /// Marks the lowest dead slot alive — a retired user's, else the
    /// first never used — and returns it.
    fn claim_slot(&mut self) -> usize {
        let mut w = self.dead_hint / 64;
        let mut from = u64::MAX << (self.dead_hint % 64);
        loop {
            if w == self.alive_bits.len() {
                self.alive_bits.push(0);
            }
            let dead = !self.alive_bits[w] & from;
            if dead != 0 {
                let slot = w * 64 + dead.trailing_zeros() as usize;
                self.alive_bits[w] |= 1 << (slot % 64);
                self.dead_hint = slot + 1;
                return slot;
            }
            w += 1;
            from = u64::MAX;
        }
    }

    /// Retires the `count` highest-indexed alive users.
    fn retire_top(&mut self, mut count: usize) {
        for w in (0..self.alive_bits.len()).rev() {
            while count > 0 && self.alive_bits[w] != 0 {
                let bit = 63 - self.alive_bits[w].leading_zeros() as usize;
                self.alive_bits[w] &= !(1 << bit);
                self.dead_hint = self.dead_hint.min(w * 64 + bit);
                count -= 1;
            }
            if count == 0 {
                return;
            }
        }
    }

    fn sample_think(&mut self, ctx: &mut PopCtx<'_>) -> f64 {
        let base = ctx.workload.think_time;
        let mean = match &mut self.mmpp {
            Some(m) => base / m.advance(ctx.engine.now, ctx.rng).max(1e-9),
            None => base,
        };
        ctx.rng.exponential(mean.max(1e-12))
    }

    /// Draws a think time and schedules `user`'s next request — the one
    /// place a user re-enters the calendar (both the spawn path and the
    /// request-completion path go through here).
    fn schedule_next_arrival(&mut self, ctx: &mut PopCtx<'_>, user: u32) {
        let think = self.sample_think(ctx);
        ctx.engine.push(
            ctx.engine.now + think,
            Event::UserReady {
                tenant: self.tenant,
                user,
            },
        );
    }
}

/// The population-plane entry points (see [`super::Backend`]).
impl PerUserDes {
    pub(crate) fn set_population(&mut self, ctx: &mut PopCtx<'_>, population: usize) {
        let alive = self.alive_count();
        if population > alive {
            for _ in 0..(population - alive) {
                let user = idx32(self.claim_slot());
                self.alive += 1;
                self.schedule_next_arrival(ctx, user);
            }
        } else if population < alive {
            // Retire the highest-indexed alive users; they stop at their
            // next cycle boundary (their pending events are ignored).
            self.retire_top(alive - population);
            self.alive = population;
        }
        self.users_tw
            .update(ctx.engine.now, self.alive_count() as f64);
    }

    pub(crate) fn user_live(&self, user: u32) -> bool {
        let u = user as usize;
        self.alive_bits
            .get(u / 64)
            .is_some_and(|bits| bits >> (u % 64) & 1 == 1)
    }

    pub(crate) fn request_complete(&mut self, ctx: &mut PopCtx<'_>, user: u32) {
        if self.user_live(user) {
            self.schedule_next_arrival(ctx, user);
        } else {
            self.users_tw
                .update(ctx.engine.now, self.alive_count() as f64);
        }
    }

    pub(crate) fn users_at_end(&self) -> usize {
        self.alive_count()
    }

    pub(crate) fn window_users(&mut self, end: f64) -> f64 {
        let avg = self.users_tw.average(end);
        self.users_tw.update(end, self.users_tw.current());
        self.users_tw.reset(end);
        avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_sim::{Due, Engine, SimRng};
    use atom_workload::{RequestMix, WorkloadSpec};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The slot assignment this backend made before its bitset, verbatim:
    /// a `bool` per slot and an ordered set of dead slots. The bit-for-bit
    /// reference for `claim_slot` and `retire_top`.
    #[derive(Default)]
    struct Oracle {
        users_alive: Vec<bool>,
        dead_slots: BTreeSet<usize>,
        alive: usize,
    }

    impl Oracle {
        /// Moves to `population` users; returns the slots spawned, in
        /// spawn order.
        fn set_population(&mut self, population: usize) -> Vec<usize> {
            let mut spawned = Vec::new();
            let alive = self.alive;
            if population > alive {
                for _ in 0..(population - alive) {
                    let user = match self.dead_slots.pop_first() {
                        Some(u) => {
                            self.users_alive[u] = true;
                            u
                        }
                        None => {
                            self.users_alive.push(true);
                            self.users_alive.len() - 1
                        }
                    };
                    self.alive += 1;
                    spawned.push(user);
                }
            } else if population < alive {
                let mut to_remove = alive - population;
                for u in (0..self.users_alive.len()).rev() {
                    if to_remove == 0 {
                        break;
                    }
                    if self.users_alive[u] {
                        self.users_alive[u] = false;
                        self.dead_slots.insert(u);
                        self.alive -= 1;
                        to_remove -= 1;
                    }
                }
            }
            spawned
        }
    }

    /// Target populations that land on, just before and just past 64-bit
    /// word boundaries as often as anywhere else.
    fn population() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..320,
            (1usize..5).prop_map(|k| 64 * k - 1),
            (1usize..5).prop_map(|k| 64 * k),
            (1usize..5).prop_map(|k| 64 * k + 1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every `set_population` schedules the oracle's slots, in the
        /// oracle's order (the k-th think-time draw goes to the k-th slot
        /// spawned), and leaves the same slots alive.
        #[test]
        fn slot_assignment_matches_the_bool_and_btree_oracle(
            targets in proptest::collection::vec(population(), 1..40),
            seed in 0u64..1000,
        ) {
            let workload = WorkloadSpec::constant(RequestMix::uniform(1), 0, 5.0);
            let mut engine: Engine<Event> = Engine::new(0);
            let mut rng = SimRng::seed_from(seed);
            let mut des = PerUserDes::new(None, 3);
            let mut oracle = Oracle::default();
            for (step, &target) in targets.iter().enumerate() {
                engine.now = step as f64 * 100.0;
                let mut draws = rng.clone();
                let mut ctx = PopCtx {
                    engine: &mut engine,
                    rng: &mut rng,
                    workload: &workload,
                };
                des.set_population(&mut ctx, target);
                let mut want: Vec<(f64, u32)> = oracle
                    .set_population(target)
                    .into_iter()
                    .map(|u| (step as f64 * 100.0 + draws.exponential(5.0), idx32(u)))
                    .collect();
                want.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut got = Vec::new();
                while let Some((t, due)) = engine.pop_due(f64::INFINITY) {
                    let Due::Timer(Event::UserReady { tenant: 3, user }) = due else {
                        panic!("only user timers are scheduled: {due:?}");
                    };
                    got.push((t, user));
                }
                prop_assert_eq!(got, want, "step {}", step);
                prop_assert_eq!(des.users_at_end(), oracle.alive);
                for u in 0..oracle.users_alive.len() + 70 {
                    let live = oracle.users_alive.get(u).copied().unwrap_or(false);
                    prop_assert_eq!(des.user_live(idx32(u)), live, "slot {}", u);
                }
            }
        }
    }
}
