//! The per-user DES backend: one think timer per closed-workload user.
//!
//! This is the monolithic runtime's population behaviour extracted
//! verbatim — same RNG draw order, same event schedule (the digests of
//! `tests/pin_per_user.rs` pin both).

use atom_sim::TimeWeighted;
use atom_workload::burstiness::Mmpp2;

use super::PopCtx;
use crate::event::Event;

/// One discrete user per population slot. Slots of retired users are
/// reused so the `Vec` stays as small as the peak population.
pub(crate) struct PerUserDes {
    users_alive: Vec<bool>,
    /// Dead slots, ordered — `first()` is the slot a linear scan of
    /// `users_alive` would find, so spawning stays O(log n) per user
    /// (a million-user spawn is otherwise quadratic) while assigning
    /// bitwise-identical user ids.
    dead_slots: std::collections::BTreeSet<usize>,
    alive: usize,
    users_tw: TimeWeighted,
    /// MMPP-2 think-rate modulation, when the workload is bursty.
    mmpp: Option<Mmpp2>,
    /// Tenant tag OR-ed into every scheduled user id (see
    /// `runtime::TENANT_SHIFT`). Zero for tenant 0, so single-tenant
    /// event streams are bitwise-identical to the pre-tenancy runtime.
    user_base: usize,
}

impl PerUserDes {
    pub fn new(mmpp: Option<Mmpp2>, user_base: usize) -> Self {
        PerUserDes {
            users_alive: Vec::new(),
            dead_slots: std::collections::BTreeSet::new(),
            alive: 0,
            users_tw: TimeWeighted::new(0.0, 0.0),
            mmpp,
            user_base,
        }
    }

    /// Restores window continuity when the hybrid policy hands the
    /// population over mid-window.
    pub fn adopt(&mut self, users_tw: TimeWeighted) {
        self.users_tw = users_tw;
    }

    /// The population integral, for handing over to the other backend.
    pub fn users_tw(&self) -> TimeWeighted {
        self.users_tw
    }

    fn alive_count(&self) -> usize {
        self.alive
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
    fn schedule_next_arrival(&mut self, ctx: &mut PopCtx<'_>, user: usize) {
        let think = self.sample_think(ctx);
        ctx.engine.push(
            ctx.engine.now + think,
            Event::UserReady {
                user: self.user_base | user,
            },
        );
    }
}

/// The population-plane entry points (see [`super::Backend`]).
impl PerUserDes {
    pub fn set_population(&mut self, ctx: &mut PopCtx<'_>, population: usize) {
        let alive = self.alive_count();
        if population > alive {
            for _ in 0..(population - alive) {
                // Reuse the lowest dead slot or create a new user.
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
                self.schedule_next_arrival(ctx, user);
            }
        } else if population < alive {
            // Retire the highest-indexed alive users; they stop at their
            // next cycle boundary (their pending events are ignored).
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
        self.users_tw
            .update(ctx.engine.now, self.alive_count() as f64);
    }

    pub fn user_live(&self, user: usize) -> bool {
        self.users_alive.get(user).copied().unwrap_or(false)
    }

    pub fn request_complete(&mut self, ctx: &mut PopCtx<'_>, user: usize) {
        if self.user_live(user) {
            self.schedule_next_arrival(ctx, user);
        } else {
            self.users_tw
                .update(ctx.engine.now, self.alive_count() as f64);
        }
    }

    pub fn users_at_end(&self) -> usize {
        self.alive_count()
    }

    pub fn window_users(&mut self, end: f64) -> f64 {
        let avg = self.users_tw.average(end);
        self.users_tw.update(end, self.users_tw.current());
        self.users_tw.reset(end);
        avg
    }
}
