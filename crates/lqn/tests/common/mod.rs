//! Shared by the solver suites: seeded randomness and the Sock Shop
//! model under random decisions on the controller's actuation lattice.

#![allow(dead_code)] // each suite uses its own part

use atom_lqn::{from_lqn_text, DecisionVector, LqnModel, TaskId};

/// xorshift64*.
pub struct Rng(pub u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi / lo).ln()).exp()
    }
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Think time of the shipped Sock Shop model.
pub const THINK_TIME: f64 = 7.0;

/// Populations × request mixes (home, catalogue, carts) of the sample.
pub const POPULATIONS: [usize; 6] = [500, 1000, 1500, 2000, 3000, 4000];
pub const MIXES: [[f64; 3]; 3] = [[0.57, 0.29, 0.14], [0.45, 0.25, 0.30], [0.33, 0.17, 0.50]];

/// Per task of `assets/sockshop.lqn`: `(max replicas, min share index,
/// max share index)` — the bounds `atom-sockshop` gives the controller.
const LATTICE: [(usize, usize, usize); 6] = [
    (1, 2, 80),
    (8, 1, 20),
    (8, 1, 20),
    (8, 1, 20),
    (1, 2, 80),
    (1, 2, 80),
];

/// The shipped Sock Shop model at `users` users on `mix`.
pub fn sockshop(users: usize, mix: &[f64; 3]) -> LqnModel {
    let mut m = from_lqn_text(include_str!("../../../../assets/sockshop.lqn")).unwrap();
    let c = m.the_reference_task().unwrap();
    m.set_population(c, users).unwrap();
    let ce = m.reference_entry(c).unwrap();
    let routes = [
        "router.route-home",
        "router.route-catalogue",
        "router.route-carts",
    ];
    for (route, share) in routes.iter().zip(mix) {
        m.set_call_mean(ce, m.entry_by_name(route).unwrap(), *share)
            .unwrap();
    }
    m
}

/// Applies a uniformly random lattice decision to a [`sockshop`] model.
pub fn apply_random_decision(rng: &mut Rng, model: &mut LqnModel) {
    let mut d = DecisionVector::new();
    for (t, &(max_replicas, lo, hi)) in LATTICE.iter().enumerate() {
        d.set(TaskId(t), rng.range(1, max_replicas), rng.range(lo, hi));
    }
    d.apply(model).unwrap();
}
