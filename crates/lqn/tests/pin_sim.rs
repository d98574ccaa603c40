//! Bitwise pins for the LQN simulator (`atom_lqn::sim`).
//!
//! Each case simulates one model under one seed and folds every field of
//! the resulting `LqnSolution` — f64s by their exact bit patterns — into
//! an FNV-1a digest. Any change to RNG draw order, event order, processor
//! arithmetic or the measurement window shows up here, so a refactor that
//! claims to change no run proves it by leaving every digest alone.
//!
//! The models between them cover deterministic, lognormal and
//! exponential demands (`demand_cv` 0, 0.5 and 1), replicated tasks,
//! pure latency stages, zero-demand entries, fractional call means and
//! more than one server processor.
//!
//! History: captured on the simulator's own binary-heap calendar, then
//! re-captured once, when the statistics restart moved to exactly
//! `SimOptions::warmup` (it had been the first event popped at or after
//! it, often a stale processor check) and stopped advancing the
//! processors' clocks to read their busy integrals. Every digest moved
//! with that; none moved when the simulator left its heap for
//! `atom_sim::Engine` and `atom_sim::ProcessorTable`.
//!
//! If a future PR changes the simulator's dynamics *on purpose*, re-run
//! `print_golden_digests` (`--ignored --nocapture`) and update the
//! constants alongside an explanation in the PR.

mod common;

use atom_lqn::sim::{simulate, SimOptions};
use atom_lqn::{LqnModel, LqnSolution};

/// FNV-1a over a stream of u64 words (f64s enter by their bit pattern).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.word(v.to_bits());
        }
    }
}

fn digest(s: &LqnSolution) -> u64 {
    let mut d = Digest::new();
    d.f64s(&s.entry_throughput);
    d.f64s(&s.entry_residence);
    d.f64s(&s.entry_service_time);
    d.f64s(&s.task_utilization);
    d.f64s(&s.task_wait);
    d.f64s(&s.processor_utilization);
    d.word(s.client_response_time.to_bits());
    d.word(s.client_throughput.to_bits());
    d.word(s.iterations as u64);
    d.0
}

/// Two processors: a replicated, share-capped web tier calling a
/// single-core database 1.5 times per page (a fractional mean), the
/// database with an I/O latency stage.
fn two_tier() -> LqnModel {
    let mut m = LqnModel::new();
    let front = m.add_processor("front", 4, 1.0);
    let back = m.add_processor("back", 1, 0.8);
    let web = m.add_task("web", front, 8, 2).unwrap();
    m.set_cpu_share(web, Some(1.5)).unwrap();
    let db = m.add_task("db", back, 4, 1).unwrap();
    let page = m.add_entry("page", web, 0.004).unwrap();
    let query = m.add_entry("query", db, 0.0031).unwrap();
    m.set_latency(query, 0.002).unwrap();
    m.add_call(page, query, 1.5).unwrap();
    let c = m.add_reference_task("users", 60, 0.5).unwrap();
    m.add_call(m.reference_entry(c).unwrap(), page, 1.0)
        .unwrap();
    m
}

/// One processor, three share-capped replicas, a 0.7 / 0.3 request mix
/// over two entries, one of them with a latency stage.
fn mixed_replicas() -> LqnModel {
    let mut m = LqnModel::new();
    let cpu = m.add_processor("cpu", 2, 1.0);
    let svc = m.add_task("svc", cpu, 3, 3).unwrap();
    m.set_cpu_share(svc, Some(0.5)).unwrap();
    let a = m.add_entry("a", svc, 0.0123).unwrap();
    let b = m.add_entry("b", svc, 0.0271).unwrap();
    m.set_latency(b, 0.015).unwrap();
    let c = m.add_reference_task("users", 40, 1.0).unwrap();
    let ce = m.reference_entry(c).unwrap();
    m.add_call(ce, a, 0.7).unwrap();
    m.add_call(ce, b, 0.3).unwrap();
    m
}

/// A three-deep chain over two processors: a zero-demand gateway with
/// pure latency, a replicated middle tier, and a backend called 2.4
/// times per request.
fn chain() -> LqnModel {
    let mut m = LqnModel::new();
    let edge = m.add_processor("edge", 2, 1.0);
    let core = m.add_processor("core", 2, 1.3);
    let gw = m.add_task("gateway", edge, 16, 2).unwrap();
    let mid = m.add_task("mid", core, 4, 2).unwrap();
    m.set_cpu_share(mid, Some(0.75)).unwrap();
    let back = m.add_task("back", core, 2, 1).unwrap();
    let route = m.add_entry("route", gw, 0.0).unwrap();
    m.set_latency(route, 0.01).unwrap();
    let work = m.add_entry("work", mid, 0.0037).unwrap();
    let store = m.add_entry("store", back, 0.0019).unwrap();
    m.add_call(route, work, 1.0).unwrap();
    m.add_call(work, store, 2.4).unwrap();
    let c = m.add_reference_task("users", 50, 0.8).unwrap();
    m.add_call(m.reference_entry(c).unwrap(), route, 1.0)
        .unwrap();
    m
}

/// The shipped Sock Shop model at 120 users on the ordering-heavy mix:
/// six tasks on their own processors, fractional routes.
fn sockshop() -> LqnModel {
    common::sockshop(120, &common::MIXES[2])
}

fn options(seed: u64, demand_cv: f64) -> SimOptions {
    SimOptions {
        horizon: 150.0,
        warmup: 30.0,
        seed,
        demand_cv,
    }
}

type Case = (&'static str, fn() -> LqnModel, f64, u64, u64);

const CASES: [Case; 12] = [
    ("two_tier cv1", two_tier, 1.0, 1, 0x023aedb5451d0b85),
    ("two_tier cv1", two_tier, 1.0, 2, 0x064882c7475786af),
    ("two_tier cv0.5", two_tier, 0.5, 1, 0xcb317a9fdacf8c67),
    (
        "mixed_replicas cv0",
        mixed_replicas,
        0.0,
        1,
        0x95ec2b4971197e88,
    ),
    (
        "mixed_replicas cv0",
        mixed_replicas,
        0.0,
        2,
        0x47a1d6c102382075,
    ),
    (
        "mixed_replicas cv0.5",
        mixed_replicas,
        0.5,
        2,
        0xb4b125c071384d74,
    ),
    ("chain cv0", chain, 0.0, 1, 0xd192302ae1b45aa9),
    ("chain cv0", chain, 0.0, 2, 0x27ecd84b7c6c5b9f),
    ("chain cv1", chain, 1.0, 2, 0xef0a5f62e2572d33),
    ("sockshop cv1", sockshop, 1.0, 1, 0xa0b3c9571d3da337),
    ("sockshop cv1", sockshop, 1.0, 2, 0x9408f1077e3e8f55),
    ("sockshop cv0.5", sockshop, 0.5, 2, 0xcc2a922b89ec43d7),
];

#[test]
fn simulator_reproduces_the_pinned_digests() {
    for (name, model, cv, seed, expected) in CASES {
        let got = digest(&simulate(&model(), options(seed, cv)).unwrap());
        assert_eq!(
            got, expected,
            "`{name}` seed {seed}: digest {got:#018x} != pinned {expected:#018x} — \
             the LQN simulator no longer reproduces its pinned run bitwise"
        );
    }
}

/// Prints the current digests; used to capture the pins above.
#[test]
#[ignore = "golden capture helper, not a check"]
fn print_golden_digests() {
    for (name, model, cv, seed, _) in CASES {
        let got = digest(&simulate(&model(), options(seed, cv)).unwrap());
        println!("(\"{name}\", seed {seed}): {got:#018x}");
    }
}
