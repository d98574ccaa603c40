//! Property-based tests for the text formats. Round trips: for any
//! generatable model, `write ∘ parse ∘ write` of the LQN text must be a
//! fixed point and the parsed model must solve to the same throughput.
//! Robustness: arbitrary bytes, and cuts and splices of valid documents,
//! make the LQN text parser, the JSON parser and the journal reader
//! return `Ok` or `Err`, never panic.

use atom_lqn::analytic::{solve, SolverOptions};
use atom_lqn::{from_lqn_text, to_lqn_text, LqnModel};
use atom_obs::{DecisionRecord, Journal, Record, TelemetrySnapshot};
use proptest::prelude::*;

/// The shipped Sock Shop model: the valid document the splices cut up.
const SOCKSHOP_LQN: &str = include_str!("../../../assets/sockshop.lqn");

/// A random layered model: `tiers` server tasks in a chain, each with
/// 1–2 entries; entry 0 of tier k calls entry 0 of tier k+1.
#[derive(Debug, Clone)]
struct RandomModel {
    tiers: Vec<Tier>,
    population: usize,
    think: f64,
}

#[derive(Debug, Clone)]
struct Tier {
    threads: usize,
    replicas: usize,
    share: Option<f64>,
    parallelism: Option<usize>,
    demands: Vec<f64>,
    latency: f64,
    call_mean: f64,
}

fn tier_strategy() -> impl Strategy<Value = Tier> {
    (
        1usize..64,
        1usize..4,
        proptest::option::of(0.05f64..2.0),
        proptest::option::of(1usize..4),
        proptest::collection::vec(0.0005f64..0.05, 1..3),
        0.0f64..0.5,
        0.1f64..2.0,
    )
        .prop_map(
            |(threads, replicas, share, parallelism, demands, latency, call_mean)| Tier {
                threads,
                replicas,
                share,
                parallelism,
                demands,
                latency,
                call_mean,
            },
        )
}

fn model_strategy() -> impl Strategy<Value = RandomModel> {
    (
        proptest::collection::vec(tier_strategy(), 1..4),
        1usize..500,
        0.1f64..10.0,
    )
        .prop_map(|(tiers, population, think)| RandomModel {
            tiers,
            population,
            think,
        })
}

fn build(rm: &RandomModel) -> LqnModel {
    let mut m = LqnModel::new();
    let p = m.add_processor("host", 8, 1.0);
    let mut prev_first_entry = None;
    for (k, tier) in rm.tiers.iter().enumerate() {
        let t = m
            .add_task(format!("tier{k}"), p, tier.threads, tier.replicas)
            .unwrap();
        m.set_cpu_share(t, tier.share).unwrap();
        m.set_parallelism(t, tier.parallelism).unwrap();
        let mut first = None;
        for (j, &d) in tier.demands.iter().enumerate() {
            let e = m.add_entry(format!("t{k}e{j}"), t, d).unwrap();
            if j == 0 {
                m.set_latency(e, tier.latency).unwrap();
                first = Some(e);
            }
        }
        let first = first.unwrap();
        if let Some(prev) = prev_first_entry {
            m.add_call(prev, first, tier.call_mean).unwrap();
        }
        prev_first_entry = Some(first);
    }
    let c = m
        .add_reference_task("clients", rm.population, rm.think)
        .unwrap();
    let ce = m.reference_entry(c).unwrap();
    // Call the first tier's first entry.
    let root = m.entry_by_name("t0e0").unwrap();
    m.add_call(ce, root, 1.0).unwrap();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_roundtrip_is_fixed_point(rm in model_strategy()) {
        let model = build(&rm);
        let text = to_lqn_text(&model);
        let parsed = from_lqn_text(&text).expect("own output must parse");
        prop_assert_eq!(&text, &to_lqn_text(&parsed));
    }

    #[test]
    fn parsed_model_solves_identically(rm in model_strategy()) {
        let model = build(&rm);
        let parsed = from_lqn_text(&to_lqn_text(&model)).expect("parse");
        let a = solve(&model, SolverOptions::default()).expect("solve original");
        let b = solve(&parsed, SolverOptions::default()).expect("solve parsed");
        prop_assert!((a.client_throughput - b.client_throughput).abs() < 1e-9,
            "{} vs {}", a.client_throughput, b.client_throughput);
        prop_assert!((a.client_response_time - b.client_response_time).abs() < 1e-9);
    }
}

/// Arbitrary bytes.
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..512)
}

/// Two cut points and a little noise (a quarter of the time none).
fn cut() -> impl Strategy<Value = (usize, usize, Vec<u8>)> {
    (
        0usize..1 << 20,
        0usize..1 << 20,
        proptest::collection::vec(0u8..=255, 0..4),
    )
}

/// `doc` up to byte `i`, then `noise`, then `doc` again from byte `j`
/// (both taken modulo the length): a truncation when `j` lands on the
/// end, a deletion when `j > i`, a repeat when `j < i`. Read as text the
/// way a file reader would, with lossy UTF-8.
fn splice(doc: &str, (i, j, noise): &(usize, usize, Vec<u8>)) -> String {
    let doc = doc.as_bytes();
    let (i, j) = (i % (doc.len() + 1), j % (doc.len() + 1));
    let mut out = doc[..i].to_vec();
    out.extend_from_slice(noise);
    out.extend_from_slice(&doc[j..]);
    String::from_utf8_lossy(&out).into_owned()
}

/// A journal as the controller writes it: a decision and a note.
fn journal_text() -> String {
    let snapshot = TelemetrySnapshot {
        users: 1500,
        observed_tps: 212.5,
        peak_arrival_rate: 230.0,
        monitor_dropout: 0.0,
        degraded: false,
        backend: "per-user".into(),
        backend_switches: 0,
    };
    let mut journal = Journal::default();
    let decision = DecisionRecord::new(0, 300.0, "ATOM", snapshot);
    journal.push(300.0, Record::Decision(decision));
    journal.push(300.0, Record::Note("window 0 closed".into()));
    journal.to_jsonl()
}

#[test]
fn a_processor_without_cores_or_speed_is_a_parse_error() {
    for line in [
        "p a m 0 s 1",
        "p a m 1 s 0",
        "p a m 1 s -2",
        "p a m 1 s NaN",
        "p a m 1 s inf",
    ] {
        let err = from_lqn_text(&format!("P 0\n  {line}\n-1\n")).unwrap_err();
        assert!(err.to_string().contains(line), "{err}");
    }
}

#[test]
fn the_documents_the_splices_cut_up_are_valid() {
    let model = from_lqn_text(SOCKSHOP_LQN).expect("the asset parses");
    let json = serde_json::to_string(&model).expect("a model serialises");
    assert_eq!(
        serde_json::from_str::<LqnModel>(&json).expect("its JSON parses"),
        model
    );
    assert_eq!(
        Journal::parse_jsonl(&journal_text())
            .expect("the journal parses")
            .len(),
        2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_text_parsers(raw in bytes()) {
        let text = String::from_utf8_lossy(&raw);
        let _ = from_lqn_text(&text);
        let _ = serde_json::from_str::<serde_json::Value>(&text);
        let _ = serde_json::from_str::<LqnModel>(&text);
        let _ = Journal::parse_jsonl(&text);
    }

    #[test]
    fn spliced_lqn_text_never_panics_the_parser(c in cut()) {
        let _ = from_lqn_text(&splice(SOCKSHOP_LQN, &c));
    }

    #[test]
    fn spliced_json_never_panics_the_parser(c in cut()) {
        let model = from_lqn_text(SOCKSHOP_LQN).expect("the asset parses");
        let json = serde_json::to_string(&model).expect("a model serialises");
        let text = splice(&json, &c);
        let _ = serde_json::from_str::<serde_json::Value>(&text);
        let _ = serde_json::from_str::<LqnModel>(&text);
    }

    #[test]
    fn spliced_journal_lines_never_panic_the_reader(c in cut()) {
        let _ = Journal::parse_jsonl(&splice(&journal_text(), &c));
    }
}
