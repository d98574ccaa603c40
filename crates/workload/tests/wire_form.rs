//! The workload's JSON wire form, pinned as text.
//!
//! A population serialises as `{"kind": "profile" | "trace", "spec": …}`;
//! a bare (untagged) `LoadProfile` still reads as a profile, and any
//! other kind is a typed error. Saved scenario files depend on all
//! three, so each is asserted here byte for byte and as a round trip.
//! Files written with the keys of the since-deleted per-bin mix path
//! still read into the same values.

use atom_workload::{LoadProfile, RequestMix, TraceFormat, TraceSource, WorkloadSpec};

/// The workload `atom-cli example-scenario` writes: the ordering mix,
/// a 500 → 2000 user ramp over 25 minutes, Z = 7 s.
fn example_scenario_workload() -> WorkloadSpec {
    WorkloadSpec::new(
        RequestMix::new(vec![0.33, 0.17, 0.50]).unwrap(),
        7.0,
        LoadProfile::Ramp {
            from: 500,
            to: 2000,
            start: 0.0,
            duration: 1500.0,
        },
    )
}

const EXAMPLE_SCENARIO: &str = r#"{"burstiness":null,"mix":{"fractions":[0.33,0.17,0.5]},"source":{"kind":"profile","spec":{"Ramp":{"duration":1500.0,"from":500,"start":0.0,"to":2000}}},"think_time":7.0}"#;

/// [`EXAMPLE_SCENARIO`] as written while workloads carried a per-bin
/// mix flag.
const OLD_EXAMPLE_SCENARIO: &str = r#"{"burstiness":null,"dynamic_mix":false,"mix":{"fractions":[0.33,0.17,0.5]},"source":{"kind":"profile","spec":{"Ramp":{"duration":1500.0,"from":500,"start":0.0,"to":2000}}},"think_time":7.0}"#;

fn trace_workload() -> WorkloadSpec {
    let source = TraceSource::from_steps(
        "sample",
        TraceFormat::Alibaba,
        vec![(0.0, 500), (300.0, 1800)],
    );
    WorkloadSpec::new(RequestMix::new(vec![0.6, 0.4]).unwrap(), 5.0, source)
}

const TRACE: &str = r#"{"burstiness":null,"mix":{"fractions":[0.6,0.4]},"source":{"kind":"trace","spec":{"format":"Alibaba","name":"sample","steps":[[0.0,500],[300.0,1800]]}},"think_time":5.0}"#;

/// [`TRACE`] as written while workloads carried a per-bin mix flag and
/// traces their per-bin mix shifts.
const OLD_TRACE: &str = r#"{"burstiness":null,"dynamic_mix":false,"mix":{"fractions":[0.6,0.4]},"source":{"kind":"trace","spec":{"format":"Alibaba","mix_shifts":[[0.0,[0.5,0.3,0.2]],[300.0,[0.2,0.3,0.5]]],"name":"sample","steps":[[0.0,500],[300.0,1800]]}},"think_time":5.0}"#;

/// A workload whose `source` is a bare, untagged `LoadProfile` — the
/// form written before populations carried a kind.
const LEGACY: &str =
    r#"{"burstiness":null,"mix":{"fractions":[1.0]},"source":{"Constant":42},"think_time":7.0}"#;

fn round_trips(spec: &WorkloadSpec, text: &str) {
    assert_eq!(serde_json::to_string(spec).unwrap(), text);
    let back: WorkloadSpec = serde_json::from_str(text).unwrap();
    assert_eq!(&back, spec);
}

#[test]
fn example_scenario_workload_is_pinned() {
    round_trips(&example_scenario_workload(), EXAMPLE_SCENARIO);
}

#[test]
fn trace_workload_is_pinned() {
    round_trips(&trace_workload(), TRACE);
}

#[test]
fn documents_with_the_dropped_keys_still_read() {
    for (text, spec) in [
        (OLD_EXAMPLE_SCENARIO, example_scenario_workload()),
        (OLD_TRACE, trace_workload()),
    ] {
        let back: WorkloadSpec = serde_json::from_str(text).unwrap();
        assert_eq!(back, spec);
    }
}

#[test]
fn bare_legacy_profile_reads_as_a_profile() {
    let back: WorkloadSpec = serde_json::from_str(LEGACY).unwrap();
    let expected = WorkloadSpec::constant(RequestMix::new(vec![1.0]).unwrap(), 42, 7.0);
    assert_eq!(back, expected);
}

#[test]
fn unknown_kind_is_a_typed_error() {
    let text = EXAMPLE_SCENARIO.replace("\"kind\":\"profile\"", "\"kind\":\"learned\"");
    let err = serde_json::from_str::<WorkloadSpec>(&text).unwrap_err();
    assert!(err.to_string().contains("`learned`"), "{err}");
}
