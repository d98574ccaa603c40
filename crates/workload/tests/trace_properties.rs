//! Properties of the streaming trace readers and the `TraceSource`
//! population: reads must be deterministic regardless of reader
//! buffering, a replayed step list must be indistinguishable bitwise
//! from the equivalent hand-built `LoadProfile::Steps`, and malformed
//! input must surface as typed errors carrying the offending line — never
//! as a panic, whatever the bytes.

use std::io::{BufReader, Cursor};

use atom_workload::{read_trace, LoadProfile, TraceError, TraceFormat, TraceOptions, TraceSource};
use proptest::prelude::*;

fn alibaba_line(task: usize, instances: u64, secs: f64, plan_cpu: f64) -> String {
    format!(
        "task_{task},{instances},j_{task},1,Terminated,{secs},{},{plan_cpu},1.0",
        secs + 60.0
    )
}

/// A synthetic but schema-correct Alibaba trace body.
fn alibaba_body(bins: usize) -> String {
    let mut out = String::from("# synthetic batch_task sample\n\n");
    for k in 0..bins {
        let cpu = [50.0, 150.0, 300.0][k % 3];
        out.push_str(&alibaba_line(
            k,
            1 + (k as u64 * 7) % 40,
            k as f64 * 17.0,
            cpu,
        ));
        out.push('\n');
    }
    out
}

/// The shipped sample traces: the valid documents the splices cut up.
const ALIBABA_SAMPLE: &str = include_str!("../../../assets/traces/alibaba_sample.csv");
const GOOGLE_SAMPLE: &str = include_str!("../../../assets/traces/google_sample.csv");

/// Reads `bytes` as a trace in both formats; either may fail, neither
/// may panic.
fn read_both(bytes: &[u8]) {
    for format in [TraceFormat::Alibaba, TraceFormat::Google] {
        let _ = read_trace(Cursor::new(bytes), "t", format, &TraceOptions::new());
    }
}

/// `doc` up to byte `i`, then `noise`, then `doc` again from byte `j`
/// (both taken modulo the length): a truncation, a deletion or a repeat.
fn splice(doc: &str, i: usize, j: usize, noise: &[u8]) -> Vec<u8> {
    let doc = doc.as_bytes();
    let (i, j) = (i % (doc.len() + 1), j % (doc.len() + 1));
    let mut out = doc[..i].to_vec();
    out.extend_from_slice(noise);
    out.extend_from_slice(&doc[j..]);
    out
}

fn read(body: &str, capacity: usize, opts: &TraceOptions) -> atom_workload::TraceReplay {
    read_trace(
        BufReader::with_capacity(capacity, Cursor::new(body.to_string())),
        "t",
        TraceFormat::Alibaba,
        opts,
    )
    .expect("valid trace")
}

#[test]
fn reads_are_identical_across_reader_buffer_sizes() {
    let body = alibaba_body(64);
    let opts = TraceOptions::new()
        .with_target_peak(900)
        .with_floor_users(50);
    let baseline = read(&body, 8192, &opts);
    for capacity in [1, 2, 3, 7, 64, 1023] {
        let replay = read(&body, capacity, &opts);
        assert_eq!(replay.source, baseline.source, "capacity {capacity}");
        assert_eq!(replay.mix, baseline.mix, "capacity {capacity}");
        assert_eq!(replay.stats, baseline.stats, "capacity {capacity}");
        assert_eq!(
            replay.mix_shifts, baseline.mix_shifts,
            "capacity {capacity}"
        );
    }
}

#[test]
fn malformed_lines_surface_as_typed_errors_with_line_numbers() {
    // Line 3 has a non-numeric instance count.
    let body =
        "# header\ntask_0,1,j,1,Terminated,0,60,50,1\ntask_1,NaNcy,j,1,Terminated,30,90,50,1\n";
    let err = read_trace(
        Cursor::new(body),
        "t",
        TraceFormat::Alibaba,
        &TraceOptions::new(),
    )
    .expect_err("bad instance_num must fail");
    match err {
        TraceError::Malformed { line, .. } => assert_eq!(line, 3),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // Google: a short row (too few columns) on line 2.
    let body = "1000000,0,1,0,2,0,u,0,2\nshort,row\n";
    let err = read_trace(
        Cursor::new(body),
        "t",
        TraceFormat::Google,
        &TraceOptions::new(),
    )
    .expect_err("short row must fail");
    match err {
        TraceError::Malformed { line, .. } => assert_eq!(line, 2),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn comment_only_input_is_empty_not_malformed() {
    let err = read_trace(
        Cursor::new("# nothing\n\n# here\n"),
        "t",
        TraceFormat::Alibaba,
        &TraceOptions::new(),
    )
    .expect_err("no records");
    assert!(matches!(err, TraceError::Empty), "got {err:?}");
}

#[test]
fn a_start_time_past_the_bin_range_is_an_error_not_an_overflow() {
    // The first row lands in bin 0, the second saturates the bin index at
    // u64::MAX: the span check must not overflow computing its message.
    let body = "task_0,1,j,1,Terminated,0,60,50,1\ntask_1,1,j,1,Terminated,1e300,60,50,1\n";
    let err = read_trace(
        Cursor::new(body),
        "t",
        TraceFormat::Alibaba,
        &TraceOptions::new(),
    )
    .expect_err("a trace that spans more bins than the cap");
    assert!(matches!(err, TraceError::Invalid(_)), "got {err:?}");
}

#[test]
fn the_sample_traces_the_splices_cut_up_are_valid() {
    for (doc, format) in [
        (ALIBABA_SAMPLE, TraceFormat::Alibaba),
        (GOOGLE_SAMPLE, TraceFormat::Google),
    ] {
        read_trace(Cursor::new(doc), "t", format, &TraceOptions::new()).expect("sample parses");
    }
}

/// Step lists with strictly increasing times starting at 0.
fn steps_strategy() -> impl Strategy<Value = Vec<(f64, usize)>> {
    proptest::collection::vec((0.0f64..500.0, 0usize..3000), 1..24).prop_map(|raw| {
        let mut t = 0.0;
        raw.into_iter()
            .map(|(dt, pop)| {
                let entry = (t, pop);
                t += 1.0 + dt;
                entry
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_readers(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        read_both(&bytes);
    }

    #[test]
    fn spliced_sample_traces_never_panic_the_readers(
        i in 0usize..1 << 20,
        j in 0usize..1 << 20,
        noise in proptest::collection::vec(0u8..=255, 0..4),
    ) {
        read_both(&splice(ALIBABA_SAMPLE, i, j, &noise));
        read_both(&splice(GOOGLE_SAMPLE, i, j, &noise));
    }
}

proptest! {
    /// `TraceSource` must answer every population query with
    /// the exact bits of the equivalent hand-built `Steps` profile.
    #[test]
    fn trace_source_matches_steps_profile_bitwise(
        steps in steps_strategy(),
        times in proptest::collection::vec(-10.0f64..6000.0, 1..16),
        span in 1.0f64..900.0,
    ) {
        let profile = LoadProfile::Steps(steps.clone());
        let source = TraceSource::from_steps("p", TraceFormat::Google, steps);
        for &t in &times {
            prop_assert_eq!(profile.population_at(t), source.population_at(t));
            prop_assert_eq!(
                profile.average_population(t, t + span).to_bits(),
                source.average_population(t, t + span).to_bits()
            );
            prop_assert_eq!(
                profile.change_points(t, t + span),
                source.change_points(t, t + span)
            );
        }
    }

    /// Binning then replaying must give the same population the binned
    /// step list prescribes at every bin boundary.
    #[test]
    fn replayed_population_hits_every_step_value(body_bins in 2usize..40) {
        let body = alibaba_body(body_bins);
        let opts = TraceOptions::new().with_target_peak(1200).with_floor_users(100);
        let replay = read(&body, 512, &opts);
        for &(t, pop) in replay.source.steps() {
            prop_assert_eq!(replay.source.population_at(t), pop);
            prop_assert!(pop <= 1200);
        }
    }
}
