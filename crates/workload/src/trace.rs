//! Streaming production-trace replay.
//!
//! Real cluster traces are the regime the forecast ensemble and the
//! hybrid fluid/event backend were built for: non-stationary arrivals
//! that synthetic ramps and sinusoids flatter. This module reads two
//! public trace dialects **line at a time** over any [`BufRead`] — the
//! reader never materialises the file, only one accumulator per time
//! bin — and maps task arrivals onto Sock Shop population steps and
//! request-mix shifts:
//!
//! * **Alibaba** cluster-trace v2018 `batch_task` rows:
//!   `task_name,instance_num,job_name,task_type,status,start_time,end_time,plan_cpu,plan_mem`.
//!   Each row contributes `instance_num` weight at `start_time`
//!   (seconds); `plan_cpu` buckets the row into a request class
//!   (≤ 100 → browsing, ≤ 200 → catalogue-heavy, else cart-heavy).
//! * **Google** cluster-data 2011 `task_events` rows:
//!   `timestamp,missing,job,task,machine,event_type,user,sched_class,priority,...`.
//!   Only `SUBMIT` events (`event_type == 0`) count, with unit weight at
//!   `timestamp` (microseconds); `sched_class` buckets the class
//!   (0–1 → browsing, 2 → catalogue-heavy, ≥ 3 → cart-heavy).
//!
//! Arrival weight per [`TraceOptions::bin_secs`] bin is normalised
//! against the busiest bin and rescaled into
//! `[floor_users, target_peak]`, producing a piecewise-constant
//! [`TraceSource`]. Replay is fully deterministic: the same bytes and
//! options always produce the same steps, independent of read buffer
//! size, and bitwise-identical to the equivalent hand-built
//! [`LoadProfile::Steps`](crate::LoadProfile::Steps).

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::profile;

/// Supported trace dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceFormat {
    /// Alibaba cluster-trace v2018 `batch_task` CSV.
    Alibaba,
    /// Google cluster-data 2011 `task_events` CSV.
    Google,
}

impl TraceFormat {
    /// Lower-case tag, as accepted by `--format`.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TraceFormat::Alibaba => "alibaba",
            TraceFormat::Google => "google",
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "alibaba" => Ok(TraceFormat::Alibaba),
            "google" => Ok(TraceFormat::Google),
            other => Err(format!(
                "unknown trace format `{other}` (expected `alibaba` or `google`)"
            )),
        }
    }
}

/// Typed trace-reading failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Underlying reader failure.
    Io(io::Error),
    /// A data line that does not parse under the declared format.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// No arrival records survived (empty file, all comments, or all
    /// zero-weight).
    Empty,
    /// The reader options themselves are unusable (non-positive bin
    /// width, absurd span, ...).
    Invalid(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Malformed { line, reason } => {
                write!(f, "malformed trace line {line}: {reason}")
            }
            TraceError::Empty => f.write_str("trace contains no arrival records"),
            TraceError::Invalid(reason) => write!(f, "invalid trace replay: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// How trace arrivals are mapped onto a closed-population workload.
///
/// Follows the workspace `with_*` builder convention (`ClusterOptions`,
/// `SolverOptions`): start from [`TraceOptions::new`] and chain.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOptions {
    /// Bin width for arrival aggregation (seconds). Default 30, matching
    /// the fluid backend's integration step.
    pub(crate) bin_secs: f64,
    /// Population mapped to the busiest bin. Default 2000 (the paper's
    /// evaluation peak).
    pub(crate) target_peak: usize,
    /// Population mapped to an idle bin. Default 0.
    pub(crate) floor_users: usize,
    /// When set, the replay's time axis is rescaled so the whole trace
    /// spans exactly this many seconds. Default: keep trace time.
    pub(crate) duration: Option<f64>,
    /// Minimum fraction each request class keeps in reported mixes, so a
    /// skewed trace cannot starve a Sock Shop feature entirely.
    /// Default 0.
    pub(crate) mix_floor: f64,
}

impl TraceOptions {
    /// The defaults listed per field.
    pub fn new() -> Self {
        TraceOptions {
            bin_secs: 30.0,
            target_peak: 2000,
            floor_users: 0,
            duration: None,
            mix_floor: 0.0,
        }
    }

    /// Sets the aggregation bin width (seconds).
    #[must_use]
    pub fn with_bin_secs(mut self, bin_secs: f64) -> Self {
        self.bin_secs = bin_secs;
        self
    }

    /// Sets the population of the busiest bin.
    #[must_use]
    pub fn with_target_peak(mut self, target_peak: usize) -> Self {
        self.target_peak = target_peak;
        self
    }

    /// Sets the population of an idle bin.
    #[must_use]
    pub fn with_floor_users(mut self, floor_users: usize) -> Self {
        self.floor_users = floor_users;
        self
    }

    /// Rescales the replay to span exactly `duration` seconds.
    #[must_use]
    pub fn with_duration(mut self, duration: f64) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Sets the per-class mix floor.
    #[must_use]
    pub fn with_mix_floor(mut self, mix_floor: f64) -> Self {
        self.mix_floor = mix_floor;
        self
    }
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions::new()
    }
}

/// A replayed trace as a population: piecewise-constant
/// `(time, population)` steps with the same semantics — and the same
/// arithmetic — as [`LoadProfile::Steps`](crate::LoadProfile::Steps),
/// plus authoritative spike hints derived from the trace itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSource {
    name: String,
    format: TraceFormat,
    steps: Vec<(f64, usize)>,
}

impl TraceSource {
    /// Builds a trace source directly from steps (the readers' output
    /// shape; also handy for tests).
    pub fn from_steps(
        name: impl Into<String>,
        format: TraceFormat,
        steps: Vec<(f64, usize)>,
    ) -> Self {
        TraceSource {
            name: name.into(),
            format,
            steps,
        }
    }

    /// The trace's name (file stem for file-backed replays).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The replay's `(time, population)` steps.
    pub fn steps(&self) -> &[(f64, usize)] {
        &self.steps
    }

    /// Population at time `t`, as [`LoadProfile::Steps`](crate::LoadProfile::Steps).
    pub fn population_at(&self, t: f64) -> usize {
        profile::steps_population_at(&self.steps, t)
    }

    /// The steps in `(t0, t1]`, as [`LoadProfile::Steps`](crate::LoadProfile::Steps).
    pub fn change_points(&self, t0: f64, t1: f64) -> Vec<(f64, usize)> {
        profile::steps_change_points(&self.steps, t0, t1)
    }

    /// Time-averaged population over `[t0, t1]`, as
    /// [`LoadProfile::Steps`](crate::LoadProfile::Steps).
    pub fn average_population(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return profile::steps_population_at(&self.steps, t0) as f64;
        }
        profile::steps_average_population(&self.steps, t0, t1)
    }

    /// Step times in `(t0, t1]` whose population jumps by at least
    /// `threshold` relative to the step before.
    pub(crate) fn spike_points(&self, t0: f64, t1: f64, threshold: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut prev: Option<usize> = None;
        for &(time, pop) in &self.steps {
            if let Some(before) = prev {
                let base = before.max(1) as f64;
                let jump = (pop as f64 - before as f64).abs() / base;
                if time > t0 && time <= t1 && jump >= threshold {
                    out.push(time);
                }
            }
            prev = Some(pop);
        }
        out
    }
}

/// Counters describing what the reader saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Total lines read, including comments and blanks.
    pub(crate) lines: usize,
    /// Arrival records that contributed weight.
    pub records: usize,
    /// Lines skipped: blanks, `#` comments, non-arrival events.
    pub skipped: usize,
    /// Total arrival weight (instances for Alibaba, tasks for Google).
    pub(crate) weight: f64,
    /// Occupied time bins.
    pub bins: usize,
    /// Replay span in (possibly rescaled) seconds.
    pub span_secs: f64,
    /// Weight of the busiest bin (the bin mapped to `target_peak`).
    pub peak_weight: f64,
}

/// Everything a replay yields: the population source, the aggregate
/// request mix, the per-bin mix shifts, and reader statistics.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    /// The population source to install in a `WorkloadSpec`.
    pub source: TraceSource,
    /// Aggregate request-class mix over the whole trace
    /// (browsing / catalogue-heavy / cart-heavy), normalised, with
    /// [`TraceOptions::with_mix_floor`]'s floor applied.
    pub mix: Vec<f64>,
    /// Per-occupied-bin `(time, mix)` shifts, same normalisation.
    pub mix_shifts: Vec<(f64, Vec<f64>)>,
    /// Reader counters.
    pub stats: TraceStats,
}

/// One parsed arrival.
struct Arrival {
    secs: f64,
    weight: f64,
    class: usize,
}

#[derive(Clone, Copy)]
struct BinAccum {
    weight: f64,
    class: [f64; 3],
}

/// Hard cap on the number of time bins a replay may span; protects
/// against a stray timestamp turning the step expansion into a
/// multi-gigabyte allocation.
const MAX_BINS: u64 = 1 << 22;

/// Reads a trace from any buffered reader. `name` labels the resulting
/// [`TraceSource`] (it participates in serialisation, nothing else).
pub fn read_trace<R: BufRead>(
    reader: R,
    name: &str,
    format: TraceFormat,
    opts: &TraceOptions,
) -> Result<TraceReplay, TraceError> {
    if !(opts.bin_secs > 0.0 && opts.bin_secs.is_finite()) {
        return Err(TraceError::Invalid(format!(
            "bin_secs must be positive and finite, got {}",
            opts.bin_secs
        )));
    }
    if opts.target_peak < opts.floor_users {
        return Err(TraceError::Invalid(format!(
            "target_peak ({}) must be at least floor_users ({})",
            opts.target_peak, opts.floor_users
        )));
    }
    if let Some(d) = opts.duration {
        if !(d > 0.0 && d.is_finite()) {
            return Err(TraceError::Invalid(format!(
                "duration must be positive and finite, got {d}"
            )));
        }
    }
    if !(0.0..=1.0 / 3.0).contains(&opts.mix_floor) {
        return Err(TraceError::Invalid(format!(
            "mix_floor must be in [0, 1/3], got {}",
            opts.mix_floor
        )));
    }

    let mut bins: BTreeMap<u64, BinAccum> = BTreeMap::new();
    let mut lines = 0usize;
    let mut records = 0usize;
    let mut skipped = 0usize;
    let mut weight_total = 0.0f64;
    for line in reader.lines() {
        let line = line?;
        lines += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            skipped += 1;
            continue;
        }
        let arrival = match format {
            TraceFormat::Alibaba => parse_alibaba(trimmed, lines)?,
            TraceFormat::Google => parse_google(trimmed, lines)?,
        };
        let Some(arrival) = arrival else {
            skipped += 1;
            continue;
        };
        records += 1;
        weight_total += arrival.weight;
        let bin = (arrival.secs / opts.bin_secs).floor() as u64;
        let accum = bins.entry(bin).or_insert(BinAccum {
            weight: 0.0,
            class: [0.0; 3],
        });
        accum.weight += arrival.weight;
        accum.class[arrival.class] += arrival.weight;
    }

    if bins.is_empty() {
        return Err(TraceError::Empty);
    }
    let first = *bins.keys().next().expect("bins is non-empty");
    let last = *bins.keys().next_back().expect("bins is non-empty");
    if last - first >= MAX_BINS {
        return Err(TraceError::Invalid(format!(
            "trace spans more than {MAX_BINS} bins of {}s; raise bin_secs",
            opts.bin_secs
        )));
    }
    let peak_weight = bins.values().map(|b| b.weight).fold(0.0f64, f64::max);
    if peak_weight <= 0.0 {
        return Err(TraceError::Empty);
    }

    let raw_span = (last - first + 1) as f64 * opts.bin_secs;
    let time_scale = opts.duration.map_or(1.0, |d| d / raw_span);
    let range = (opts.target_peak - opts.floor_users) as f64;

    let mut steps: Vec<(f64, usize)> = Vec::new();
    let mut mix_shifts: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut class_total = [0.0f64; 3];
    for bin in first..=last {
        let t = (bin - first) as f64 * opts.bin_secs * time_scale;
        let (weight, class) = bins
            .get(&bin)
            .map_or((0.0, [0.0; 3]), |b| (b.weight, b.class));
        let population = opts.floor_users + (weight / peak_weight * range).round() as usize;
        if steps.last().is_none_or(|&(_, p)| p != population) {
            steps.push((t, population));
        }
        if weight > 0.0 {
            for (total, part) in class_total.iter_mut().zip(class) {
                *total += part;
            }
            mix_shifts.push((t, smooth_mix(class, opts.mix_floor)));
        }
    }

    let stats = TraceStats {
        lines,
        records,
        skipped,
        weight: weight_total,
        bins: bins.len(),
        span_secs: raw_span * time_scale,
        peak_weight,
    };
    Ok(TraceReplay {
        source: TraceSource::from_steps(name, format, steps),
        mix: smooth_mix(class_total, opts.mix_floor),
        mix_shifts,
        stats,
    })
}

/// Reads a trace file; the [`TraceSource`] is named after the file stem.
pub fn read_trace_file(
    path: impl AsRef<Path>,
    format: TraceFormat,
    opts: &TraceOptions,
) -> Result<TraceReplay, TraceError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map_or_else(|| "trace".to_string(), |s| s.to_string_lossy().into_owned());
    let file = File::open(path)?;
    read_trace(BufReader::new(file), &name, format, opts)
}

/// Normalises class weights into a mix, guaranteeing each class at least
/// `floor` (callers validated `floor ≤ 1/3`).
fn smooth_mix(class: [f64; 3], floor: f64) -> Vec<f64> {
    let total: f64 = class.iter().sum();
    let base = if total > 0.0 {
        class.map(|w| w / total)
    } else {
        [1.0 / 3.0; 3]
    };
    base.iter()
        .map(|f| f * (1.0 - 3.0 * floor) + floor)
        .collect()
}

fn malformed(line: usize, reason: impl Into<String>) -> TraceError {
    TraceError::Malformed {
        line,
        reason: reason.into(),
    }
}

fn field<'a>(
    fields: &[&'a str],
    idx: usize,
    name: &str,
    line: usize,
) -> Result<&'a str, TraceError> {
    let value = fields
        .get(idx)
        .copied()
        .ok_or_else(|| malformed(line, format!("missing column {idx} ({name})")))?;
    if value.is_empty() {
        return Err(malformed(line, format!("empty column {idx} ({name})")));
    }
    Ok(value)
}

fn parse_num<T: FromStr>(value: &str, name: &str, line: usize) -> Result<T, TraceError> {
    value
        .parse::<T>()
        .map_err(|_| malformed(line, format!("{name} `{value}` is not a number")))
}

/// Alibaba `batch_task` row → arrival of `instance_num` weight at
/// `start_time`, classed by `plan_cpu`.
fn parse_alibaba(line: &str, lineno: usize) -> Result<Option<Arrival>, TraceError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() < 8 {
        return Err(malformed(
            lineno,
            format!(
                "expected at least 8 batch_task columns, got {}",
                fields.len()
            ),
        ));
    }
    let instances: u64 = parse_num(
        field(&fields, 1, "instance_num", lineno)?,
        "instance_num",
        lineno,
    )?;
    let start: f64 = parse_num(
        field(&fields, 5, "start_time", lineno)?,
        "start_time",
        lineno,
    )?;
    if !(start.is_finite() && start >= 0.0) {
        return Err(malformed(
            lineno,
            format!("start_time `{start}` is not a non-negative time"),
        ));
    }
    let plan_cpu: f64 = parse_num(field(&fields, 7, "plan_cpu", lineno)?, "plan_cpu", lineno)?;
    if !plan_cpu.is_finite() || plan_cpu < 0.0 {
        return Err(malformed(
            lineno,
            format!("plan_cpu `{plan_cpu}` is not a non-negative number"),
        ));
    }
    // plan_cpu is in percent-of-core: 100 = one core.
    let class = if plan_cpu <= 100.0 {
        0
    } else if plan_cpu <= 200.0 {
        1
    } else {
        2
    };
    Ok(Some(Arrival {
        secs: start,
        weight: instances as f64,
        class,
    }))
}

/// Google `task_events` row → unit-weight arrival at `timestamp` for
/// `SUBMIT` events, classed by `scheduling_class`; other event types are
/// skipped (they describe the same task's lifecycle, not new demand).
fn parse_google(line: &str, lineno: usize) -> Result<Option<Arrival>, TraceError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() < 8 {
        return Err(malformed(
            lineno,
            format!(
                "expected at least 8 task_events columns, got {}",
                fields.len()
            ),
        ));
    }
    let micros: u64 = parse_num(field(&fields, 0, "timestamp", lineno)?, "timestamp", lineno)?;
    let event_type: u64 = parse_num(
        field(&fields, 5, "event_type", lineno)?,
        "event_type",
        lineno,
    )?;
    if event_type != 0 {
        return Ok(None); // not a SUBMIT
    }
    let sched_class: u64 = parse_num(
        field(&fields, 7, "scheduling_class", lineno)?,
        "scheduling_class",
        lineno,
    )?;
    let class = match sched_class {
        0 | 1 => 0,
        2 => 1,
        _ => 2,
    };
    Ok(Some(Arrival {
        secs: micros as f64 / 1e6,
        weight: 1.0,
        class,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const ALIBABA: &str = "\
task_1,10,j_1,1,Terminated,0,30,50,0.3
task_2,20,j_1,1,Terminated,35,60,150,0.5
task_3,5,j_2,1,Terminated,65,90,300,0.2
";

    const GOOGLE: &str = "\
0,0,job1,0,m1,0,u,0,9,0.1,0.1,0.01,0
15000000,0,job1,1,m2,1,u,0,9,0.1,0.1,0.01,0
35000000,0,job2,0,m1,0,u,2,9,0.2,0.1,0.01,0
65000000,0,job3,0,m3,0,u,3,9,0.2,0.1,0.01,0
";

    #[test]
    fn alibaba_rows_bin_scale_and_class() {
        let opts = TraceOptions::new()
            .with_target_peak(200)
            .with_floor_users(10);
        let replay = read_trace(Cursor::new(ALIBABA), "t", TraceFormat::Alibaba, &opts).unwrap();
        // Bins of 30s: bin0 weight 10, bin1 weight 20 (peak), bin2 weight 5.
        assert_eq!(
            replay.source.steps(),
            &[(0.0, 105), (30.0, 200), (60.0, 58)]
        );
        assert_eq!(replay.stats.records, 3);
        assert_eq!(replay.stats.bins, 3);
        assert!((replay.stats.peak_weight - 20.0).abs() < 1e-12);
        // Classes: 10 browsing, 20 catalogue, 5 cart out of 35.
        assert!((replay.mix[0] - 10.0 / 35.0).abs() < 1e-12);
        assert!((replay.mix[1] - 20.0 / 35.0).abs() < 1e-12);
        assert!((replay.mix[2] - 5.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn google_submit_only_and_sched_class() {
        let replay = read_trace(
            Cursor::new(GOOGLE),
            "g",
            TraceFormat::Google,
            &TraceOptions::new().with_target_peak(100),
        )
        .unwrap();
        // The event_type=1 row is skipped; three SUBMITs over bins 0,1,2.
        assert_eq!(replay.stats.records, 3);
        assert_eq!(replay.stats.skipped, 1);
        assert_eq!(replay.source.steps()[0], (0.0, 100));
        // sched classes 0, 2, 3 → one of each request class.
        assert!((replay.mix[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_line_numbers() {
        let bad = "task_1,ten,j_1,1,Terminated,0,30,50,0.3\n";
        let err = read_trace(
            Cursor::new(bad),
            "t",
            TraceFormat::Alibaba,
            &TraceOptions::new(),
        )
        .unwrap_err();
        match err {
            TraceError::Malformed { line, reason } => {
                assert_eq!(line, 1);
                assert!(reason.contains("instance_num"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let short = "1,2,3\n";
        assert!(matches!(
            read_trace(
                Cursor::new(short),
                "t",
                TraceFormat::Google,
                &TraceOptions::new()
            ),
            Err(TraceError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = format!("# header\n\n{ALIBABA}");
        let replay = read_trace(
            Cursor::new(text),
            "t",
            TraceFormat::Alibaba,
            &TraceOptions::new(),
        )
        .unwrap();
        assert_eq!(replay.stats.records, 3);
        assert_eq!(replay.stats.skipped, 2);
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        assert!(matches!(
            read_trace(
                Cursor::new("# nothing\n"),
                "t",
                TraceFormat::Alibaba,
                &TraceOptions::new()
            ),
            Err(TraceError::Empty)
        ));
    }

    #[test]
    fn duration_rescales_the_time_axis() {
        let replay = read_trace(
            Cursor::new(ALIBABA),
            "t",
            TraceFormat::Alibaba,
            &TraceOptions::new().with_duration(900.0),
        )
        .unwrap();
        // Raw span is 3 bins × 30s = 90s; scaled ×10.
        assert!((replay.stats.span_secs - 900.0).abs() < 1e-9);
        assert_eq!(replay.source.steps()[1].0, 300.0);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let bad_bin = TraceOptions::new().with_bin_secs(0.0);
        assert!(matches!(
            read_trace(Cursor::new(ALIBABA), "t", TraceFormat::Alibaba, &bad_bin),
            Err(TraceError::Invalid(_))
        ));
        let bad_range = TraceOptions::new().with_target_peak(5).with_floor_users(10);
        assert!(matches!(
            read_trace(Cursor::new(ALIBABA), "t", TraceFormat::Alibaba, &bad_range),
            Err(TraceError::Invalid(_))
        ));
    }

    #[test]
    fn mix_floor_keeps_every_class_alive() {
        // All rows are browsing-class.
        let text = "t,1,j,1,T,0,10,50,0.1\n";
        let replay = read_trace(
            Cursor::new(text),
            "t",
            TraceFormat::Alibaba,
            &TraceOptions::new().with_mix_floor(0.05),
        )
        .unwrap();
        assert!((replay.mix[0] - 0.90).abs() < 1e-12);
        assert!((replay.mix[1] - 0.05).abs() < 1e-12);
        assert!((replay.mix[2] - 0.05).abs() < 1e-12);
        assert!((replay.mix.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spike_points_flag_only_large_jumps() {
        let src = TraceSource::from_steps(
            "s",
            TraceFormat::Alibaba,
            vec![(0.0, 100), (30.0, 110), (60.0, 400), (90.0, 105)],
        );
        // 10% drift is below a 50% threshold; 110→400 and 400→105 are not.
        assert_eq!(src.spike_points(0.0, 120.0, 0.5), vec![60.0, 90.0]);
        // Window clipping.
        assert_eq!(src.spike_points(0.0, 60.0, 0.5), vec![60.0]);
    }

    #[test]
    fn trace_source_round_trips_through_serde() {
        let src = TraceSource::from_steps(
            "alibaba_sample",
            TraceFormat::Google,
            vec![(0.0, 5), (30.0, 9)],
        );
        let json = serde_json::to_string(&src).unwrap();
        let back: TraceSource = serde_json::from_str(&json).unwrap();
        assert_eq!(back, src);
    }
}
