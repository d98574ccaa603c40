//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! layer of the program (`cluster.run_window`, `scaler.decide`, …); spans
//! inside the program are a later change. A span carries its name, start,
//! end, the span that caused it and one operation id per window or per
//! decide. Spans stay in memory and are written when the run ends, as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! A layer's *self time* is its span's duration minus the part its child
//! spans cover. The root span's self time is what no layer accounts for —
//! the *residual* — and a trace whose residual is large says the spans
//! miss a layer.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{Map, Value};

use crate::json::{num, obj, text, uint};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-call name.
    pub name: &'static str,
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one window or one decide.
    pub op: u64,
}

impl Span {
    /// Duration (ns).
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended records nothing useful"]
pub struct Open(Option<usize>);

/// In-memory span recorder. When disabled every call is a branch and
/// nothing else — no clock read, no allocation — so the untraced
/// repetitions pay nothing for it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer; its epoch is now.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time, count and total per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations (ns).
    pub total: u64,
    /// Summed self times (ns): durations minus child cover.
    pub self_time: u64,
}

/// Per-name self times of a span set, plus the root's view of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Per span name, sorted by name.
    pub names: BTreeMap<&'static str, NameStats>,
    /// Summed duration of the root spans (ns): the traced run.
    pub run: u64,
    /// Summed self time of the root spans (ns): run time no layer span
    /// accounts for.
    pub residual: u64,
}

impl Breakdown {
    /// Residual as a percentage of the run.
    pub fn residual_pct(&self) -> f64 {
        if self.run == 0 {
            0.0
        } else {
            100.0 * self.residual as f64 / self.run as f64
        }
    }

    /// `name`'s self time as a percentage of the run (0 when the layer
    /// was never called).
    pub fn share_pct(&self, name: &str) -> f64 {
        match (self.names.get(name), self.run) {
            (Some(s), run) if run > 0 => 100.0 * s.self_time as f64 / run as f64,
            _ => 0.0,
        }
    }

    /// Stats of `name` (zeros when absent).
    pub fn get(&self, name: &str) -> NameStats {
        self.names.get(name).copied().unwrap_or_default()
    }
}

/// Computes self times. Children never overlap each other (the recorder
/// is a stack), so a span's child cover is the plain sum of its direct
/// children's durations.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut cover = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            cover[p] += s.duration();
        }
    }
    let mut names: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    let (mut run, mut residual) = (0, 0);
    for (s, &covered) in spans.iter().zip(&cover) {
        let own = s.duration().saturating_sub(covered);
        let e = names.entry(s.name).or_default();
        e.count += 1;
        e.total += s.duration();
        e.self_time += own;
        if s.parent.is_none() {
            run += s.duration();
            residual += own;
        }
    }
    Breakdown {
        names,
        run,
        residual,
    }
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
/// microsecond timestamps, the operation id and the parent's index in
/// `args`.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut events = vec![obj([
        ("name", text("process_name")),
        ("ph", text("M")),
        ("pid", uint(1)),
        ("args", obj([("name", text(process))])),
    ])];
    events.extend(spans.iter().enumerate().map(|(i, s)| {
        let mut args = Map::new();
        args.insert("span".into(), uint(i as u64));
        args.insert("op".into(), uint(s.op));
        if let Some(p) = s.parent {
            args.insert("parent".into(), uint(p as u64));
        }
        obj([
            ("name", text(s.name)),
            ("cat", text("benchmark")),
            ("ph", text("X")),
            ("pid", uint(1)),
            ("tid", uint(1)),
            ("ts", num(s.start as f64 / 1e3)),
            ("dur", num(s.duration() as f64 / 1e3)),
            ("args", Value::Object(args)),
        ])
    }));
    let doc = obj([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", text("ms")),
    ]);
    serde_json::to_string(&doc).expect("a value tree always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // run [0,100) ⊃ window [10,90) ⊃ {sim [10,60), decide [60,85)}.
        let spans = vec![
            span("run", 0, 100, None),
            span("window", 10, 90, Some(0)),
            span("sim", 10, 60, Some(1)),
            span("decide", 60, 85, Some(1)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.run, 100);
        assert_eq!(b.residual, 20);
        assert_eq!(b.residual_pct(), 20.0);
        assert_eq!(b.get("window").self_time, 5);
        assert_eq!(b.get("sim").self_time, 50);
        assert_eq!(b.get("decide").self_time, 25);
        assert_eq!(b.share_pct("sim"), 50.0);
        assert_eq!(b.share_pct("absent"), 0.0);
        // Self times partition the run exactly.
        let sum: u64 = b.names.values().map(|s| s.self_time).sum();
        assert_eq!(sum, b.run);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span("run", 0, 50, None),
            span("sim", 0, 20, Some(0)),
            span("sim", 20, 45, Some(0)),
        ];
        let b = breakdown(&spans);
        assert_eq!(
            b.get("sim"),
            NameStats {
                count: 2,
                total: 45,
                self_time: 45
            }
        );
        assert_eq!(b.residual, 5);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::on();
        let run = t.begin("run", 0);
        let v = t.span("sim", 7, || 42);
        t.end(run);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("sim", Some(0), 7));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);

        let mut off = Tracer::off();
        let run = off.begin("run", 0);
        assert_eq!(off.span("sim", 1, || 1), 1);
        off.end(run);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_export_re_parses() {
        let spans = vec![
            span("run", 0, 2_000, None),
            span("sim", 500, 1_500, Some(0)),
        ];
        let text = chrome_json(&spans, "des-sockshop");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        let sim = &events[2];
        assert_eq!(sim.get("name").and_then(Value::as_str), Some("sim"));
        assert_eq!(sim.get("ts").and_then(Value::as_f64), Some(0.5));
        assert_eq!(sim.get("dur").and_then(Value::as_f64), Some(1.0));
        let parent = sim.get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Value::as_u64), Some(0));
    }
}
