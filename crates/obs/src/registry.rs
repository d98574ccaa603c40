//! Named counters, gauges, and histograms with Prometheus-text export.
//!
//! A [`Registry`] is plain owned state — no globals, no locks, no wall
//! clock — so telemetry stays deterministic and inert: a registry that
//! nobody reads changes nothing about the computation that fed it.
//! Names are kept in `BTreeMap`s so the exported snapshot is stably
//! ordered regardless of insertion order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::Histogram;

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`.
/// Everything else (including arbitrary UTF-8) passes through verbatim.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Builds a metric key `name{k1="v1",k2="v2"}` with every label value
/// escaped as the text format requires. With no labels the bare name is
/// returned. Use this for the `name` argument of [`Registry::add`],
/// [`Registry::set_gauge`], etc. so hostile label values (service names
/// with quotes, say) cannot corrupt the exported text.
pub fn with_labels(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// The metric family a (possibly labeled) key belongs to: everything
/// before the first `{`.
fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// A collection of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by `by`.
    pub fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`, creating it with a default
    /// geometric ladder (1e-6 … ~1e6, factor 4) on first use.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::exponential(1e-6, 4.0, 20))
            .record(value);
    }

    /// Read access to histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// counters as `# TYPE x counter`, gauges as gauges, histograms as
    /// cumulative `_bucket{le="..."}` series with `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        // Keys may carry a `{label="..."}` suffix (see [`with_labels`]);
        // the `# TYPE` header names the family once, not each series
        // (labeled series of one family need not be adjacent in key
        // order: `'{'` sorts after every metric-name character, so
        // `foo{...}` lands after a hypothetical `foob`).
        let mut typed = std::collections::BTreeSet::new();
        for (name, v) in &self.counters {
            let family = base_name(name);
            if typed.insert(family) {
                let _ = writeln!(out, "# TYPE {family} counter");
            }
            let _ = writeln!(out, "{name} {v}");
        }
        typed.clear();
        for (name, v) in &self.gauges {
            let family = base_name(name);
            if typed.insert(family) {
                let _ = writeln!(out, "# TYPE {family} gauge");
            }
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let (bounds, counts) = h.buckets();
            let mut cumulative = 0u64;
            for (b, c) in bounds.iter().zip(counts) {
                cumulative += c;
                let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.add("solves", 1);
        r.add("solves", 4);
        r.set_gauge("hit_rate", 0.42);
        assert_eq!(r.counter("solves"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("hit_rate"), Some(0.42));
        assert_eq!(r.gauge("absent"), None);
    }

    #[test]
    fn prometheus_text_is_sorted_and_cumulative() {
        let mut r = Registry::new();
        r.add("zeta_total", 1);
        r.add("alpha_total", 1);
        r.set_gauge("mid_gauge", 1.5);
        for v in [0.5, 1.5, 9.0] {
            r.observe("lat", v);
        }
        let text = r.prometheus_text();
        let alpha = text.find("alpha_total 1").unwrap();
        let zeta = text.find("zeta_total 1").unwrap();
        assert!(alpha < zeta, "counters must be name-sorted");
        assert!(text.contains("# TYPE mid_gauge gauge"));
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert!(buckets.contains(&1) && buckets.contains(&2), "{buckets:?}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_count 3"));
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape_label_value(r"C:\temp"), r"C:\\temp");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        // A value that combines all three hazards survives intact.
        let key = with_labels("atom_req_total", &[("svc", "a\\\"b\nc")]);
        assert_eq!(key, "atom_req_total{svc=\"a\\\\\\\"b\\nc\"}");
    }

    #[test]
    fn labeled_series_export_one_type_line_per_family() {
        let mut r = Registry::new();
        r.add(&with_labels("atom_req_total", &[("svc", "front-end")]), 1);
        r.add(&with_labels("atom_req_total", &[("svc", "orders")]), 2);
        r.set_gauge(&with_labels("atom_drift", &[("svc", "x\"y")]), -0.25);
        let text = r.prometheus_text();
        assert_eq!(text.matches("# TYPE atom_req_total counter").count(), 1);
        assert!(text.contains("atom_req_total{svc=\"front-end\"} 1"));
        assert!(text.contains("atom_req_total{svc=\"orders\"} 2"));
        assert!(text.contains("# TYPE atom_drift gauge"));
        assert!(text.contains("atom_drift{svc=\"x\\\"y\"} -0.25"));
        // No line may contain a raw (unescaped) quote inside a value:
        // after discounting `\"` escapes, quote chars must pair up.
        for line in text.lines() {
            let raw = line.matches('"').count() - line.matches("\\\"").count();
            assert_eq!(raw % 2, 0, "unbalanced quotes in {line:?}");
        }
    }

    #[test]
    fn with_labels_without_labels_is_the_bare_name() {
        assert_eq!(with_labels("atom_solves", &[]), "atom_solves");
    }
}
