//! A metrics registry: counters, gauges and fixed-bucket histograms with a
//! Prometheus text-exposition encoder.
//!
//! Metrics are keyed `(family name, sorted label set)` in `BTreeMap`s, so
//! the encoder emits deterministic output — the property every downstream
//! diff, golden test and merge depends on. The registry is a passive value:
//! producers mirror their counters in (`squash::telemetry::Telemetry::registry`
//! builds one from a telemetry document), the encoder reads it out.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulating count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A fixed-bucket histogram: `bounds.len() + 1` buckets, the last catching
/// everything above the highest bound (the Prometheus `+Inf` bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over `bounds` (strictly increasing, finite).
    ///
    /// # Panics
    ///
    /// Panics on unsorted, duplicate or non-finite bounds — registry misuse,
    /// not data.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
        }
    }

    /// A histogram assembled from pre-bucketed data: `counts` has one entry
    /// per bound plus the overflow bucket, `sum` is the (possibly
    /// approximate) total of the observed values.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != bounds.len() + 1` or the bounds are
    /// invalid.
    pub fn from_parts(bounds: &[f64], counts: Vec<u64>, sum: f64) -> Histogram {
        let mut h = Histogram::new(bounds);
        assert_eq!(
            counts.len(),
            h.counts.len(),
            "need {} bucket counts for {} bounds",
            h.counts.len(),
            bounds.len()
        );
        h.counts = counts;
        h.sum = sum;
        h
    }

    /// Records `value` once.
    pub fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Records `value` `n` times.
    pub fn observe_n(&mut self, value: f64, n: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] = self.counts[idx].saturating_add(n);
        self.sum += value * n as f64;
    }

    /// The bucket upper bounds (excluding `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

type LabelSet = Vec<(String, String)>;

#[derive(Debug, Clone)]
struct Family {
    help: String,
    kind: MetricKind,
    samples: BTreeMap<LabelSet, Value>,
}

/// A deterministic metrics registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    set.sort();
    set
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registered metric families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Family {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let f = self.families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            samples: BTreeMap::new(),
        });
        assert!(
            f.kind == kind,
            "metric {name:?} registered as {} and used as {}",
            f.kind.name(),
            kind.name()
        );
        f
    }

    /// Adds `v` to the counter `name{labels}` (creating it at zero).
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        let sample = self
            .family(name, help, MetricKind::Counter)
            .samples
            .entry(label_set(labels))
            .or_insert(Value::Counter(0));
        if let Value::Counter(c) = sample {
            *c = c.saturating_add(v);
        }
    }

    /// Sets the gauge `name{labels}` to `v`.
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.family(name, help, MetricKind::Gauge)
            .samples
            .insert(label_set(labels), Value::Gauge(v));
    }

    /// Installs (replacing any previous) the histogram `name{labels}`.
    pub fn set_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: Histogram,
    ) {
        self.family(name, help, MetricKind::Histogram)
            .samples
            .insert(label_set(labels), Value::Histogram(h));
    }

    /// Renders the registry in the Prometheus text exposition format. An
    /// empty registry renders as the empty string (a valid exposition).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, f) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {name} {}", f.kind.name());
            for (labels, value) in &f.samples {
                match value {
                    Value::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {c}", render_labels(labels, None));
                    }
                    Value::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {g}", render_labels(labels, None));
                    }
                    Value::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, &c) in h.counts().iter().enumerate() {
                            cum = cum.saturating_add(c);
                            let le = match h.bounds().get(i) {
                                Some(b) => format!("{b}"),
                                None => "+Inf".to_string(),
                            };
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                render_labels(labels, Some(&le))
                            );
                        }
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum());
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

/// Prometheus label-value escaping: backslash, double-quote and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// HELP-line escaping: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_renders_empty_exposition() {
        let r = Registry::new();
        assert_eq!(r.to_prometheus(), "");
        assert!(r.is_empty());
    }

    #[test]
    fn counters_and_gauges_render_deterministically() {
        let mut r = Registry::new();
        r.add_counter("squash_traps_total", "traps", &[("kind", "entry")], 5);
        r.add_counter("squash_traps_total", "traps", &[("kind", "restore")], 2);
        r.add_counter("squash_traps_total", "traps", &[("kind", "entry")], 3);
        r.set_gauge("squash_run_status", "exit status", &[], 0.0);
        let text = r.to_prometheus();
        let expect = "# HELP squash_run_status exit status\n\
                      # TYPE squash_run_status gauge\n\
                      squash_run_status 0\n\
                      # HELP squash_traps_total traps\n\
                      # TYPE squash_traps_total counter\n\
                      squash_traps_total{kind=\"entry\"} 8\n\
                      squash_traps_total{kind=\"restore\"} 2\n";
        assert_eq!(text, expect);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = Registry::new();
        r.set_gauge(
            "squash_info",
            "image under test",
            &[("name", "a\"b\\c\nd")],
            1.0,
        );
        let text = r.to_prometheus();
        assert!(
            text.contains("squash_info{name=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_consistent() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5); // bucket le=1
        h.observe(1.0); // le=1 (le is inclusive)
        h.observe(7.0); // le=10
        h.observe(1000.0); // +Inf
        let mut r = Registry::new();
        r.set_histogram("squash_lat", "latency", &[], h.clone());
        let text = r.to_prometheus();
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("squash_lat_bucket"))
            .map(|l| l.rsplit(' ').next().and_then(|n| n.parse().ok()).expect("count"))
            .collect();
        // Cumulative and monotonically non-decreasing.
        assert_eq!(buckets, vec![2, 3, 3, 4]);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        // The +Inf bucket equals _count.
        assert!(text.contains("squash_lat_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("squash_lat_count 4"), "{text}");
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 0.5 + 1.0 + 7.0 + 1000.0);
    }

    #[test]
    fn histogram_from_parts_round_trips() {
        let h = Histogram::from_parts(&[1.0, 2.0], vec![4, 5, 6], 99.0);
        assert_eq!(h.count(), 15);
        assert_eq!(h.sum(), 99.0);
        assert_eq!(h.counts(), &[4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_panic() {
        let mut r = Registry::new();
        r.add_counter("m", "", &[], 1);
        r.set_gauge("m", "", &[], 1.0);
    }
}
