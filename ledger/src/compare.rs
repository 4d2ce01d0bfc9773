//! `ledger --compare`: the median of each metric in saved result lines,
//! new against base, judged by the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// End-to-end metrics that repeat exactly for one seed; any change in them
/// is real, so they are compared exactly rather than against a bound.
const EXACT: [&str; 2] = ["size_ratio", "sim_cycles_ratio"];

/// The end-to-end metrics of `BENCHMARK.json`: name → (lower is better,
/// bound). Per-layer metrics have no bound and are only reported.
pub type Spec = BTreeMap<String, (bool, f64)>;

/// Reads the end-to-end metric table of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message when the document is not JSON or an entry lacks its keys.
pub fn load_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let mut spec = Spec::new();
    for entry in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let lower = match entry.get("better").and_then(Value::as_str) {
            Some("lower") => true,
            Some("higher") => false,
            _ => return Err(format!("{name}: `better` must be lower or higher")),
        };
        let bound = entry
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or(format!("{name}: no bound"))?;
        spec.insert(name.to_string(), (lower, bound));
    }
    Ok(spec)
}

/// Values per `(workload, metric)` from saved ledger output: every JSON
/// line's `metrics` and `end_to_end` objects, under the workload named by
/// the latest line that names one.
///
/// # Errors
///
/// A message for a line that starts like JSON but does not parse.
pub fn collect(texts: &[String]) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for text in texts {
        let mut workload = String::from("?");
        for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
            let v = json::parse(line)?;
            if let Some(w) = v.get("workload").and_then(Value::as_str) {
                workload = w.to_string();
            }
            for key in ["end_to_end", "metrics"] {
                for (name, m) in v.get(key).and_then(Value::as_object).into_iter().flatten() {
                    if let Some(x) = m.get("value").and_then(Value::as_f64) {
                        out.entry((workload.clone(), name.clone()))
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default exclusive method); `None` for fewer
/// than two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // May fall outside 0..4 near the ends, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The median of `values` (0 for none).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartile distance as a share of the median (0 for fewer than two
/// values).
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the base runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// The verdict: `same`, `better`, `ok`, `REGRESSION`, `unresolved` or
    /// `info` (per-layer metrics, which have no bound).
    pub verdict: &'static str,
    /// The bound, for end-to-end metrics.
    pub bound: Option<f64>,
}

/// Compares every metric present in both `base` and `new`.
pub fn compare(
    spec: &Spec,
    base: &BTreeMap<(String, String), Vec<f64>>,
    new: &BTreeMap<(String, String), Vec<f64>>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (key, b) in base {
        let Some(n) = new.get(key) else { continue };
        let (workload, metric) = key;
        let (bm, nm) = (median(b), median(n));
        // How much worse new is than base, as a share of base.
        let worse_by = |lower: bool| {
            let r = if bm == 0.0 { 1.0 } else { nm / bm };
            if lower {
                r - 1.0
            } else {
                1.0 - r
            }
        };
        let (verdict, bound) = match spec.get(metric) {
            Some(&(lower, bound)) => {
                let w = worse_by(lower);
                let all_better = if lower {
                    n.iter().all(|x| b.iter().all(|y| x < y))
                } else {
                    n.iter().all(|x| b.iter().all(|y| x > y))
                };
                let verdict = if EXACT.contains(&metric.as_str()) {
                    if nm == bm {
                        "same"
                    } else if w > 0.0 {
                        "REGRESSION"
                    } else {
                        "better"
                    }
                } else if (spread(b) > bound || spread(n) > bound) && !all_better {
                    "unresolved"
                } else if w > bound {
                    "REGRESSION"
                } else if w < -bound {
                    "better"
                } else {
                    "ok"
                };
                (verdict, Some(bound))
            }
            None => ("info", None),
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: bm,
            new: nm,
            verdict,
            bound,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn bounds_and_exact_metrics() {
        let spec: Spec = [
            ("latency_ms".to_string(), (true, 0.1)),
            ("size_ratio".to_string(), (true, 0.02)),
        ]
        .into_iter()
        .collect();
        let key = |m: &str| ("w".to_string(), m.to_string());
        let base: BTreeMap<_, _> = [
            (key("latency_ms"), vec![10.0, 10.1, 9.9]),
            (key("size_ratio"), vec![0.8]),
            (key("trap.count"), vec![5.0]),
        ]
        .into_iter()
        .collect();
        let mut new = base.clone();
        assert!(compare(&spec, &base, &new)
            .iter()
            .all(|r| r.verdict != "REGRESSION"));
        new.insert(key("size_ratio"), vec![0.8001]);
        new.insert(key("latency_ms"), vec![12.0, 12.1, 11.9]);
        let rows = compare(&spec, &base, &new);
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).map(|r| r.verdict);
        assert_eq!(verdict("latency_ms"), Some("REGRESSION"));
        assert_eq!(verdict("size_ratio"), Some("REGRESSION"));
        assert_eq!(verdict("trap.count"), Some("info"));
    }
}
