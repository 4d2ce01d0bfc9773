//! Checks of the `ledger` binary (in `--smoke` mode) and of its seeded
//! program draw.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use squash_gencorpus::{CorpusSpec, SAMPLE_INDICES};
use squash_ledger::json::{self, Value};
use squash_ledger::programs;

const EXE: &str = env!("CARGO_BIN_EXE_ledger");

fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn bench() -> Value {
    let text =
        std::fs::read_to_string(bench_path()).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry under `key`.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|e| {
            let s = |k| {
                e.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the ledger and parses every line it prints.
fn run(args: &[&str]) -> Vec<Value> {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("ledger starts");
    assert!(
        out.status.success(),
        "ledger {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    text.lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect()
}

fn value(metrics: &Value, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .expect(name)
}

/// Checks a result: correct, nothing failed, and `metrics` holding exactly
/// the `want` metrics, each finite and in its unit.
fn check_result(w: &str, result: &Value, want: &[(String, String)]) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{w}"
    );
    let attempted = result.get("attempted").and_then(Value::as_f64);
    assert!(attempted.is_some_and(|a| a >= 1.0), "{w}");
    let metrics = result.get("metrics").expect("metrics");
    let emitted = metrics.as_object().expect("metrics object");
    assert_eq!(emitted.len(), want.len(), "{w}: {:?}", emitted.keys());
    for (name, unit) in want {
        let m = emitted
            .get(name)
            .unwrap_or_else(|| panic!("{w} lacks {name}"));
        assert!(value(metrics, name).is_finite(), "{w} {name}");
        let got = m.get("unit").and_then(Value::as_str);
        assert_eq!(got, Some(unit.as_str()), "{w} {name}");
    }
}

#[test]
fn every_benchmark_metric_is_emitted_finite_and_repeatable() {
    let bench = bench();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    // The form BENCHMARK.json's command is called in: one untraced
    // workload per process, whose last line has exactly four keys.
    let mut untraced = BTreeMap::new();
    for &w in &workloads {
        let lines = run(&["--workload", w, "--smoke", "--trace", "0"]);
        let result = lines.last().expect("a result line");
        let keys: BTreeSet<&str> = result
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        let want = BTreeSet::from(["attempted", "correct", "failed", "metrics"]);
        assert_eq!(keys, want, "{w}");
        check_result(w, result, &listed(&bench, "end_to_end"));
        untraced.insert(w, result.get("metrics").expect("metrics").clone());
    }
    // The default form: every workload traced in a child of its own, one
    // merged line each.
    let lines = run(&["--smoke"]);
    assert_eq!(lines.len(), workloads.len());
    for line in &lines {
        let w = line
            .get("workload")
            .and_then(Value::as_str)
            .expect("workload");
        check_result(w, line, &listed(&bench, "per_layer"));
        // This second invocation must reproduce the deterministic ratios.
        let again = line
            .get("end_to_end")
            .expect("traced runs report end_to_end");
        for name in ["size_ratio", "sim_cycles_ratio"] {
            assert_eq!(value(&untraced[w], name), value(again, name), "{w} {name}");
        }
    }
}

#[test]
fn seed_zero_is_the_pinned_sample_and_other_seeds_shuffle_its_inputs() {
    let spec = CorpusSpec::standard();
    // The pinned sample, less its one large program.
    let pinned: Vec<&str> = SAMPLE_INDICES
        .iter()
        .map(|&i| spec.entries[i].name.as_str())
        .filter(|n| !n.contains("large"))
        .collect();
    assert_eq!(pinned.len(), SAMPLE_INDICES.len() - 1);
    let seed0 = programs::corpus(0, false, usize::MAX);
    let names0: Vec<&str> = seed0.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names0, pinned);
    for s in &seed0 {
        let w = squash_workloads::by_name(&s.name).expect("corpus workload");
        assert_eq!(s.profiling_input, w.profiling_input(), "{}", s.name);
        assert_eq!(s.timing_input, w.timing_input(), "{}", s.name);
    }
    let seed1 = programs::corpus(1, false, usize::MAX);
    assert_eq!(
        seed1.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        pinned
    );
    for (a, b) in seed0.iter().zip(&seed1) {
        // A new order of the same bytes: the same hot and cold work.
        let sorted = |v: &[u8]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(&a.timing_input),
            sorted(&b.timing_input),
            "{}",
            a.name
        );
        assert_eq!(
            sorted(&a.profiling_input),
            sorted(&b.profiling_input),
            "{}",
            a.name
        );
        assert_ne!(a.timing_input, b.timing_input, "{}", a.name);
        assert_ne!(a.profiling_input, b.profiling_input, "{}", a.name);
    }
    assert_ne!(
        programs::input_digest(&seed0),
        programs::input_digest(&seed1)
    );
    assert_eq!(
        programs::input_digest(&seed1),
        programs::input_digest(&programs::corpus(1, false, usize::MAX))
    );
}

/// A saved result in the shape the ledger prints, every end-to-end metric
/// at 1.0 except `latency_ms`.
fn saved_run(bench: &Value, latency: f64) -> String {
    let metrics: Vec<String> = listed(bench, "end_to_end")
        .iter()
        .map(|(name, unit)| {
            let v = if name == "latency_ms" { latency } else { 1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"workload\": \"run_trap\", \"seed\": 0, \"programs\": []}}\n\
         {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}\n",
        metrics.join(", ")
    )
}

#[test]
fn compare_flags_a_regression_past_the_bound_and_passes_identical_runs() {
    let bench = bench();
    let bound = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some("latency_ms"))
        })
        .and_then(|m| m.get("bound"))
        .and_then(Value::as_f64)
        .expect("latency_ms has a bound");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, latency: f64| {
        let p = dir.join(name);
        std::fs::write(&p, saved_run(&bench, latency)).expect("write a saved run");
        p.to_string_lossy().into_owned()
    };
    let base = write("compare_base.json", 10.0);
    let compare = |latency: f64| {
        let new = write("compare_new.json", latency);
        let out = Command::new(EXE)
            .args(["--compare", &base, "--new", &new])
            .current_dir(bench_path().parent().expect("the repository root"))
            .output()
            .expect("ledger starts");
        let table = String::from_utf8_lossy(&out.stdout).into_owned();
        let row = table
            .lines()
            .find(|l| l.contains("latency_ms"))
            .unwrap_or_else(|| panic!("no latency row in {table}"))
            .to_string();
        (out.status.code(), row)
    };
    let (code, row) = compare(10.0);
    assert_eq!(code, Some(0), "{row}");
    assert!(row.ends_with(" ok"), "{row}");
    let (code, row) = compare(10.0 * (1.0 + bound / 2.0));
    assert_eq!(code, Some(0), "a change inside the bound passes: {row}");
    let (code, row) = compare(10.0 * (1.0 + 2.0 * bound));
    assert_eq!(code, Some(1), "{row}");
    assert!(row.ends_with("REGRESSION"), "{row}");
}
