//! `ledger` — run the squash benchmark, or compare saved runs.
//!
//! ```text
//! ledger [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
//! ledger --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
//! ledger --compare BASE... --new NEW...
//! ```
//!
//! Without `--workload` every workload runs in its own child process, one
//! after another, and each prints one JSON line. With `--workload` this
//! process runs that workload and prints two lines: what it ran, then the
//! result (`correct`, `attempted`, `failed`, `metrics`), whose metrics are
//! the end-to-end set with `--trace 0` and the per-layer set with
//! `--trace 1`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use squash_ledger::compare;
use squash_ledger::json::{metrics_object, string_array};
use squash_ledger::workloads::{self, Opts, Report, WORKLOADS};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    compare: Vec<String>,
    new: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = argv.iter();
    let mut files: Option<&mut Vec<String>> = None;
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a number of seconds, 0 or more")?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--compare" => {
                files = Some(&mut args.compare);
                continue;
            }
            "--new" => {
                files = Some(&mut args.new);
                continue;
            }
            f if !f.starts_with("--") => match files.as_deref_mut() {
                Some(list) => {
                    list.push(f.to_string());
                    continue;
                }
                None => return Err(format!("unexpected argument `{f}`")),
            },
            other => return Err(format!("unknown option `{other}`")),
        }
        files = None;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.compare.is_empty() || !args.new.is_empty() {
        return run_compare(&args);
    }
    match &args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    }
}

/// Runs one workload in this process and prints its two lines.
fn run_workload(name: &str, args: &Args) -> ExitCode {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
    };
    let Some(report) = workloads::run(name, &opts) else {
        eprintln!(
            "ledger: unknown workload `{name}` (one of {})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let (Some(path), Some(json)) = (&args.trace_out, &report.trace_json) {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("ledger: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", info_line(name, &opts, &report));
    let metrics = if opts.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.checks.failed == 0,
        report.checks.attempted.max(1),
        report.checks.failed,
        metrics_object(metrics)
    );
    ExitCode::SUCCESS
}

/// What a workload process ran; traced runs add the end-to-end metrics of
/// their own untraced rounds.
fn info_line(name: &str, opts: &Opts, report: &Report) -> String {
    let mut line = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"programs\": {}, \"input_digest\": \"{:#018x}\"",
        opts.seed,
        string_array(&report.programs),
        report.input_digest
    );
    if opts.trace {
        line.push_str(&format!(
            ", \"end_to_end\": {}",
            metrics_object(&report.end_to_end)
        ));
    }
    line.push('}');
    line
}

/// Runs every workload in a child process of its own and prints one
/// merged line per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ledger: cannot find this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let trace = args.trace.unwrap_or(true);
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &args.trace_out {
            cmd.arg("--trace-out").arg(per_workload(path, w));
        }
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ledger: starting workload {w}: {e}");
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        // Both lines are JSON objects: drop the info line's closing brace
        // and the result line's opening one to join them into one object.
        let merged = match (out.status.success(), lines.as_slice()) {
            (true, [.., info, result]) => info.strip_suffix('}').zip(result.strip_prefix('{')),
            _ => None,
        };
        match merged {
            Some((info, result)) => println!("{info}, {result}"),
            None => {
                eprintln!("ledger: workload {w} failed ({})", out.status);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `trace.json` → `trace.<workload>.json`, next to it.
fn per_workload(path: &Path, workload: &str) -> PathBuf {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!("{stem}.{workload}.json"))
}

fn run_compare(args: &Args) -> ExitCode {
    if args.compare.is_empty() || args.new.is_empty() {
        eprintln!("ledger: --compare needs base files and --new files");
        return ExitCode::from(2);
    }
    // Run from the repository root, where BENCHMARK.json holds the bounds.
    let bench = "BENCHMARK.json";
    let read = |paths: &[String]| -> Result<Vec<String>, String> {
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
            .collect()
    };
    let result = (|| -> Result<Vec<compare::Row>, String> {
        let spec = compare::load_spec(
            &std::fs::read_to_string(bench).map_err(|e| format!("{bench}: {e}"))?,
        )?;
        let base = compare::collect(&read(&args.compare)?)?;
        let new = compare::collect(&read(&args.new)?)?;
        Ok(compare::compare(&spec, &base, &new))
    })();
    let rows = match result {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<10} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for r in &rows {
        let ratio = if r.base == 0.0 { 1.0 } else { r.new / r.base };
        let bound = r.bound.map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "{:<10} {:<26} {:>14.6} {:>14.6} {:>8.4} {:>6}  {}",
            r.workload, r.metric, r.base, r.new, ratio, bound, r.verdict
        );
    }
    if rows.iter().any(|r| r.verdict == "REGRESSION") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
