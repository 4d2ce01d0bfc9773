//! `squashmon` — fleet telemetry monitor: merge, summarize and audit the
//! JSON documents `squashrun --metrics-json` / `squashc --metrics-json`
//! emit.
//!
//! ```text
//! squashmon [--merge | --prom] FILE...
//! squashmon --audit [--threshold F] <image.sqsh> <telemetry.json> ...
//! ```
//!
//! Default mode prints a per-document summary table (including trace and
//! sampler drop counts per document) plus the merged attribution report.
//! `--merge` writes the merged document as one JSON line to stdout (pipe it
//! straight into `squashc --retune`); because merging sums drop counters,
//! merge mode additionally attributes nonzero trace/sampler drops to their
//! source documents on stderr, so a skewed fleet is not silently flattened. `--prom` renders
//! the merged document as Prometheus text exposition for scrape-style
//! collection. `FILE` may be `-` for stdin; in every mode the parser takes
//! the **last** non-empty line of each input, so `squashrun --metrics-json -`
//! output can be piped in verbatim even when the guest wrote to stdout
//! first.
//!
//! `--audit` takes alternating image/telemetry pairs and checks each
//! retuned image's recorded cycle prediction against the measured run
//! (`DESIGN.md` §16): relative error above the threshold (default
//! 0.05) exits with code **3**, so CI can gate on estimator drift.
//!
//! # Exit status
//!
//! * 0 — clean.
//! * 1 — usage or I/O errors, unparseable documents, unauditable images.
//! * 3 — `--audit` found drift above the threshold.

use squash_repro::squash::audit::{self, DriftRow, DEFAULT_DRIFT_THRESHOLD};
use squash_repro::obs::json;
use squash_repro::squash::telemetry::Telemetry;
use squash_repro::squash::image_file;
use std::process::ExitCode;

/// Exit code for estimator drift above the threshold — distinct from usage
/// errors (1) and from `squashrun`'s machine-check code (70).
const EXIT_DRIFT: u8 = 3;

enum Mode {
    Summary,
    Merge,
    Prom,
    Audit,
}

fn usage() -> String {
    "usage: squashmon [--merge | --prom] FILE...\n       \
     squashmon --audit [--threshold F] <image.sqsh> <telemetry.json> ..."
        .to_string()
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("squashmon: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut mode = Mode::Summary;
    let mut threshold = DEFAULT_DRIFT_THRESHOLD;
    let mut files = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--merge" => mode = Mode::Merge,
            "--prom" => mode = Mode::Prom,
            "--audit" => mode = Mode::Audit,
            "--threshold" => {
                let v = it.next().ok_or("missing value for --threshold")?;
                threshold = v.parse().map_err(|e| format!("--threshold: {e}"))?;
                if threshold.is_nan() || threshold < 0.0 {
                    return Err(format!("--threshold must be >= 0, got {threshold}"));
                }
            }
            "--help" | "-h" => return Err(usage()),
            other if other == "-" || !other.starts_with('-') => files.push(other.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if files.is_empty() {
        return Err(usage());
    }
    match mode {
        Mode::Audit => audit_mode(&files, threshold),
        mode => {
            let docs: Vec<Telemetry> =
                files.iter().map(|f| load_doc(f)).collect::<Result<_, _>>()?;
            let merged = if docs.len() == 1 { docs[0].clone() } else { Telemetry::merge(&docs) };
            match mode {
                Mode::Merge => {
                    // Merging sums drop counters, which silently erases
                    // *which* tenant's trace or flame data is truncated —
                    // attribute them per document on stderr (stdout stays
                    // one JSON line for `squashc --retune`).
                    report_drops(&files, &docs);
                    println!("{}", merged.to_json_string());
                }
                Mode::Prom => print!("{}", merged.registry().to_prometheus()),
                _ => summary(&files, &docs, &merged),
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Reads one telemetry document: the last non-empty line of `path`
/// (`-` = stdin), parsed as JSON. Tolerating leading lines lets
/// `squashrun --metrics-json -` output be piped in unfiltered.
fn load_doc(path: &str) -> Result<Telemetry, String> {
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty input"))?;
    let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
    Telemetry::from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Per-document drop attribution for `--merge` (stderr): a merged total is
/// a fleet-wide sum, so a skewed fleet — one tenant dropping everything,
/// the rest clean — would otherwise be indistinguishable from uniform
/// truncation. Quiet when nothing dropped.
fn report_drops(files: &[String], docs: &[Telemetry]) {
    for (file, d) in files.iter().zip(docs) {
        if d.trace_drops > 0 || d.sampler_drops > 0 {
            let who = if d.name.is_empty() { file.clone() } else { format!("{file} ({})", d.name) };
            eprintln!(
                "squashmon: drops in {who}: trace={} sampler={}",
                d.trace_drops, d.sampler_drops
            );
        }
    }
}

/// The default mode: one row per document, a merged-totals row when the
/// fleet has more than one, then the merged attribution report.
fn summary(files: &[String], docs: &[Telemetry], merged: &Telemetry) {
    println!(
        "{:<24} {:>14} {:>14} {:>10} {:>8} {:>8} {:>8}",
        "document", "instructions", "cycles", "decomp", "faults", "t_drops", "s_drops"
    );
    for (file, d) in files.iter().zip(docs) {
        println!(
            "{:<24} {:>14} {:>14} {:>10} {:>8} {:>8} {:>8}",
            file,
            d.run.map_or(0, |r| r.instructions),
            d.run.map_or(0, |r| r.cycles),
            d.runtime.map_or(0, |r| r.decompressions),
            d.faults.iter().fold(0u64, |n, f| n.saturating_add(f.count)),
            d.trace_drops,
            d.sampler_drops,
        );
    }
    if docs.len() > 1 {
        println!(
            "{:<24} {:>14} {:>14} {:>10} {:>8} {:>8} {:>8}",
            format!("merged ({} docs)", merged.docs),
            merged.run.map_or(0, |r| r.instructions),
            merged.run.map_or(0, |r| r.cycles),
            merged.runtime.map_or(0, |r| r.decompressions),
            merged.faults.iter().fold(0u64, |n, f| n.saturating_add(f.count)),
            merged.trace_drops,
            merged.sampler_drops,
        );
    }
    println!();
    print!("{}", merged.report());
}

/// `--audit`: alternating image/telemetry pairs; prints the drift table and
/// exits [`EXIT_DRIFT`] when any row exceeds the threshold.
fn audit_mode(files: &[String], threshold: f64) -> Result<ExitCode, String> {
    if files.len() < 2 || !files.len().is_multiple_of(2) {
        return Err("--audit needs alternating <image.sqsh> <telemetry.json> pairs".to_string());
    }
    let mut rows: Vec<DriftRow> = Vec::new();
    for pair in files.chunks(2) {
        let (image_path, doc_path) = (&pair[0], &pair[1]);
        let bytes =
            std::fs::read(image_path).map_err(|e| format!("{image_path}: {e}"))?;
        let squashed = image_file::read(&bytes).map_err(|e| e.to_string())?;
        let doc = load_doc(doc_path)?;
        rows.push(audit::drift(image_path, squashed.provenance.as_ref(), &doc)?);
    }
    println!(
        "{:<24} {:<12} {:>14} {:>14} {:>10}  verdict",
        "image", "source", "predicted", "measured", "rel_error"
    );
    let mut worst = 0.0f64;
    for row in &rows {
        let err = row.rel_error();
        worst = worst.max(err);
        println!(
            "{:<24} {:<12} {:>14} {:>14} {:>9.4}%  {}",
            row.image,
            row.source,
            row.predicted,
            row.measured,
            err * 100.0,
            if row.exceeds(threshold) { "DRIFT" } else { "ok" },
        );
    }
    if worst > threshold {
        eprintln!(
            "squashmon: estimator drift {:.4}% exceeds threshold {:.4}%",
            worst * 100.0,
            threshold * 100.0
        );
        return Ok(ExitCode::from(EXIT_DRIFT));
    }
    Ok(ExitCode::SUCCESS)
}
