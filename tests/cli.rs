//! Integration tests for the `squashc` and `squashrun` command-line tools,
//! driving the real binaries end to end through a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("squash-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const PROGRAM: &str = r#"
int rare(int x) { return (x * 37 + 11) % 101; }
int main() {
    int c;
    int acc = 0;
    while ((c = getb()) >= 0) {
        if (c > 200) acc = acc + rare(c);
        else acc = acc + c;
    }
    putb(acc & 255);
    return 0;
}
"#;

#[test]
fn squashc_then_squashrun_round_trip() {
    let dir = temp_dir();
    let src = dir.join("prog.mc");
    let prof = dir.join("prof.bin");
    let timing = dir.join("timing.bin");
    let image = dir.join("prog.sqsh");
    let profile_file = dir.join("prog.prof");
    std::fs::write(&src, PROGRAM).unwrap();
    std::fs::write(&prof, b"plain profiling bytes").unwrap();
    std::fs::write(&timing, b"timing \xf0\xff\xee bytes").unwrap();

    // Compile + profile + squash + verify + persist everything.
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([
            src.to_str().unwrap(),
            "--profile",
            prof.to_str().unwrap(),
            "--run",
            timing.to_str().unwrap(),
            "--emit",
            image.to_str().unwrap(),
            "--save-profile",
            profile_file.to_str().unwrap(),
        ])
        .output()
        .expect("squashc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "squashc failed:\n{stdout}");
    assert!(stdout.contains("outputs identical"), "{stdout}");
    assert!(image.exists());
    assert!(profile_file.exists());

    // Execute the persisted image; its stdout must equal the guest output.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([image.to_str().unwrap(), "--input", timing.to_str().unwrap(), "--stats"])
        .output()
        .expect("squashrun runs");
    assert!(out.status.success(), "squashrun failed");
    assert_eq!(out.stdout.len(), 1, "one byte of guest output expected");
    let stats = String::from_utf8_lossy(&out.stderr);
    assert!(stats.contains("decompressions"), "{stats}");

    // Reuse the saved profile.
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([
            src.to_str().unwrap(),
            "--load-profile",
            profile_file.to_str().unwrap(),
            "--run",
            timing.to_str().unwrap(),
        ])
        .output()
        .expect("squashc reruns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("loaded from"), "{stdout}");
    assert!(stdout.contains("outputs identical"), "{stdout}");
}

/// The telemetry surface: `--trace` writes schema-valid JSONL, `--report`
/// prints an attribution table with full coverage, `--metrics-json` writes a
/// parseable document with the documented sections, and none of the flags
/// change the simulated cycle count.
#[test]
fn squashrun_trace_report_and_metrics() {
    let dir = temp_dir();
    let src = dir.join("tele.mc");
    let timing = dir.join("tele-timing.bin");
    let image = dir.join("tele.sqsh");
    let trace = dir.join("tele.jsonl");
    let metrics = dir.join("tele-metrics.json");
    std::fs::write(&src, PROGRAM).unwrap();
    std::fs::write(&timing, b"timing \xf0\xff\xee bytes").unwrap();

    // Squash with everything cold so the run has decompressor traffic, and
    // collect compile-side metrics on the way.
    let compile_metrics = dir.join("tele-compile.json");
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([
            src.to_str().unwrap(),
            "--theta",
            "1.0",
            "--emit",
            image.to_str().unwrap(),
            "--metrics-json",
            compile_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("squashc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let doc = std::fs::read_to_string(&compile_metrics).unwrap();
    assert!(doc.contains("\"schema\":2"), "{doc}");
    assert!(doc.contains("\"stages\""), "{doc}");
    for stage in ["plan", "layout", "train", "encode", "assemble"] {
        assert!(doc.contains(&format!("\"name\":\"{stage}\"")), "{doc}");
    }

    // Untraced baseline cycles from the --stats summary.
    let cycles_of = |stderr: &str| -> u64 {
        let line = stderr
            .lines()
            .find(|l| l.contains(" cycles,"))
            .unwrap_or_else(|| panic!("no cycle line in {stderr}"));
        let cycles_field = line
            .split(", ")
            .find(|f| f.ends_with("cycles"))
            .unwrap_or_else(|| panic!("no cycles field in {line}"));
        cycles_field.split_whitespace().next().unwrap().parse().unwrap()
    };
    // Same configuration as the instrumented run below (--icache charges
    // miss cycles, so it must match), minus every tracing flag.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([image.to_str().unwrap(), "--input", timing.to_str().unwrap(), "--icache", "--stats"])
        .output()
        .expect("squashrun runs");
    assert!(out.status.success());
    let untraced_cycles = cycles_of(&String::from_utf8_lossy(&out.stderr));

    // The fully-instrumented run.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([
            image.to_str().unwrap(),
            "--input",
            timing.to_str().unwrap(),
            "--icache",
            "--stats",
            "--trace",
            trace.to_str().unwrap(),
            "--report",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("squashrun runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        cycles_of(&stderr),
        untraced_cycles,
        "tracing must not change simulated cycles"
    );
    assert!(stderr.contains("icache:"), "{stderr}");
    assert!(stderr.contains("Per-region attribution"), "{stderr}");
    assert!(stderr.contains("untracked: 0"), "{stderr}");

    // Trace lines: JSONL, every line an object with cycle + kind.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.lines().count() > 0, "empty trace");
    for line in trace_text.lines() {
        assert!(
            line.starts_with("{\"cycle\":") && line.contains("\"kind\":\"") && line.ends_with('}'),
            "malformed trace line: {line}"
        );
    }

    // Metrics document: documented sections present.
    let doc = std::fs::read_to_string(&metrics).unwrap();
    for key in ["\"schema\":2", "\"run\"", "\"runtime\"", "\"icache\"", "\"attribution\"", "\"coverage\""]
    {
        assert!(doc.contains(key), "missing {key} in {doc}");
    }
    assert!(doc.contains("\"untracked_cycles\":0"), "{doc}");
}

/// The closed loop at the CLI surface: squash, run with `--metrics-json`,
/// feed the document back through `--retune` (twice, to check the flag
/// repeats and merging works), and verify the retuned image runs no slower
/// and reports its provenance.
#[test]
fn squashc_retune_closes_the_loop() {
    let dir = temp_dir();
    let src = dir.join("loop.mc");
    let timing = dir.join("loop-timing.bin");
    let image = dir.join("loop.sqsh");
    let metrics = dir.join("loop-metrics.json");
    let retuned = dir.join("loop-retuned.sqsh");
    std::fs::write(&src, PROGRAM).unwrap();
    std::fs::write(&timing, b"timing \xf0\xff\xee bytes").unwrap();

    // Static image with everything cold, so the run has traffic to react to.
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--theta", "1.0", "--emit", image.to_str().unwrap()])
        .output()
        .expect("squashc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));

    let cycles_of = |stderr: &str| -> u64 {
        let line = stderr.lines().find(|l| l.contains(" cycles,")).unwrap();
        let f = line.split(", ").find(|f| f.ends_with("cycles")).unwrap();
        f.split_whitespace().next().unwrap().parse().unwrap()
    };
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([
            image.to_str().unwrap(),
            "--input",
            timing.to_str().unwrap(),
            "--stats",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("squashrun runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let static_cycles = cycles_of(&String::from_utf8_lossy(&out.stderr));
    let static_output = out.stdout.clone();

    // Feed the telemetry back; repeating --retune merges the fleet.
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([
            src.to_str().unwrap(),
            "--theta",
            "1.0",
            "--retune",
            metrics.to_str().unwrap(),
            "--retune",
            metrics.to_str().unwrap(),
            "--emit",
            retuned.to_str().unwrap(),
        ])
        .output()
        .expect("squashc retunes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "squashc --retune failed:\n{stdout}");
    assert!(stdout.contains("2 telemetry documents"), "{stdout}");
    assert!(stdout.contains("candidate"), "{stdout}");

    // The retuned image behaves identically, runs no slower, and reports
    // its provenance.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([
            retuned.to_str().unwrap(),
            "--input",
            timing.to_str().unwrap(),
            "--stats",
            "--report",
        ])
        .output()
        .expect("squashrun runs retuned image");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout, static_output, "retuning changed guest output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let retuned_cycles = cycles_of(&stderr);
    assert!(
        retuned_cycles <= static_cycles,
        "retuned image slower: {retuned_cycles} > {static_cycles}"
    );
    assert!(stderr.contains("provenance: retuned from measured telemetry"), "{stderr}");
    assert!(stderr.contains("2 documents"), "{stderr}");

    // A static image reports the absence of provenance rather than nothing.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([image.to_str().unwrap(), "--input", timing.to_str().unwrap(), "--report"])
        .output()
        .expect("squashrun runs static image");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("provenance: none (static-profile image)"), "{stderr}");
}

/// `--retune` usage errors exit 1 with a clear message: unreadable or
/// unparseable telemetry, and a non-finite θ is rejected at the CLI
/// boundary before any work happens.
#[test]
fn squashc_retune_rejects_bad_inputs() {
    let dir = temp_dir();
    let src = dir.join("bad-retune.mc");
    std::fs::write(&src, PROGRAM).unwrap();

    // Missing telemetry file.
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--retune", "/nonexistent/telemetry.json"])
        .output()
        .expect("squashc runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("squashc:"));

    // Unparseable telemetry.
    let junk = dir.join("junk.json");
    std::fs::write(&junk, "{ not json").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--retune", junk.to_str().unwrap()])
        .output()
        .expect("squashc runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));

    // Non-finite θ dies at argument parsing.
    for bad in ["nan", "inf", "-inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
            .args([src.to_str().unwrap(), "--theta", bad])
            .output()
            .expect("squashc runs");
        assert!(!out.status.success(), "--theta {bad} accepted");
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("finite"), "--theta {bad}: {err}");
    }

    // SQSH0003 is the only output format: the retired format selector is
    // an unknown option.
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--emit-format", "2"])
        .output()
        .expect("squashc runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn squashc_reports_errors_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .arg("/nonexistent/path.mc")
        .output()
        .expect("squashc runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("squashc:"), "{err}");

    let dir = temp_dir();
    let bad = dir.join("bad.mc");
    std::fs::write(&bad, "int main() { return undeclared_thing; }").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .arg(bad.to_str().unwrap())
        .output()
        .expect("squashc runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("undeclared"), "{err}");
}

#[test]
fn squashrun_rejects_garbage_images() {
    let dir = temp_dir();
    let bogus = dir.join("bogus.sqsh");
    std::fs::write(&bogus, b"not an image at all").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .arg(bogus.to_str().unwrap())
        .output()
        .expect("squashrun runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("magic"), "{err}");
}

/// The observability surface of `squashrun`: `--spans` writes loadable
/// Chrome trace JSON, `--samples` writes collapsed stacks that conserve the
/// sample count, `--metrics-json -` puts the document on stdout after the
/// guest bytes, and none of it changes the simulated cycle count.
#[test]
fn squashrun_spans_samples_and_stdout_metrics() {
    let dir = temp_dir();
    let src = dir.join("obs.mc");
    let timing = dir.join("obs-timing.bin");
    let image = dir.join("obs.sqsh");
    let spans = dir.join("obs-spans.json");
    let samples = dir.join("obs-samples.txt");
    std::fs::write(&src, PROGRAM).unwrap();
    std::fs::write(&timing, b"timing \xf0\xff\xee bytes").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--theta", "1.0", "--emit", image.to_str().unwrap()])
        .output()
        .expect("squashc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));

    let cycles_of = |stderr: &str| -> u64 {
        let line = stderr.lines().find(|l| l.contains(" cycles,")).unwrap();
        let f = line.split(", ").find(|f| f.ends_with("cycles")).unwrap();
        f.split_whitespace().next().unwrap().parse().unwrap()
    };
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([image.to_str().unwrap(), "--input", timing.to_str().unwrap(), "--stats"])
        .output()
        .expect("squashrun runs");
    assert!(out.status.success());
    let plain_cycles = cycles_of(&String::from_utf8_lossy(&out.stderr));
    let guest_output = out.stdout.clone();

    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([
            image.to_str().unwrap(),
            "--input",
            timing.to_str().unwrap(),
            "--stats",
            "--spans",
            spans.to_str().unwrap(),
            "--samples",
            samples.to_str().unwrap(),
            "--sample-every",
            "100",
            "--metrics-json",
            "-",
        ])
        .output()
        .expect("squashrun runs instrumented");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(cycles_of(&stderr), plain_cycles, "observability changed cycles");

    // stdout = guest bytes, then the telemetry document on its own line.
    let stdout = out.stdout;
    assert!(stdout.starts_with(&guest_output), "guest bytes must come first");
    let text = String::from_utf8_lossy(&stdout);
    let doc = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
    assert!(doc.starts_with("{\"schema\":2"), "no telemetry on stdout: {doc}");
    assert!(doc.contains("\"attribution\""), "{doc}");

    // Spans: Chrome trace JSON in the cycle domain with service + verify
    // brackets (θ = 1.0 guarantees decompressor traffic).
    let spans_text = std::fs::read_to_string(&spans).unwrap();
    assert!(spans_text.starts_with("{\"traceEvents\":["), "{spans_text}");
    for needle in ["\"name\":\"service/entry\"", "\"name\":\"decompress/r", "\"name\":\"verify/r", "\"clock\":\"cycles\""] {
        assert!(spans_text.contains(needle), "missing {needle} in {spans_text}");
    }

    // Samples: collapsed stacks, every line `frames count`, counts summing
    // to cycles / period.
    let samples_text = std::fs::read_to_string(&samples).unwrap();
    let mut total = 0u64;
    for line in samples_text.lines() {
        let (stack, count) = line.rsplit_once(' ').unwrap();
        assert!(stack.contains(';'), "unframed stack line: {line}");
        total += count.parse::<u64>().unwrap();
    }
    assert_eq!(total, plain_cycles / 100, "sample count must be cycles/period");
}

/// `squashc --metrics-json -` reserves stdout for the document and moves
/// the progress chatter to stderr; `--spans` writes the stage timeline.
#[test]
fn squashc_stdout_metrics_and_stage_spans() {
    let dir = temp_dir();
    let src = dir.join("cobs.mc");
    let timing = dir.join("cobs-timing.bin");
    let spans = dir.join("cobs-spans.json");
    std::fs::write(&src, PROGRAM).unwrap();
    std::fs::write(&timing, b"timing \xf0\xff\xee bytes").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([
            src.to_str().unwrap(),
            "--theta",
            "1.0",
            "--run",
            timing.to_str().unwrap(),
            "--spans",
            spans.to_str().unwrap(),
            "--metrics-json",
            "-",
        ])
        .output()
        .expect("squashc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // stdout is exactly the telemetry document; the chatter moved to stderr.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "stdout not a single document:\n{stdout}");
    assert!(stdout.starts_with("{\"schema\":2"), "{stdout}");
    for key in ["\"stages\"", "\"run\"", "\"runtime\""] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("outputs identical"), "chatter lost: {stderr}");

    // Stage spans: wall-ns clock, one span per pipeline stage.
    let spans_text = std::fs::read_to_string(&spans).unwrap();
    assert!(spans_text.contains("\"clock\":\"ns\""), "{spans_text}");
    for stage in ["plan", "layout", "train", "encode", "assemble"] {
        assert!(spans_text.contains(&format!("\"name\":\"stage/{stage}\"")), "{spans_text}");
    }
}

/// `squashrun --report` and the telemetry document surface trace-ring drops
/// when `--trace-last` truncates, and old documents without the field still
/// parse (the satellite's additive-schema contract is covered in the
/// library tests; here the flag surface).
#[test]
fn squashrun_surfaces_trace_drops() {
    let dir = temp_dir();
    let src = dir.join("drops.mc");
    let timing = dir.join("drops-timing.bin");
    let image = dir.join("drops.sqsh");
    let trace = dir.join("drops.jsonl");
    std::fs::write(&src, PROGRAM).unwrap();
    std::fs::write(&timing, b"timing \xf0\xff\xee bytes").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--theta", "1.0", "--emit", image.to_str().unwrap()])
        .output()
        .expect("squashc runs");
    assert!(out.status.success());

    // A 2-event ring on a θ=1.0 run is guaranteed to drop events.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([
            image.to_str().unwrap(),
            "--input",
            timing.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--trace-last",
            "2",
            "--report",
            "--metrics-json",
            "-",
        ])
        .output()
        .expect("squashrun runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace ring dropped"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
    assert!(doc.contains("\"trace_drops\":"), "drops missing from document: {doc}");
}

/// `squashmon`: summary and merge over a two-document fleet, Prometheus
/// rendering, stdin input, and the audit exit-code contract — 0 in
/// tolerance, 3 on drift, 1 on unauditable input.
#[test]
fn squashmon_merges_renders_and_audits() {
    let dir = temp_dir();
    let src = dir.join("mon.mc");
    let timing = dir.join("mon-timing.bin");
    let image = dir.join("mon.sqsh");
    let retuned = dir.join("mon-retuned.sqsh");
    let tel_a = dir.join("mon-a.json");
    let tel_b = dir.join("mon-b.json");
    std::fs::write(&src, PROGRAM).unwrap();
    std::fs::write(&timing, b"timing \xf0\xff\xee bytes").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--theta", "1.0", "--emit", image.to_str().unwrap()])
        .output()
        .expect("squashc runs");
    assert!(out.status.success());
    for tel in [&tel_a, &tel_b] {
        let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
            .args([
                image.to_str().unwrap(),
                "--input",
                timing.to_str().unwrap(),
                "--metrics-json",
                tel.to_str().unwrap(),
            ])
            .output()
            .expect("squashrun runs");
        assert!(out.status.success());
    }

    // Summary table over the fleet.
    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args([tel_a.to_str().unwrap(), tel_b.to_str().unwrap()])
        .output()
        .expect("squashmon runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("merged (2 docs)"), "{stdout}");
    assert!(stdout.contains("Per-region attribution"), "{stdout}");

    // --merge emits one JSON document suitable for squashc --retune.
    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args(["--merge", tel_a.to_str().unwrap(), tel_b.to_str().unwrap()])
        .output()
        .expect("squashmon merges");
    assert!(out.status.success());
    let merged = String::from_utf8_lossy(&out.stdout);
    assert_eq!(merged.lines().count(), 1, "{merged}");
    assert!(merged.contains("\"docs\":2"), "{merged}");

    // --prom renders Prometheus text exposition; `-` reads stdin.
    let mut child = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args(["--prom", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("squashmon spawns");
    {
        use std::io::Write as _;
        let doc = std::fs::read(&tel_a).unwrap();
        child.stdin.as_mut().unwrap().write_all(&doc).unwrap();
    }
    let out = child.wait_with_output().expect("squashmon finishes");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let prom = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "# TYPE squash_run_cycles_total counter",
        "squash_runtime_decompressions_total",
        "squash_trap_interarrival_cycles_bucket{le=\"+Inf\"}",
        "squash_info{name=",
    ] {
        assert!(prom.contains(needle), "missing {needle} in {prom}");
    }

    // Close the loop so the image carries retune provenance, re-measure it,
    // and audit: the estimator replays the measured workload, so drift is
    // within the default threshold → exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([
            src.to_str().unwrap(),
            "--theta",
            "1.0",
            "--retune",
            tel_a.to_str().unwrap(),
            "--emit",
            retuned.to_str().unwrap(),
        ])
        .output()
        .expect("squashc retunes");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let tel_tuned = dir.join("mon-tuned.json");
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([
            retuned.to_str().unwrap(),
            "--input",
            timing.to_str().unwrap(),
            "--metrics-json",
            tel_tuned.to_str().unwrap(),
        ])
        .output()
        .expect("squashrun runs retuned");
    assert!(out.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args(["--audit", retuned.to_str().unwrap(), tel_tuned.to_str().unwrap()])
        .output()
        .expect("squashmon audits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "in-tolerance audit must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok"));

    // Synthetically skewed telemetry (measured cycles ×10) must trip the
    // threshold with exit code 3, distinct from usage errors.
    let text = std::fs::read_to_string(&tel_tuned).unwrap();
    let (head, tail) = text.split_once("\"cycles\":").unwrap();
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    let skewed = format!(
        "{head}\"cycles\":{}{}",
        digits.parse::<u64>().unwrap() * 10,
        &tail[digits.len()..]
    );
    let tel_skewed = dir.join("mon-skewed.json");
    std::fs::write(&tel_skewed, skewed).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args(["--audit", retuned.to_str().unwrap(), tel_skewed.to_str().unwrap()])
        .output()
        .expect("squashmon audits skew");
    assert_eq!(out.status.code(), Some(3), "drift must exit 3");
    assert!(String::from_utf8_lossy(&out.stdout).contains("DRIFT"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("drift"));

    // A static image has no provenance to audit: usage error, exit 1.
    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args(["--audit", image.to_str().unwrap(), tel_a.to_str().unwrap()])
        .output()
        .expect("squashmon audits static");
    assert_eq!(out.status.code(), Some(1), "unauditable input must exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no provenance"));
}

/// Compiles `PROGRAM` into `dir/<name>.sqsh` and returns the image path.
fn emit_image(dir: &std::path::Path, name: &str) -> PathBuf {
    let src = dir.join(format!("{name}.mc"));
    let image = dir.join(format!("{name}.sqsh"));
    std::fs::write(&src, PROGRAM).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashc"))
        .args([src.to_str().unwrap(), "--theta", "1.0", "--emit", image.to_str().unwrap()])
        .output()
        .expect("squashc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    image
}

/// The runtime exit-code contract (`src/cli.rs`): `squashrun` exits 2 on
/// usage errors, 74 on host I/O errors, 70 on a typed machine check — each
/// distinct, each diagnosed on stderr.
#[test]
fn squashrun_exit_codes_follow_the_sysexits_contract() {
    let dir = temp_dir();
    let image = emit_image(&dir, "codes");

    // Usage: unknown flag.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([image.to_str().unwrap(), "--no-such-flag"])
        .output()
        .expect("squashrun runs");
    assert_eq!(out.status.code(), Some(2), "usage error must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-flag"));

    // Usage: an always-empty trace ring is refused while parsing.
    let trace = dir.join("codes.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([image.to_str().unwrap(), "--trace", trace.to_str().unwrap(), "--trace-last", "0"])
        .output()
        .expect("squashrun runs");
    assert_eq!(out.status.code(), Some(2), "--trace-last 0 must be a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace-last"));

    // I/O: image file does not exist.
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .arg(dir.join("missing.sqsh").to_str().unwrap())
        .output()
        .expect("squashrun runs");
    assert_eq!(out.status.code(), Some(74), "I/O error must exit 74");
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing.sqsh"));

    // Machine check: truncated image fails its checksums, typed, exit 70.
    let bytes = std::fs::read(&image).unwrap();
    let corrupt = dir.join("codes-corrupt.sqsh");
    std::fs::write(&corrupt, &bytes[..bytes.len() / 2]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .arg(corrupt.to_str().unwrap())
        .output()
        .expect("squashrun runs");
    assert_eq!(out.status.code(), Some(70), "machine check must exit 70");
    assert!(String::from_utf8_lossy(&out.stderr).contains("machine check"));

    // Machine check: the retired SQSH0002 format is bad magic.
    let mut v2 = bytes.clone();
    v2[..8].copy_from_slice(b"SQSH0002");
    let legacy = dir.join("codes-v2.sqsh");
    std::fs::write(&legacy, &v2).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .arg(legacy.to_str().unwrap())
        .output()
        .expect("squashrun runs");
    assert_eq!(out.status.code(), Some(70), "SQSH0002 must exit 70");
    assert!(String::from_utf8_lossy(&out.stderr).contains("kind=bad_magic"));
}

/// The CLI and the library take one run path: `squashrun --metrics-json`
/// on an image equals `run_squashed_with` on the same image and input with
/// the same observers, read through `Run::telemetry`.
#[test]
fn squashrun_metrics_equal_the_library_run() {
    use squash_repro::squash::pipeline::{self, RunConfig};
    use squash_repro::squash::telemetry::{json, Observers, Telemetry};
    use squash_repro::squash::image_file;
    use squash_repro::vm::{ICacheConfig, JsonlRing};

    let dir = temp_dir();
    let image = emit_image(&dir, "onepath");
    let timing = dir.join("onepath-timing.bin");
    let input = b"timing \xf0\xff\xee bytes";
    std::fs::write(&timing, input).unwrap();
    let trace = dir.join("onepath.jsonl");
    let samples = dir.join("onepath-samples.txt");
    let path = image.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashrun"))
        .args([
            path,
            "--input",
            timing.to_str().unwrap(),
            "--icache",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-last",
            "3",
            "--samples",
            samples.to_str().unwrap(),
            "--sample-every",
            "50",
            "--metrics-json",
            "-",
        ])
        .output()
        .expect("squashrun runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
    let cli = Telemetry::from_json(&json::parse(doc).expect("json")).expect("telemetry");

    let squashed = image_file::read(&std::fs::read(&image).unwrap()).expect("load");
    let config = RunConfig {
        icache: Some(ICacheConfig::default()),
        observers: Some(Observers { ring: Some(JsonlRing::last(3)), ..Observers::default() }),
        sample_every: Some(50),
        ..RunConfig::default()
    };
    let run = pipeline::run_squashed_with(&squashed, input, config).expect("library run");
    let lib = run.telemetry(path);
    assert!(lib.trace_drops > 0 && lib.attribution.is_some(), "{lib:?}");
    let lib = Telemetry::from_json(&json::parse(&lib.to_json_string()).unwrap()).unwrap();
    assert_eq!(cli, lib, "squashrun and run_squashed_with disagree");
}

/// `squashd` end to end: a store smoke pass, a multi-tenant script with
/// per-tenant metrics consumed by `squashmon`, and the exit-code contract
/// (0 clean, 70 on any machine check, 2 usage, 74 bad store).
#[test]
fn squashd_runs_a_store_and_honors_the_exit_contract() {
    let dir = temp_dir();
    let store = dir.join("store-ok");
    std::fs::create_dir_all(&store).unwrap();
    let image = emit_image(&dir, "fleetimg");
    std::fs::copy(&image, store.join("fleetimg.sqsh")).unwrap();

    // Smoke pass: no script → every image once, tenant `default`, exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_squashd"))
        .args(["--store", store.to_str().unwrap(), "--summary"])
        .output()
        .expect("squashd runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("default fleetimg ok status=0"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cache:"));

    // Scripted multi-tenant run with per-tenant telemetry; a deadline=1
    // request is a typed machine check → exit 70, while other tenants
    // stay clean.
    let script = dir.join("fleet.script");
    std::fs::write(
        &script,
        "alice fleetimg input=abc repeat=2\nbob fleetimg deadline=1\n---\nalice fleetimg input=abc\n",
    )
    .unwrap();
    let tenant_dir = dir.join("tenants");
    let out = Command::new(env!("CARGO_BIN_EXE_squashd"))
        .args([
            "--store",
            store.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
            "--metrics-dir",
            tenant_dir.to_str().unwrap(),
            "--prom",
            "-",
        ])
        .output()
        .expect("squashd runs");
    assert_eq!(out.status.code(), Some(70), "a deadline fault must exit 70");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bob fleetimg error kind=machine_check"), "{stdout}");
    assert!(stdout.contains("deadline_exceeded"), "{stdout}");
    assert_eq!(stdout.matches("alice fleetimg ok status=0").count(), 3, "{stdout}");
    assert!(stdout.contains("squashd_outcomes_total{outcome=\"machine_check\",tenant=\"bob\"} 1"), "{stdout}");

    // Per-tenant documents feed straight into squashmon.
    let alice = tenant_dir.join("alice.json");
    let bob = tenant_dir.join("bob.json");
    assert!(alice.exists() && bob.exists());
    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args(["--merge", alice.to_str().unwrap(), bob.to_str().unwrap()])
        .output()
        .expect("squashmon runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let mon = String::from_utf8_lossy(&out.stdout);
    assert!(mon.contains("\"deadline_exceeded\""), "bob's fault survives the merge: {mon}");

    // Usage: no --store.
    let out = Command::new(env!("CARGO_BIN_EXE_squashd")).output().expect("squashd runs");
    assert_eq!(out.status.code(), Some(2), "missing --store must exit 2");

    // I/O: store directory does not exist.
    let out = Command::new(env!("CARGO_BIN_EXE_squashd"))
        .args(["--store", dir.join("no-such-store").to_str().unwrap()])
        .output()
        .expect("squashd runs");
    assert_eq!(out.status.code(), Some(74), "unreadable store must exit 74");

    // Quarantine at the CLI surface: a corrupt store image machine-checks
    // (exit 70) and trips the ledger after the configured threshold; the
    // clean image is untouched.
    let bytes = std::fs::read(&image).unwrap();
    std::fs::write(store.join("rotten.sqsh"), &bytes[..bytes.len() / 3]).unwrap();
    let script = dir.join("quarantine.script");
    std::fs::write(
        &script,
        "mallory rotten\n---\nmallory rotten\n---\nmallory rotten\nalice fleetimg input=abc\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_squashd"))
        .args([
            "--store",
            store.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
            "--quarantine-after",
            "2",
            "--summary",
        ])
        .output()
        .expect("squashd runs");
    assert_eq!(out.status.code(), Some(70), "machine checks must exit 70");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("kind=machine_check").count(), 2, "{stdout}");
    assert!(stdout.contains("kind=quarantined"), "third request fails fast: {stdout}");
    assert!(stdout.contains("alice fleetimg ok status=0"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("QUARANTINED"));
}

/// `squashmon --merge` on a skewed fleet: drop counters are summed into
/// the merged document, but each source document's trace/sampler drops are
/// attributed on stderr — a regression gate for silent aggregation.
#[test]
fn squashmon_merge_attributes_drops_per_document() {
    let dir = temp_dir();
    let clean = dir.join("drops-clean.json");
    let lossy = dir.join("drops-lossy.json");
    std::fs::write(
        &clean,
        "{\"schema\":2,\"name\":\"quiet\",\"run\":{\"status\":0,\"instructions\":10,\"cycles\":20,\"output_bytes\":0}}\n",
    )
    .unwrap();
    std::fs::write(
        &lossy,
        "{\"schema\":2,\"name\":\"noisy\",\"run\":{\"status\":0,\"instructions\":10,\"cycles\":20,\"output_bytes\":0},\
         \"trace_drops\":7,\"sampler_drops\":3}\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args(["--merge", clean.to_str().unwrap(), lossy.to_str().unwrap()])
        .output()
        .expect("squashmon merges");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"trace_drops\":7"), "merged sum survives: {stdout}");
    assert!(stdout.contains("\"sampler_drops\":3"), "merged sum survives: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("(noisy): trace=7 sampler=3"),
        "the lossy document must be named: {stderr}"
    );
    assert!(!stderr.contains("quiet"), "clean documents stay silent: {stderr}");

    // The summary table carries both drop columns per document.
    let out = Command::new(env!("CARGO_BIN_EXE_squashmon"))
        .args([clean.to_str().unwrap(), lossy.to_str().unwrap()])
        .output()
        .expect("squashmon summarizes");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("t_drops"), "{stdout}");
    assert!(stdout.contains("s_drops"), "{stdout}");
}
