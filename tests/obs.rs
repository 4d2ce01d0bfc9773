//! Observability integration tests at the library surface: span building,
//! sample collapse, the telemetry→metrics mirror, and the estimator-drift
//! audit contract (`DESIGN.md` §16) on a real squashed program.

use squash_repro::squash::monitor::{self, SlotTimeline, SpanBuilder};
use squash_repro::squash::pipeline::{self, RunConfig};
use squash_repro::squash::telemetry::{json, Observers, Telemetry};
use squash_repro::squash::{audit, retune, SquashOptions, Squasher};

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

const TIMING: &[u8] = b"timing \xf0\xff\xee bytes";

/// Builds, profiles and squashes [`PROGRAM`] with everything cold, so every
/// run has decompressor traffic for the observers to see.
fn squashed_program() -> (squash_repro::cfg::Program, squash_repro::squash::BlockProfile, squash_repro::squash::layout::Squashed)
{
    let program = squash_repro::minicc::build_program(&[PROGRAM]).expect("compiles");
    let profile = pipeline::profile(&program, &[Vec::new()]).expect("profiles");
    let options = SquashOptions { theta: 1.0, ..Default::default() };
    let squashed = Squasher::new(&program, &profile, &options)
        .expect("setup")
        .finish()
        .expect("squash");
    (program, profile, squashed)
}

/// One observed run: spans bracket every trap, the Chrome JSON parses, the
/// samples collapse onto the image's areas without loss, and the registry
/// mirror renders a consistent Prometheus histogram.
#[test]
fn observed_run_produces_consistent_artifacts() {
    let (_, _, squashed) = squashed_program();
    let config = RunConfig {
        observers: Some(Observers {
            spans: Some(SpanBuilder::new()),
            timeline: Some(SlotTimeline::new()),
            ..Observers::default()
        }),
        sample_every: Some(97),
        ..RunConfig::default()
    };
    let run = pipeline::run_squashed_with(&squashed, TIMING, config).expect("observed run");
    let telemetry = run.telemetry("obs");
    let observers = run.observers.expect("observers returned");

    // Spans: every trap bracketed, and decompress/verify spans sit inside
    // their service span in time.
    let spans = observers.spans.expect("span builder").finish();
    assert_eq!(spans.open(), 0, "a trap never found its terminal event");
    let rows = spans.spans();
    assert!(rows.iter().any(|(n, _, _)| n.starts_with("service/")), "{rows:?}");
    assert!(rows.iter().any(|(n, _, _)| n.starts_with("decompress/")), "{rows:?}");
    assert!(rows.iter().any(|(n, _, _)| n.starts_with("verify/")), "{rows:?}");
    for (name, ts, dur) in &rows {
        if let Some(service) = rows.iter().find(|(n, sts, sdur)| {
            n.starts_with("service/") && sts <= ts && ts + dur <= sts + sdur
        }) {
            let _ = service;
        } else {
            assert!(
                name.starts_with("service/"),
                "{name} at {ts}+{dur} is outside every service span"
            );
        }
    }
    // The encoder's output is real JSON with a traceEvents array.
    let doc = json::parse(&spans.to_chrome_json()).expect("chrome json parses");
    let events = doc.get("traceEvents").and_then(json::Json::as_arr).expect("array");
    assert_eq!(events.len(), spans.len());

    // Samples: deterministic tick count, lossless collapse, and at least
    // one buffer-area stack resolved to a concrete region (θ = 1.0 means
    // the guest executes out of the buffer).
    let sampler = run.sampler.expect("sampler");
    assert_eq!(sampler.samples().len() as u64, run.result.cycles / 97);
    let map = monitor::AreaMap::from_runtime(&squashed.runtime);
    let timeline = observers.timeline.expect("timeline");
    let stacks = monitor::collapse_samples("obs", sampler.samples(), &map, &timeline);
    assert_eq!(stacks.total(), sampler.samples().len() as u64);
    assert!(
        stacks.iter().any(|(s, _)| s.starts_with("obs;buffer;region_")),
        "no buffer-resident samples:\n{}",
        stacks.render()
    );

    // The registry mirror: histogram bucket counts must be cumulative and
    // end at _count (the exposition invariants the obs crate pins are
    // exercised here on real data).
    let prom = monitor::registry(&telemetry).to_prometheus();
    assert!(prom.contains("# TYPE squash_trap_interarrival_cycles histogram"), "{prom}");
    let buckets: Vec<u64> = prom
        .lines()
        .filter(|l| l.starts_with("squash_trap_interarrival_cycles_bucket"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "non-monotonic: {buckets:?}");
    let count: u64 = prom
        .lines()
        .find(|l| l.starts_with("squash_trap_interarrival_cycles_count"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .expect("_count line");
    assert_eq!(*buckets.last().unwrap(), count, "+Inf bucket != _count");
}

/// The audit contract end to end at the library surface: a retuned image
/// re-measured on its tuning input sits inside the default threshold, and
/// telemetry skewed by 10× trips it. This pins the exit-3 CI gate's
/// semantics independent of the CLI.
#[test]
fn audit_accepts_replay_and_rejects_skew() {
    let (program, profile, squashed) = squashed_program();
    let options = SquashOptions { theta: 1.0, ..Default::default() };

    // Measure the static image with attribution: the retuner's input.
    let config = RunConfig { observers: Some(Observers::default()), ..RunConfig::default() };
    let telemetry = pipeline::run_squashed_with(&squashed, TIMING, config)
        .expect("static run")
        .telemetry("obs");

    let retuned = retune::retune(&program, &profile, &options, &telemetry).expect("retune");
    let provenance = retuned.squashed.provenance.as_ref();
    let rerun = pipeline::run_squashed(&retuned.squashed, TIMING).expect("retuned run");
    let measured = rerun.telemetry("obs");

    let row = audit::drift("obs.sqsh", provenance, &measured).expect("auditable");
    assert!(
        !row.exceeds(audit::DEFAULT_DRIFT_THRESHOLD),
        "replaying the tuning input drifted {:.4}% (> {:.1}%)",
        row.rel_error() * 100.0,
        audit::DEFAULT_DRIFT_THRESHOLD * 100.0
    );

    // Pinned skew: 10× the measured cycles is far outside any tolerance.
    let mut skewed = measured.clone();
    let mut metrics = skewed.run.expect("run block");
    metrics.cycles *= 10;
    skewed.run = Some(metrics);
    let row = audit::drift("obs.sqsh", provenance, &skewed).expect("auditable");
    assert!(
        row.exceeds(audit::DEFAULT_DRIFT_THRESHOLD),
        "10x-skewed telemetry passed the audit (error {:.4})",
        row.rel_error()
    );

    // A static image is unauditable, not silently in-tolerance.
    assert!(audit::drift("obs.sqsh", squashed.provenance.as_ref(), &measured).is_err());

    // The whole contract also holds through serialization: a document that
    // round-trips the JSON schema audits identically.
    let round = Telemetry::from_json(&json::parse(&measured.to_json_string()).unwrap())
        .expect("round-trip");
    let row2 = audit::drift("obs.sqsh", provenance, &round).expect("auditable");
    assert_eq!(row.measured / 10, row2.measured);
}
