//! The closed PGO loop, end to end: profile → squash → run with telemetry →
//! `retune` → re-run. For every seed workload and the pinned corpus sample:
//!
//! * the retuned image must run the measured timing input in **no more**
//!   simulated cycles than the static image (strictly fewer when the static
//!   run entered any region);
//! * retuning is deterministic — the same telemetry in produces
//!   byte-identical `.sqsh` images out;
//! * the winner's provenance survives the image-file round trip and names
//!   the telemetry that produced it.
//!
//! An aggregate test then pins the headline claim: the timing-input cycle
//! geomean of the retuned images beats the static images' geomean.

use squash_repro::squash::image_file;
use squash_repro::squash::retune::retune;
use squash_repro::squash::pipeline::{self, RunConfig};
use squash_repro::squash::telemetry::Telemetry;
use squash_repro::squash::{BlockProfile, SquashOptions, Squasher};
use squash_repro::cfg::Program;

/// Truncation bound for timing inputs (precedent: `tests/differential.rs`).
const INPUT_CAP: usize = 4_000;

const THETA: f64 = 1e-3;

struct LoopResult {
    static_cycles: u64,
    retuned_cycles: u64,
}

/// Runs the static image on `input` with an attribution sink attached and
/// returns the telemetry document `squashrun --metrics-json` would write.
fn measure(
    squashed: &squash_repro::squash::layout::Squashed,
    input: &[u8],
    name: &str,
) -> Telemetry {
    let config = RunConfig { observers: Some(Default::default()), ..RunConfig::default() };
    pipeline::run_squashed_with(squashed, input, config).expect("static run").telemetry(name)
}

/// One full trip around the loop, with all invariants asserted.
fn close_the_loop(name: &str, program: &Program, profile: &BlockProfile) -> LoopResult {
    let options = SquashOptions {
        theta: THETA,
        ..Default::default()
    };
    let static_image = Squasher::new(program, profile, &options)
        .expect("setup")
        .finish()
        .expect("squash");

    let workload = squash_repro::workloads::by_name(name).expect("workload exists");
    let mut input = workload.timing_input();
    input.truncate(INPUT_CAP);

    let static_run = pipeline::run_squashed(&static_image, &input).expect("static run");
    let telemetry = measure(&static_image, &input, name);

    let retuned = retune(program, profile, &options, &telemetry)
        .unwrap_or_else(|e| panic!("{name}: retune failed: {e}"));

    // Determinism: same telemetry in, byte-identical image out.
    let again = retune(program, profile, &options, &telemetry).expect("retune again");
    let bytes = image_file::write(&retuned.squashed);
    assert_eq!(
        bytes,
        image_file::write(&again.squashed),
        "{name}: retuned image bytes differ between identical retune runs"
    );

    // Provenance survives the image-file round trip.
    let loaded = image_file::read(&bytes).expect("read retuned image");
    let prov = loaded
        .provenance
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: retuned image lost its provenance"));
    assert_eq!(prov.source, name, "{name}: provenance names wrong telemetry");
    assert_eq!(
        prov.measured_cycles, static_run.cycles,
        "{name}: provenance records wrong measured cycle count"
    );

    // The retuned image behaves identically and never runs slower on the
    // input it was tuned against.
    let retuned_run = pipeline::run_squashed(&loaded, &input).expect("retuned run");
    assert_eq!(
        retuned_run.output, static_run.output,
        "{name}: retuning changed program output"
    );
    assert_eq!(
        retuned_run.status, static_run.status,
        "{name}: retuning changed exit status"
    );
    assert!(
        retuned_run.cycles <= static_run.cycles,
        "{name}: retuned image slower than static ({} > {} cycles)",
        retuned_run.cycles,
        static_run.cycles
    );
    if static_run.runtime.decompressions > 0 {
        assert!(
            retuned_run.cycles < static_run.cycles,
            "{name}: static run entered regions ({} decompressions) but \
             retuning won nothing ({} vs {} cycles)",
            static_run.runtime.decompressions,
            retuned_run.cycles,
            static_run.cycles
        );
    }

    LoopResult {
        static_cycles: static_run.cycles,
        retuned_cycles: retuned_run.cycles,
    }
}

fn check_workload(name: &str) -> LoopResult {
    let workload = squash_repro::workloads::by_name(name).expect("workload exists");
    let (program, _) = workload.squeezed();
    let profile =
        pipeline::profile(&program, &[workload.profiling_input()]).expect("profile");
    close_the_loop(name, &program, &profile)
}

macro_rules! retune_loop {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check_workload($name);
            }
        )*
    };
}

retune_loop! {
    adpcm => "adpcm",
    epic => "epic",
    g721_enc => "g721_enc",
    g721_dec => "g721_dec",
    gsm => "gsm",
    jpeg_enc => "jpeg_enc",
    jpeg_dec => "jpeg_dec",
    mpeg2enc => "mpeg2enc",
    mpeg2dec => "mpeg2dec",
    pgp => "pgp",
    rasta => "rasta",
}

// ---------------------------------------------------------------------------
// Synthesized corpus: the pinned CI sample, split into parts for
// harness-thread parallelism; large programs are release-build-only, as in
// the determinism harness.
// ---------------------------------------------------------------------------

const CORPUS_PARTS: usize = 4;

fn check_corpus_part(part: usize) {
    for (i, entry) in squash_repro::gencorpus::CorpusSpec::standard()
        .sample()
        .iter()
        .enumerate()
    {
        if i % CORPUS_PARTS != part {
            continue;
        }
        if cfg!(debug_assertions) && entry.name.contains("large") {
            eprintln!("{}: skipped in debug builds (release CI covers it)", entry.name);
            continue;
        }
        check_workload(&entry.name);
    }
}

#[test]
fn corpus_sampled_part_0() {
    check_corpus_part(0);
}

#[test]
fn corpus_sampled_part_1() {
    check_corpus_part(1);
}

#[test]
fn corpus_sampled_part_2() {
    check_corpus_part(2);
}

#[test]
fn corpus_sampled_part_3() {
    check_corpus_part(3);
}

/// The headline claim: across the seed workloads plus the pinned corpus
/// sample, the retuned images' timing-input cycle geomean strictly beats
/// the static images'.
#[test]
fn geomean_retuned_beats_static() {
    let mut names: Vec<String> = squash_repro::workloads::all()
        .iter()
        .map(|w| w.name.clone())
        .collect();
    for entry in squash_repro::gencorpus::CorpusSpec::standard().sample() {
        if cfg!(debug_assertions) && entry.name.contains("large") {
            continue;
        }
        names.push(entry.name.clone());
    }
    let mut log_static = 0.0f64;
    let mut log_retuned = 0.0f64;
    let mut wins = 0usize;
    for name in &names {
        let r = check_workload(name);
        eprintln!(
            "{name}: static {} cycles, retuned {} cycles",
            r.static_cycles, r.retuned_cycles
        );
        log_static += (r.static_cycles.max(1) as f64).ln();
        log_retuned += (r.retuned_cycles.max(1) as f64).ln();
        if r.retuned_cycles < r.static_cycles {
            wins += 1;
        }
    }
    let n = names.len() as f64;
    let gm_static = (log_static / n).exp();
    let gm_retuned = (log_retuned / n).exp();
    eprintln!(
        "geomean over {} programs: static {:.1} cycles, retuned {:.1} cycles \
         ({} strict wins)",
        names.len(),
        gm_static,
        gm_retuned,
        wins
    );
    assert!(
        gm_retuned < gm_static,
        "retuned geomean {gm_retuned:.1} does not beat static {gm_static:.1}"
    );
}
