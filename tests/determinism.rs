//! Parallel-pipeline determinism: `--jobs` must be invisible in the output.
//!
//! For every workload and every cache depth N ∈ {1, 2, 4}, squashing with
//! `jobs ∈ {1, 2, 8}` must produce **byte-identical** `.sqsh` image files —
//! the whole artifact, segments through blob through runtime configuration.
//! On top of the byte equality, the squashed program is actually run at
//! `jobs = 1` and `jobs = 8` and must charge identical simulated cycle
//! counts, pinning the runtime behaviour (not just the serialized bytes) to
//! the serial pipeline.

use squash_repro::squash::{image_file, pipeline, SquashOptions, Squasher};

const CACHE_SIZES: [usize; 3] = [1, 2, 4];
const JOBS: [usize; 3] = [1, 2, 8];

/// Truncation bound for timing inputs (precedent: `tests/differential.rs`).
const INPUT_CAP: usize = 4_000;

fn check_workload(name: &str) {
    let workload = squash_repro::workloads::by_name(name).expect("workload exists");
    let (program, _) = workload.squeezed();
    let profile =
        pipeline::profile(&program, &[workload.profiling_input()]).expect("profile");
    let mut input = workload.timing_input();
    input.truncate(INPUT_CAP);
    for slots in CACHE_SIZES {
        let squash_at = |jobs: usize| {
            let options = SquashOptions {
                theta: 1e-3,
                cache_slots: slots,
                jobs,
                ..Default::default()
            };
            Squasher::new(&program, &profile, &options)
                .expect("setup")
                .finish()
                .expect("squash")
        };
        let serial = squash_at(JOBS[0]);
        let serial_bytes = image_file::write(&serial);
        let mut parallel_last = None;
        for &jobs in &JOBS[1..] {
            let parallel = squash_at(jobs);
            assert_eq!(
                image_file::write(&parallel),
                serial_bytes,
                "{name}: .sqsh image differs between jobs=1 and jobs={jobs} \
                 at {slots} cache slots"
            );
            parallel_last = Some(parallel);
        }
        // Identical bytes should mean identical simulation; verify the
        // cycle counts directly rather than trusting the serialization to
        // cover every behavioural input.
        let serial_run = pipeline::run_squashed(&serial, &input)
            .unwrap_or_else(|e| panic!("{name} jobs=1 slots={slots}: {e}"));
        let parallel_run = pipeline::run_squashed(&parallel_last.expect("ran"), &input)
            .unwrap_or_else(|e| panic!("{name} jobs=8 slots={slots}: {e}"));
        assert_eq!(
            serial_run.cycles, parallel_run.cycles,
            "{name}: simulated cycles diverged between jobs=1 and jobs=8 \
             at {slots} cache slots"
        );
        assert_eq!(
            serial_run.output, parallel_run.output,
            "{name}: output diverged between jobs=1 and jobs=8 at {slots} slots"
        );
    }
}

macro_rules! determinism {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check_workload($name);
            }
        )*
    };
}

// One test per workload so failures name the program and the suite
// parallelises across the harness's threads.
determinism! {
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
// Synthesized corpus (squash-gencorpus): the pinned CI sample runs
// unconditionally (split into parts for harness-thread parallelism);
// `CORPUS_FULL=1` sweeps all 111 programs. Large programs are
// release-build-only, as in the differential harness.
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

/// Full 111-program sweep, opt-in via `CORPUS_FULL=1`.
#[test]
fn corpus_full_sweep() {
    if !squash_repro::workloads::corpus_full_enabled() {
        eprintln!("corpus_full_sweep: skipped (set CORPUS_FULL=1 to run)");
        return;
    }
    for entry in &squash_repro::gencorpus::CorpusSpec::standard().entries {
        if cfg!(debug_assertions) && entry.name.contains("large") {
            continue;
        }
        check_workload(&entry.name);
    }
}

// ---------------------------------------------------------------------------
// Telemetry merging and feedback-directed retuning must be as deterministic
// as the pipeline itself: merge is commutative and survives the JSON round
// trip, and a merged fleet retunes to byte-identical images every time.
// ---------------------------------------------------------------------------

/// Measures one squashed run with an attribution sink, as `squashrun
/// --metrics-json` does.
fn measure_doc(
    squashed: &squash_repro::squash::layout::Squashed,
    input: &[u8],
    name: &str,
) -> squash_repro::squash::telemetry::Telemetry {
    let config = pipeline::RunConfig { observers: Some(Default::default()), ..Default::default() };
    pipeline::run_squashed_with(squashed, input, config).expect("measured run").telemetry(name)
}

/// A two-document fleet from the adpcm workload: the timing input split in
/// half, each half measured as its own run document.
fn fleet() -> (
    squash_repro::cfg::Program,
    squash_repro::squash::BlockProfile,
    SquashOptions,
    Vec<squash_repro::squash::telemetry::Telemetry>,
) {
    let workload = squash_repro::workloads::by_name("adpcm").expect("workload");
    let (program, _) = workload.squeezed();
    let profile =
        pipeline::profile(&program, &[workload.profiling_input()]).expect("profile");
    let options = SquashOptions { theta: 1e-3, ..Default::default() };
    let squashed = Squasher::new(&program, &profile, &options)
        .expect("setup")
        .finish()
        .expect("squash");
    let mut input = workload.timing_input();
    input.truncate(INPUT_CAP);
    let mid = input.len() / 2;
    let docs = vec![
        measure_doc(&squashed, &input[..mid], "run-a"),
        measure_doc(&squashed, &input[mid..], "run-b"),
    ];
    (program, profile, options, docs)
}

/// Merge is commutative on real run documents and the merged document
/// survives the JSON round trip unchanged.
#[test]
fn telemetry_merge_is_commutative_and_round_trips() {
    use squash_repro::obs::json;
    use squash_repro::squash::telemetry::Telemetry;
    let (_, _, _, docs) = fleet();
    let ab = Telemetry::merge(&docs);
    let ba = Telemetry::merge(&[docs[1].clone(), docs[0].clone()]);
    assert_eq!(ab, ba, "merge is order-sensitive on real run documents");
    assert_eq!(ab.docs, 2);
    let text = ab.to_json_string();
    let back = Telemetry::from_json(&json::parse(&text).expect("parse")).expect("from_json");
    assert_eq!(ab, back, "merged telemetry does not survive the JSON round trip");
}

/// Retuning against a merged fleet is deterministic: merge, retune twice,
/// byte-identical images — and the provenance records the fleet size.
#[test]
fn fleet_retune_is_byte_deterministic() {
    use squash_repro::squash::telemetry::Telemetry;
    let (program, profile, options, docs) = fleet();
    let merged = Telemetry::merge(&docs);
    let a = squash_repro::squash::retune::retune(&program, &profile, &options, &merged)
        .expect("retune");
    let b = squash_repro::squash::retune::retune(&program, &profile, &options, &merged)
        .expect("retune again");
    let bytes_a = image_file::write(&a.squashed);
    assert_eq!(
        bytes_a,
        image_file::write(&b.squashed),
        "fleet retune produced different image bytes on identical input"
    );
    let prov = a.squashed.provenance.as_ref().expect("provenance");
    assert_eq!(prov.telemetry_docs, 2, "provenance lost the fleet size");
    assert_eq!(prov.source, "run-a+run-b", "provenance lost the merged sources");
}

/// Every workload in the crate must be covered here, as in the
/// differential harness.
#[test]
fn every_workload_is_covered() {
    let covered = [
        "adpcm", "epic", "g721_enc", "g721_dec", "gsm", "jpeg_enc", "jpeg_dec",
        "mpeg2enc", "mpeg2dec", "pgp", "rasta",
    ];
    for w in squash_repro::workloads::all() {
        assert!(
            covered.contains(&w.name.as_str()),
            "workload {} has no determinism test",
            w.name
        );
    }
}
