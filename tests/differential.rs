//! Differential test harness: every workload, original vs. squashed, across
//! region-cache sizes.
//!
//! For each program in `crates/workloads` the squashed binary must be
//! observationally identical to the original — same exit status, same output
//! bytes — on the timing input (truncated to keep debug-mode runs quick),
//! with the decompressed-region cache at N ∈ {1, 2, 4} slots. θ is set high
//! enough that the timing runs actually exercise the decompressor, so the
//! equality is a statement about code that really ran out of the cache.
//!
//! Since PR 2 the runtime decodes with the table-driven fast decoder; this
//! harness additionally checks that every region decodes identically through
//! the fast and reference decoders and that simulated cycle counts still
//! equal the per-call/per-bit/per-inst cost model at every cache depth —
//! i.e. the fast decoder is invisible to the simulation.
//!
//! Since PR 4 the runtime can carry observers. Each squashed run here is
//! executed twice, with and without observers, and the runs must be
//! byte-for-byte identical in observable behaviour *and* simulated cycles —
//! tracing observes, never charges. The sink's per-region attribution must
//! also explain at least 99% of all service-charged cycles (in practice:
//! 100%), with any remainder reported as untracked rather than lost.
//!
//! Since PR 9 the observed run carries the full observability complement:
//! attribution *plus* the span builder, the buffer-slot timeline and the
//! cycle-driven sampling profiler, all at once. The zero-perturbation
//! assertion covers them all, every span must find its terminal event, and
//! the sample→area collapse must conserve the sample count.

use squash_repro::squash::monitor::{self, SlotTimeline, SpanBuilder};
use squash_repro::squash::pipeline::{self, RunConfig};
use squash_repro::squash::telemetry::Observers;
use squash_repro::squash::{SquashOptions, Squasher};

const CACHE_SIZES: [usize; 3] = [1, 2, 4];

/// Truncation bound for timing inputs: long enough to reach the cold paths,
/// short enough for debug-mode cycles (the precedent is `tests/system.rs`).
const INPUT_CAP: usize = 6_000;

fn check_workload(name: &str) {
    let workload = squash_repro::workloads::by_name(name).expect("workload exists");
    let (program, _) = workload.squeezed();
    let profile =
        pipeline::profile(&program, &[workload.profiling_input()]).expect("profile");
    let mut input = workload.timing_input();
    input.truncate(INPUT_CAP);
    let original = pipeline::run_original(&program, &input).expect("original run");
    for slots in CACHE_SIZES {
        let options = SquashOptions {
            theta: 1e-3,
            cache_slots: slots,
            ..Default::default()
        };
        let squashed = Squasher::new(&program, &profile, &options)
            .expect("setup")
            .finish()
            .expect("squash");
        if slots == CACHE_SIZES[0] {
            // Every compressed region must decode identically through the
            // table-driven fast decoder and the bit-by-bit reference —
            // same instructions *and* same bit count. Simulated decompression
            // cycles are a pure function of (calls, bits, instructions), so
            // this pins the cycle counts below to the reference decoder.
            let rt_cfg = &squashed.runtime;
            for (i, &off) in rt_cfg.bit_offsets.iter().enumerate() {
                let fast = rt_cfg.model.decompress_region(&rt_cfg.blob, off);
                let reference = rt_cfg.model.decompress_region_reference(&rt_cfg.blob, off);
                assert_eq!(fast, reference, "{name}: region {i} decode diverged");
                assert!(fast.is_ok(), "{name}: region {i} failed to decode");
            }
        }
        let compressed = pipeline::run_squashed(&squashed, &input)
            .unwrap_or_else(|e| panic!("{name} with {slots} cache slots: {e}"));
        assert_eq!(
            original.status, compressed.status,
            "{name}: exit status diverged with {slots} cache slots"
        );
        assert_eq!(
            original.output, compressed.output,
            "{name}: output diverged with {slots} cache slots"
        );
        // Zero-overhead observability: the identical run with the full
        // observer complement attached — attribution, span building, the
        // slot timeline, and the sampling profiler (prime period so ticks
        // interleave oddly with service charges) — must not perturb the
        // simulation in any observable way.
        let config = RunConfig {
            observers: Some(Observers {
                spans: Some(SpanBuilder::new()),
                timeline: Some(SlotTimeline::new()),
                ..Observers::default()
            }),
            sample_every: Some(257),
            ..RunConfig::default()
        };
        let run = pipeline::run_squashed_with(&squashed, &input, config)
            .unwrap_or_else(|e| panic!("{name} traced with {slots} cache slots: {e}"));
        let telemetry = run.telemetry(name);
        let traced = &run.result;
        assert_eq!(
            (compressed.cycles, compressed.instructions, &compressed.output, compressed.status),
            (traced.cycles, traced.instructions, &traced.output, traced.status),
            "{name}: tracing perturbed the simulation with {slots} cache slots"
        );
        assert_eq!(
            compressed.runtime, traced.runtime,
            "{name}: tracing perturbed the runtime counters with {slots} slots"
        );
        // The observers must actually have observed: every sample tick up
        // to the final cycle, spans all closed (every trap found its
        // terminal event), and the sample↔timeline join accounts for every
        // sample.
        let sampler = run.sampler.expect("sampling was enabled");
        assert_eq!(
            sampler.samples().len() as u64,
            traced.cycles / 257,
            "{name}: sample count diverged from the cycle count with {slots} slots"
        );
        let observers = run.observers.expect("observers returned");
        let spans = observers.spans.expect("span builder attached").finish();
        assert_eq!(
            spans.open(),
            0,
            "{name}: unclosed spans with {slots} slots"
        );
        let map = monitor::AreaMap::from_runtime(&squashed.runtime);
        let stacks = monitor::collapse_samples(
            name,
            sampler.samples(),
            &map,
            observers.timeline.as_ref().expect("timeline attached"),
        );
        assert_eq!(
            stacks.total(),
            sampler.samples().len() as u64,
            "{name}: collapsed stacks lost samples with {slots} slots"
        );
        // Attribution coverage: ≥ 99% of service-charged cycles must land in
        // a per-region row (the remainder is surfaced as untracked).
        let (attributed, charged, untracked) = telemetry.coverage();
        assert!(
            attributed * 100 >= charged * 99,
            "{name}: only {attributed}/{charged} service cycles attributed \
             ({untracked} untracked) with {slots} slots"
        );
        assert_eq!(
            attributed + untracked,
            charged,
            "{name}: coverage arithmetic out of balance with {slots} slots"
        );
        let rt = &compressed.runtime;
        assert_eq!(
            rt.hits + rt.misses,
            rt.decompressions + rt.hits,
            "{name}: hit/miss accounting out of balance with {slots} slots"
        );
        if slots == 1 {
            assert_eq!(
                rt.hits, 0,
                "{name}: a one-slot cache without skip_if_current never hits"
            );
        }
        assert!(
            rt.evictions <= rt.misses,
            "{name}: more evictions than misses with {slots} slots"
        );
        // Integrity accounting: the squasher emits per-region checksums, so
        // every miss verifies its region's payload — exactly once per miss,
        // never on hits.
        assert_eq!(
            rt.regions_verified, rt.misses,
            "{name}: verification count diverged from misses with {slots} slots"
        );
        // The simulated cycle count must equal the calibrated per-call /
        // per-bit / per-inst model exactly — decompression cost is charged
        // from bits and instructions decoded, never from host decoder
        // speed, so swapping in the fast decoder changes nothing here. The
        // checksum charge (per_check_byte × span bytes, totalled in
        // checksum_cycles) is the only addition integrity makes.
        let cost = &options.cost;
        assert_eq!(
            rt.cycles_charged,
            rt.decompressions * cost.per_call
                + rt.bits_read * cost.per_bit
                + rt.insts_written * cost.per_inst
                + rt.hits * cost.cache_hit
                + (rt.stub_hits + rt.stub_allocs) * cost.create_stub
                + rt.checksum_cycles,
            "{name}: simulated cycles diverged from the cost model with {slots} slots"
        );
    }
}

macro_rules! differential {
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
differential! {
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
// Synthesized corpus (squash-gencorpus)
//
// The pinned CI sample runs unconditionally, split into parts so the harness
// threads spread the work; `CORPUS_FULL=1` additionally sweeps all 111
// programs. The order-of-magnitude-larger programs only run in release
// builds (debug-mode VM speed makes them minutes each); CI covers them in
// the release corpus-smoke job.
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

/// Full 111-program sweep, opt-in via `CORPUS_FULL=1` (hours in debug,
/// minutes in release).
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

/// The harness covers the whole suite: if a workload is added to the crate
/// without a differential test, this fails and names it.
#[test]
fn every_workload_is_covered() {
    let covered = [
        "adpcm", "epic", "g721_enc", "g721_dec", "gsm", "jpeg_enc", "jpeg_dec",
        "mpeg2enc", "mpeg2dec", "pgp", "rasta",
    ];
    for w in squash_repro::workloads::all() {
        assert!(
            covered.contains(&w.name.as_str()),
            "workload {} has no differential test",
            w.name
        );
    }
}
