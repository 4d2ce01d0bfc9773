//! Integrity acceptance tests for the `SQSH0003` image format.
//!
//! The contract under test (`DESIGN.md` §13):
//!
//! * Verification is the only modeled cost integrity adds: a run's cycles
//!   exceed the same image's run with a zero verification rate by exactly
//!   `checksum_cycles`, which telemetry reports.
//! * Truncating an image at every structural boundary yields a typed
//!   machine-check fault with the right [`FaultKind`] — never a panic,
//!   never an over-allocation (every pre-allocation is capped by the
//!   declared file length).
//! * Strict mode ([`image_file::read_strict`]) verifies the blob eagerly;
//!   every loader rejects the retired checksum-free `SQSH0002` by magic.
//! * A region payload that is wrong but passes its checksum reaches the
//!   decoder, which must fault typed rather than fall back or panic.

use squash_repro::squash::pipeline::{self, RunConfig};
use squash_repro::squash::{image_file, integrity, FaultKind, SquashOptions, Squasher};

/// A small real workload squashed with enough cold code to exercise the
/// decompressor, and its serialized image.
fn build_image(cache_slots: usize) -> (squash_repro::squash::layout::Squashed, Vec<u8>) {
    let workload = squash_repro::workloads::by_name("adpcm").expect("workload exists");
    let (program, _) = workload.squeezed();
    let profile = pipeline::profile(&program, &[workload.profiling_input()]).expect("profile");
    let options = SquashOptions { theta: 1e-3, cache_slots, ..Default::default() };
    let squashed = Squasher::new(&program, &profile, &options)
        .expect("setup")
        .finish()
        .expect("squash");
    let bytes = image_file::write(&squashed);
    (squashed, bytes)
}

/// The adpcm timing input, truncated to keep debug-mode runs quick.
fn timing_input() -> Vec<u8> {
    let mut input = squash_repro::workloads::by_name("adpcm").unwrap().timing_input();
    input.truncate(6_000);
    input
}

#[test]
fn verification_cost_is_the_only_cycle_difference() {
    let (_, bytes) = build_image(2);
    let checked = image_file::read(&bytes).expect("load");
    assert!(!checked.runtime.region_crcs.is_empty(), "the image carries integrity metadata");
    let mut free = checked.clone();
    free.runtime.cost.per_check_byte = 0;

    let input = timing_input();
    let r3 = pipeline::run_squashed(&checked, &input).expect("checked run");
    let r0 = pipeline::run_squashed(&free, &input).expect("zero-rate run");

    // Observable behaviour is identical...
    assert_eq!(r3.status, r0.status);
    assert_eq!(r3.output, r0.output);
    assert_eq!(r3.instructions, r0.instructions);
    // ...and the only cycle difference is the checksum charge, which the
    // telemetry reports per run.
    assert!(r3.runtime.regions_verified > 0, "the run must exercise verification");
    assert_eq!(r3.runtime.regions_verified, r3.runtime.misses);
    assert_eq!(r0.runtime.regions_verified, r3.runtime.regions_verified);
    assert_eq!(r0.runtime.checksum_cycles, 0);
    assert!(r3.runtime.checksum_cycles > 0);
    assert_eq!(
        r3.cycles,
        r0.cycles + r3.runtime.checksum_cycles,
        "verification must be the only modeled cost difference"
    );
    // The telemetry document carries the counters.
    let doc = r3.telemetry("adpcm").to_json_string();
    assert!(doc.contains("\"regions_verified\""), "{doc}");
    assert!(doc.contains("\"checksum_cycles\""), "{doc}");
}

#[test]
fn truncation_at_every_boundary_faults_with_the_right_kind() {
    let (_, bytes) = build_image(1);
    for cut in image_file::boundaries(&bytes) {
        if cut == bytes.len() {
            continue;
        }
        let err = image_file::read(&bytes[..cut]).expect_err("truncated image must not load");
        let mc = err.fault.as_ref().expect("typed fault");
        assert!(
            matches!(mc.kind, FaultKind::Truncated | FaultKind::BadMagic),
            "cut at {cut}: unexpected kind {:?} ({})",
            mc.kind,
            mc.detail
        );
    }
}

#[test]
fn forged_section_length_cannot_drive_allocation_past_the_file() {
    // Forge the first directory length (meta section) without fixing the
    // header CRC: header damage must be the diagnosis, before any length
    // is trusted.
    let (_, bytes) = build_image(1);
    let mut forged = bytes.clone();
    forged[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = image_file::read(&forged).expect_err("forged directory accepted");
    assert_eq!(err.fault.as_ref().unwrap().kind, FaultKind::HeaderChecksum);
}

#[test]
fn strict_mode_verifies_blob_and_rejects_v2() {
    let (_, bytes) = build_image(1);
    image_file::read_strict(&bytes).expect("clean image passes strict");
    let mut v2 = bytes.clone();
    v2[..8].copy_from_slice(b"SQSH0002");
    for load in [image_file::read, image_file::read_strict] {
        let err = load(&v2).expect_err("SQSH0002 must not load");
        assert_eq!(err.fault.as_ref().unwrap().kind, FaultKind::BadMagic);
    }
}

/// Zero one region's payload, then reseal every region checksum, so the
/// damage passes verification and reaches the decoder. Under a cycle
/// deadline, each such run ends in a typed fault or runs byte- and
/// cycle-identical to the clean image (the region never ran) — never a
/// panic, and never a quiet fallback to another decoder.
#[test]
fn resealed_zeroed_region_faults_typed_or_runs_identically() {
    let (squashed, _) = build_image(1);
    let input = timing_input();
    let clean = pipeline::run_squashed(&squashed, &input).expect("clean run");
    let regions = squashed.runtime.bit_offsets.len();
    let mut faulted = 0;
    for region in 0..regions {
        let mut image = squashed.clone();
        let rt = &mut image.runtime;
        let span = integrity::region_byte_span(&rt.bit_offsets, region, rt.blob.len());
        rt.blob[span].fill(0);
        rt.region_crcs = integrity::region_crcs(&rt.blob, &rt.bit_offsets);
        let config = RunConfig { deadline: Some(clean.cycles * 4), ..RunConfig::default() };
        match pipeline::run_squashed_with(&image, &input, config) {
            Ok(run) => assert_eq!(
                (run.result.status, &run.result.output, run.result.cycles),
                (clean.status, &clean.output, clean.cycles),
                "region {region}: zeroed payload ran silently divergent"
            ),
            Err(e) => {
                let mc = e.fault.as_ref().unwrap_or_else(|| {
                    panic!("region {region}: untyped failure: {}", e.message)
                });
                assert_ne!(mc.kind, FaultKind::RegionChecksum, "region {region}: not resealed");
                faulted += 1;
            }
        }
    }
    assert!(faulted > 0, "no zeroed region out of {regions} was ever decoded");
}

#[test]
fn corrupt_region_faults_at_trap_time_with_a_machine_check() {
    let (squashed, v3_bytes) = build_image(1);
    // Find the blob inside the file and flip a bit in the *hottest* region's
    // payload so the fault actually fires during the run.
    let loaded = image_file::read(&v3_bytes).expect("load");
    assert_eq!(loaded.runtime.blob, squashed.runtime.blob);
    let input = timing_input();
    // Baseline run tells us which region decompresses first.
    let clean = pipeline::run_squashed(&loaded, &input).expect("clean run");
    assert!(clean.runtime.decompressions > 0);

    // Corrupt one byte of the blob *section*. Its offset follows from the
    // header directory: sections start at byte 60 in the order
    // meta | model | blob | ..., with each length at bytes 16+8i..20+8i.
    // (The blob bytes also appear verbatim inside a memory segment in the
    // meta section, so a byte-string search would find the wrong copy.)
    let blob = &squashed.runtime.blob;
    let dir_len = |i: usize| -> usize {
        u32::from_le_bytes(v3_bytes[16 + 8 * i..20 + 8 * i].try_into().unwrap()) as usize
    };
    assert_eq!(dir_len(2), blob.len(), "blob section length matches the blob");
    let pos = 60 + dir_len(0) + dir_len(1);
    assert_eq!(&v3_bytes[pos..pos + blob.len()], &blob[..]);
    let mut corrupt = v3_bytes.clone();
    corrupt[pos + blob.len() / 2] ^= 0x20;

    // Lazy load still succeeds (the damaged section is the blob)...
    let image = image_file::read(&corrupt).expect("lazy load");
    // ...and the run either faults with a typed RegionChecksum machine
    // check or completes identically (if the flipped byte lies in a region
    // the input never executes).
    match pipeline::run_squashed(&image, &input) {
        Ok(run) => {
            assert_eq!(run.status, clean.status);
            assert_eq!(run.output, clean.output);
        }
        Err(e) => {
            let mc = e.fault.as_ref().expect("typed fault, not a string");
            assert_eq!(mc.kind, FaultKind::RegionChecksum);
            assert!(mc.region.is_some(), "fault must name the region");
            assert!(mc.cycle.is_some(), "fault must carry the cycle");
        }
    }
    // Strict mode catches the same corruption at load time.
    let err = image_file::read_strict(&corrupt).expect_err("strict load");
    assert_eq!(err.fault.as_ref().unwrap().kind, FaultKind::SectionChecksum);
}
