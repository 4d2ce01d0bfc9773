//! Fleet runtime (`core::fleet` / `squashd`) integration tests:
//! determinism bridge, tenant isolation, budgets, admission control,
//! quarantine, and shared-cache refcounting under contention
//! (`DESIGN.md` §17).
//!
//! The load-bearing invariant everywhere: a fleet run is **byte- and
//! cycle-identical** to the solo `pipeline::run_squashed` reference,
//! whatever the pool width, the cache state, or what hostile tenants are
//! doing next door. The shared cache may only save *host* work.

use squash_repro::squash::fleet::cache::{Decoded, SharedRegionCache};
use squash_repro::squash::fleet::{
    Fleet, FleetConfig, FleetError, ImageStore, Request, RetryPolicy, TenantBudget,
};
use squash_repro::isa::{Inst, PalOp};
use squash_repro::squash::{image_file, pipeline, FaultKind, SquashOptions, Squasher};

/// Truncated timing input: keeps debug-build runs fast while still
/// exercising the decompressor.
const INPUT_CAP: usize = 1_200;

struct TestImage {
    name: &'static str,
    bytes: Vec<u8>,
    input: Vec<u8>,
    output: Vec<u8>,
    cycles: u64,
    instructions: u64,
}

/// Squashes `name` at a cold θ and records the solo reference run.
fn test_image(name: &'static str) -> TestImage {
    let w = squash_repro::workloads::by_name(name).expect("workload exists");
    let (program, _) = w.squeezed();
    let profile = pipeline::profile(&program, &[w.profiling_input()]).expect("profile");
    let options = SquashOptions { theta: 1e-3, ..Default::default() };
    let squashed =
        Squasher::new(&program, &profile, &options).expect("setup").finish().expect("squash");
    let bytes = image_file::write(&squashed);
    let mut input = w.timing_input();
    input.truncate(INPUT_CAP);
    let run = pipeline::run_squashed(&squashed, &input).expect("solo reference");
    TestImage {
        name,
        bytes,
        input,
        output: run.output,
        cycles: run.cycles,
        instructions: run.instructions,
    }
}

fn store_with(images: &[&TestImage]) -> ImageStore {
    let store = ImageStore::in_memory(RetryPolicy::default());
    for img in images {
        store.add_bytes(img.name, img.bytes.clone());
    }
    store
}

fn request(tenant: &str, img: &TestImage) -> Request {
    Request {
        tenant: tenant.to_string(),
        image: img.name.to_string(),
        input: img.input.clone(),
        deadline: None,
    }
}

fn assert_identical(result: &Result<pipeline::RunResult, FleetError>, img: &TestImage, who: &str) {
    let run = result.as_ref().unwrap_or_else(|e| panic!("{who}: expected clean run, got {e}"));
    assert_eq!(run.output, img.output, "{who}: output diverged from solo run");
    assert_eq!(
        (run.cycles, run.instructions),
        (img.cycles, img.instructions),
        "{who}: cycle drift vs solo run"
    );
}

/// The determinism bridge: the same batch at pool widths 1, 2 and 4 is
/// byte/cycle-identical to the solo references — scheduling and cache
/// sharing never leak into simulated results.
#[test]
fn fleet_results_are_identical_across_worker_counts() {
    let a = test_image("adpcm");
    let b = test_image("gsm");
    for workers in [1usize, 2, 4] {
        let cfg = FleetConfig { workers, ..FleetConfig::default() };
        let fleet = Fleet::new(store_with(&[&a, &b]), cfg);
        let reqs = vec![
            request("t0", &a),
            request("t1", &b),
            request("t0", &b),
            request("t1", &a),
            request("t2", &a),
            request("t2", &b),
        ];
        let results = fleet.run_batch(reqs);
        for (i, (result, img)) in results.iter().zip([&a, &b, &b, &a, &a, &b]).enumerate() {
            assert_identical(result, img, &format!("workers={workers} request {i}"));
        }
        let m = fleet.metrics();
        let total_ok: u64 = m.tenants.iter().map(|t| t.ok).sum();
        assert_eq!(total_ok, 6, "workers={workers}: all requests complete");
    }
}

/// A quarantined image fails fast with a typed error after exactly the
/// configured number of machine checks — and the clean tenant sharing the
/// fleet stays byte/cycle-identical throughout.
#[test]
fn quarantine_trips_at_threshold_and_spares_other_tenants() {
    let clean = test_image("adpcm");
    // Truncating to 16 bytes guarantees a load-time machine check.
    let store = store_with(&[&clean]);
    store.add_bytes("evil", clean.bytes[..16].to_vec());
    let cfg = FleetConfig { quarantine_threshold: 2, ..FleetConfig::default() };
    let fleet = Fleet::new(store, cfg);

    let evil_request = || Request {
        tenant: "hostile".to_string(),
        image: "evil".to_string(),
        input: Vec::new(),
        deadline: None,
    };
    // Warm-up batch: exactly `threshold` faulting requests, with the clean
    // tenant interleaved.
    let results =
        fleet.run_batch(vec![evil_request(), request("victim", &clean), evil_request()]);
    for (i, r) in [&results[0], &results[2]].into_iter().enumerate() {
        match r {
            Err(FleetError::Fault(mc)) => {
                assert_ne!(mc.kind, FaultKind::DeadlineExceeded, "warm-up {i}: wrong kind")
            }
            other => panic!("warm-up {i}: expected typed machine check, got {other:?}"),
        }
    }
    assert_identical(&results[1], &clean, "victim during warm-up");

    // Next request: typed fail-fast, no worker involved.
    let results = fleet.run_batch(vec![evil_request(), request("victim", &clean)]);
    match &results[0] {
        Err(FleetError::Quarantined { image, faults }) => {
            assert_eq!(image, "evil");
            assert_eq!(*faults, 2);
        }
        other => panic!("expected quarantined fail-fast, got {other:?}"),
    }
    assert_identical(&results[1], &clean, "victim after quarantine");

    let m = fleet.metrics();
    assert!(m.quarantine.iter().any(|(img, n, q)| img == "evil" && *n == 2 && *q));
    let hostile = m.tenants.iter().find(|t| t.tenant == "hostile").expect("hostile counted");
    assert_eq!((hostile.faults, hostile.quarantine_rejected), (2, 1));
}

/// Cycle-budget deadlines fire as the typed `deadline_exceeded` machine
/// check, never count toward quarantine, and a satisfied budget leaves the
/// run untouched.
#[test]
fn deadlines_are_typed_faults_that_do_not_quarantine() {
    let img = test_image("adpcm");
    let fleet = Fleet::new(store_with(&[&img]), FleetConfig::default());
    fleet.set_tenant_budget("capped", TenantBudget { deadline: Some(50), ..Default::default() });

    let mut exact = request("exact", &img);
    exact.deadline = Some(img.cycles); // budget == solo cycles: completes
    let results = fleet.run_batch(vec![request("capped", &img), exact, request("free", &img)]);
    match &results[0] {
        Err(FleetError::Fault(mc)) => {
            assert_eq!(mc.kind, FaultKind::DeadlineExceeded);
            assert_eq!(mc.kind.name(), "deadline_exceeded");
        }
        other => panic!("expected deadline fault, got {other:?}"),
    }
    assert_identical(&results[1], &img, "budget == solo cycles");
    assert_identical(&results[2], &img, "unbudgeted tenant");

    let m = fleet.metrics();
    let capped = m.tenants.iter().find(|t| t.tenant == "capped").expect("capped counted");
    assert_eq!((capped.faults, capped.deadline_faults), (1, 1));
    // Resource-policy faults never poison the image for others.
    assert!(m.quarantine.is_empty(), "deadline faults must not count toward quarantine");
}

/// Admission control: a gated batch larger than the queue bound sheds
/// exactly the excess with the typed `overloaded` error; every admitted
/// request still runs byte-identically.
#[test]
fn overload_sheds_exactly_the_excess_as_typed_errors() {
    let img = test_image("adpcm");
    let cfg = FleetConfig { queue_limit: 3, workers: 2, ..FleetConfig::default() };
    let fleet = Fleet::new(store_with(&[&img]), cfg);
    let results = fleet.run_batch((0..8).map(|_| request("burst", &img)).collect());
    let mut shed = 0;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(_) => assert_identical(r, &img, &format!("admitted request {i}")),
            Err(FleetError::Overloaded { outstanding, limit }) => {
                assert!(*outstanding >= *limit, "shed below the bound");
                shed += 1;
            }
            other => panic!("request {i}: expected ok or overloaded, got {other:?}"),
        }
    }
    assert_eq!(shed, 5, "8 submitted into a 3-deep queue sheds exactly 5");
    let m = fleet.metrics();
    let t = &m.tenants[0];
    assert_eq!((t.submitted, t.ok, t.shed), (8, 3, 5));
}

/// An unknown image is a typed immediate error — no retries burned, no
/// quarantine entry, nothing queued.
#[test]
fn unknown_image_is_typed_and_immediate() {
    let img = test_image("adpcm");
    let fleet = Fleet::new(store_with(&[&img]), FleetConfig::default());
    let mut req = request("t", &img);
    req.image = "no-such-image".to_string();
    let results = fleet.run_batch(vec![req]);
    match &results[0] {
        Err(FleetError::UnknownImage { image }) => assert_eq!(image, "no-such-image"),
        other => panic!("expected unknown_image, got {other:?}"),
    }
    assert_eq!(fleet.metrics().load_retries, 0, "nothing transient to retry");
}

/// The shared cache under contention: 8 threads hammer one image through a
/// 2-entry shard with overlapping region keys and held guards. Counters
/// must balance exactly (every acquire released, no leak, no double
/// release), data must never be corrupted by eviction racing a live
/// reader, and all live state must drain to zero.
#[test]
fn shared_cache_refcounting_survives_contention() {
    fn decoded(region: u16) -> Decoded {
        Decoded {
            insts: vec![Inst::Pal { func: PalOp::Halt }; (region as usize % 3) + 1],
            bits: u64::from(region) * 977 + 13,
        }
    }

    // One shard, two slots: maximal eviction pressure.
    let cache = SharedRegionCache::new(1, 2);
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let handle = cache.handle(7, t, 1 << 20);
            std::thread::spawn(move || {
                for i in 0..400u32 {
                    let region = ((i.wrapping_mul(2654435761) ^ t) % 5) as u16;
                    let a = handle
                        .get_or_decode::<std::convert::Infallible>(region, || Ok(decoded(region)))
                        .expect("infallible decode");
                    assert_eq!(a.bits, decoded(region).bits, "corrupted data for region {region}");
                    assert_eq!(a.insts.len(), decoded(region).insts.len());
                    // Hold a second overlapping guard on another region so
                    // eviction constantly sees pinned entries.
                    let other = (region + 1) % 5;
                    let b = handle
                        .get_or_decode::<std::convert::Infallible>(other, || Ok(decoded(other)))
                        .expect("infallible decode");
                    assert_eq!(b.bits, decoded(other).bits);
                    drop(a);
                    drop(b);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no cache worker may panic");
    }

    let s = cache.stats();
    assert_eq!(s.acquires, s.releases, "every cached acquire must be released exactly once");
    assert_eq!(s.live_readers, 0, "no reader leaked past its guard");
    assert!(s.live_entries <= 2, "one 2-slot shard can hold at most 2 entries");
    assert_eq!(s.hits + s.misses, 8 * 400 * 2, "every lookup accounted as hit or miss");
    assert!(s.evictions > 0, "the test must actually exercise eviction");
}

/// Retry schedules are a pure function of (policy, image, attempt):
/// capped, growing, and stable across calls — so a soak failure names the
/// exact backoff sequence it saw.
#[test]
fn retry_schedule_is_deterministic_and_capped() {
    let policy = RetryPolicy { attempts: 5, base_ms: 4, cap_ms: 20, seed: 42 };
    let a = policy.delays_ms("imageA");
    let b = policy.delays_ms("imageA");
    assert_eq!(a, b, "same key, same schedule");
    assert_ne!(a, policy.delays_ms("imageB"), "jitter is keyed by image");
    assert_eq!(a.len(), 5);
    for (i, d) in a.iter().enumerate() {
        // Base grows as base << attempt, capped; jitter adds at most half.
        let exp = (4u64 << i).min(20);
        assert!(*d >= exp && *d <= exp + exp / 2, "delay {i} = {d} out of [{exp}, {}]", exp + exp / 2);
    }
}
