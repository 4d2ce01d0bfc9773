//! End-to-end correctness of the squash pipeline: for a battery of programs,
//! thresholds and buffer bounds, the squashed program must behave exactly
//! like the original, while the runtime exercises the paper's machinery
//! (entry stubs, CreateStub, reference-counted restore stubs).

use squash::pipeline::{self, RunResult};
use squash::{JumpTableMode, SquashOptions, Squasher};
use squash_cfg::Program;

fn build(src: &str) -> Program {
    let p = minicc::build_program(&[src]).expect("compile failed");
    let (q, _) = squash_squeeze::squeeze(&p);
    q
}

fn opts(theta: f64) -> SquashOptions {
    SquashOptions {
        theta,
        ..SquashOptions::default()
    }
}

/// Squash with `options` after profiling on `profile_input`, then check
/// behavioural equivalence on each timing input. Returns the last squashed
/// run for further inspection.
fn check_equivalence(
    program: &Program,
    options: &SquashOptions,
    profile_input: &[u8],
    timing_inputs: &[&[u8]],
) -> RunResult {
    let prof = pipeline::profile(program, &[profile_input.to_vec()]).expect("profiling failed");
    let squashed = Squasher::new(program, &prof, options)
        .expect("squasher setup failed")
        .finish()
        .expect("squash failed");
    let mut last = None;
    for &input in timing_inputs {
        let orig = pipeline::run_original(program, input).expect("original run failed");
        let comp = pipeline::run_squashed(&squashed, input).expect("squashed run failed");
        assert_eq!(orig.status, comp.status, "status diverged on {input:?}");
        assert_eq!(orig.output, comp.output, "output diverged on {input:?}");
        last = Some(comp);
    }
    last.expect("at least one timing input")
}

/// A program with a hot loop, cold helpers, and a cold call chain deep
/// enough to stack restore stubs.
const LAYERED: &str = r#"
int depth3(int x) { return x * 7 % 1000; }
int depth2(int x) { return depth3(x + 1) + depth3(x + 2); }
int depth1(int x) { return depth2(x) - depth2(x / 2); }
int hot(int x) { return (x * 2654435761) >> 16; }
int main() {
    int i;
    int acc = 0;
    for (i = 0; i < 300; i = i + 1) acc = acc + (hot(i) & 15);
    int c = getb();
    if (c == 'C') acc = acc + depth1(c);
    putb(acc & 127);
    return acc % 100;
}
"#;

#[test]
fn layered_cold_calls_at_theta_zero() {
    let p = build(LAYERED);
    let run = check_equivalence(&p, &opts(0.0), b"x", &[b"x", b"C"]);
    // The cold path on input "C" must actually hit the decompressor.
    assert!(
        run.runtime.decompressions > 0,
        "expected decompression on the cold path: {:?}",
        run.runtime
    );
}

#[test]
fn restore_stubs_are_created_and_freed() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let squashed = Squasher::new(&p, &prof, &opts(0.0))
        .unwrap()
        .finish()
        .unwrap();
    let run = pipeline::run_squashed(&squashed, b"C").unwrap();
    // The cold chain (depth1 -> depth2 -> depth3) calls across compressed
    // regions, so CreateStub must fire and all stubs must die by exit.
    assert!(run.runtime.stub_allocs > 0, "no restore stubs created: {:?}", run.runtime);
    assert!(run.runtime.restores > 0, "no restore-stub returns: {:?}", run.runtime);
    assert!(run.runtime.max_live_stubs >= 1);
}

#[test]
fn all_stubs_dead_at_exit() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let squashed = Squasher::new(&p, &prof, &opts(0.0))
        .unwrap()
        .finish()
        .unwrap();
    // Drive the VM manually so we can inspect the service afterwards.
    let mut vm = squash_vm::Vm::new(squashed.min_mem_size(1 << 18));
    for (base, bytes) in &squashed.segments {
        vm.write_bytes(*base, bytes);
    }
    vm.set_pc(squashed.entry);
    vm.set_input(b"C".to_vec());
    let mut service = squash::runtime::SquashRuntime::new(squashed.runtime.clone());
    vm.run_with(&mut service).unwrap();
    assert_eq!(
        service.live_stubs(),
        0,
        "restore stubs leaked: {:?}",
        service.stats()
    );
}

#[test]
fn recursion_in_cold_code() {
    let src = r#"
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int c = getb();
    if (c == 'F') return fib(12) % 256;
    return 1;
}
"#;
    let p = build(src);
    let run = check_equivalence(&p, &opts(0.0), b"x", &[b"x", b"F"]);
    // Recursive cold code: the same call site re-enters CreateStub many
    // times but reuses one stub with a growing usage count (§2.2).
    assert!(run.runtime.stub_hits > 0, "expected stub reuse: {:?}", run.runtime);
}

#[test]
fn equivalence_across_thetas() {
    let p = build(LAYERED);
    for theta in [0.0, 1e-5, 1e-4, 1e-2, 1.0] {
        check_equivalence(&p, &opts(theta), b"x", &[b"x", b"C"]);
    }
}

#[test]
fn equivalence_across_buffer_limits() {
    let p = build(LAYERED);
    for k in [64u32, 128, 256, 512, 2048] {
        let o = SquashOptions {
            theta: 1.0,
            buffer_limit: k,
            ..SquashOptions::default()
        };
        check_equivalence(&p, &o, b"x", &[b"C"]);
    }
}

#[test]
fn theta_one_compresses_everything_but_entry() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let squashed = Squasher::new(&p, &prof, &opts(1.0))
        .unwrap()
        .finish()
        .unwrap();
    assert!(squashed.stats.regions > 0);
    // Hot loop now compressed: even the plain input decompresses.
    let run = pipeline::run_squashed(&squashed, b"x").unwrap();
    assert!(run.runtime.decompressions > 0);
    assert!(run.cycles > run.instructions, "decompression must cost cycles");
}

#[test]
fn jump_table_modes_all_behave() {
    let src = r#"
int dispatch(int x) {
    switch (x) {
        case 0: return 11;
        case 1: return 22;
        case 2: return 33;
        case 3: return 44;
        case 4: return 55;
        default: return 99;
    }
}
int main() {
    int c = getb() - '0';
    return dispatch(c);
}
"#;
    let p = build(src);
    for mode in [
        JumpTableMode::Retarget,
        JumpTableMode::Unswitch,
        JumpTableMode::Exclude,
    ] {
        let o = SquashOptions {
            theta: 1.0,
            jump_tables: mode,
            ..SquashOptions::default()
        };
        for input in [b"0", b"1", b"2", b"3", b"4", b"7"] {
            check_equivalence(&p, &o, b"2", &[input]);
        }
    }
}

#[test]
fn buffer_safe_optimization_preserves_behaviour_and_saves_calls() {
    // `safe_leaf` is hot (runs during profiling) so it stays uncompressed
    // and is provably buffer-safe; `cold_caller` is cold and calls it.
    let src = r#"
int safe_leaf(int x) { return x * 5 + 2; }
int cold_caller(int x) { return safe_leaf(x) + safe_leaf(x + 1); }
int main() {
    int c = getb();
    int i;
    int s = 0;
    for (i = 0; i < 20; i = i + 1) s = s + safe_leaf(i);
    if (c == 'Q') return (cold_caller(c) + s) % 200;
    return s % 3;
}
"#;
    let p = build(src);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let with = Squasher::new(&p, &prof, &opts(0.0))
        .unwrap()
        .finish()
        .unwrap();
    let without = Squasher::new(
        &p,
        &prof,
        &SquashOptions {
            buffer_safe_opt: false,
            ..opts(0.0)
        },
    )
    .unwrap()
    .finish()
    .unwrap();
    assert!(with.stats.safe_calls_in_regions > 0, "{:?}", with.stats);
    assert_eq!(without.stats.safe_calls_in_regions, 0);
    // Both behave.
    for squashed in [&with, &without] {
        let orig = pipeline::run_original(&p, b"Q").unwrap();
        let comp = pipeline::run_squashed(squashed, b"Q").unwrap();
        assert_eq!(orig.status, comp.status);
    }
    // Unexpanded calls avoid CreateStub entirely.
    let run_with = pipeline::run_squashed(&with, b"Q").unwrap();
    let run_without = pipeline::run_squashed(&without, b"Q").unwrap();
    assert!(run_with.runtime.stub_allocs <= run_without.runtime.stub_allocs);
}

#[test]
fn footprint_shrinks_at_low_theta_on_cold_heavy_program() {
    // Lots of reachable-but-unexecuted code: squash should win clearly.
    let mut src = String::new();
    for i in 0..64 {
        src.push_str(&format!(
            "int coldfn{i}(int x) {{ int a[8]; int j; int acc = {i}; \
             for (j = 0; j < 8; j = j + 1) a[j] = (x * j + {i}) ^ (x >> (j & 3)); \
             for (j = 0; j < 8; j = j + 1) acc = acc + a[j] * (j + {i}) - (a[j] / (j + 1)); \
             if (acc < 0) acc = -acc + {i}; \
             while (acc > 1000000) acc = acc / 3 + {i}; \
             return acc; }}\n"
        ));
    }
    src.push_str("int main() { int c = getb(); int s = 0; if (c == 'Z') {\n");
    for i in 0..64 {
        src.push_str(&format!("s = s + coldfn{i}(c);\n"));
    }
    src.push_str("} return s & 63; }\n");
    let p = build(&src);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let squashed = Squasher::new(&p, &prof, &opts(0.0))
        .unwrap()
        .finish()
        .unwrap();
    let stats = &squashed.stats;
    assert!(
        stats.reduction() > 0.0,
        "expected a net size reduction, footprint:\n{}\nbaseline {} B",
        stats.footprint,
        stats.baseline_bytes
    );
    // And still correct on the cold path.
    let orig = pipeline::run_original(&p, b"Z").unwrap();
    let comp = pipeline::run_squashed(&squashed, b"Z").unwrap();
    assert_eq!(orig.status, comp.status);
}

#[test]
fn stats_footprint_matches_emitted_segments() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let squashed = Squasher::new(&p, &prof, &opts(0.0))
        .unwrap()
        .finish()
        .unwrap();
    // The text segment's size equals the footprint parts that live in it
    // (everything except data).
    let text_len = squashed.segments[0].1.len() as u32;
    let fp = &squashed.stats.footprint;
    let parts = fp.never_compressed
        + fp.entry_stubs
        + fp.static_stubs
        + squashed.runtime.decomp_bytes
        + fp.offset_table
        + fp.stub_area
        + fp.buffer
        + fp.compressed;
    assert_eq!(text_len, parts, "footprint:\n{fp}");
}

#[test]
fn skip_if_current_optimization_is_sound() {
    let p = build(LAYERED);
    let o = SquashOptions {
        theta: 1.0,
        skip_if_current: true,
        ..SquashOptions::default()
    };
    let run = check_equivalence(&p, &o, b"x", &[b"C"]);
    assert!(run.runtime.skipped > 0, "expected skipped decompressions");
}

#[test]
fn excluded_functions_stay_uncompressed_and_work() {
    let p = build(LAYERED);
    let mut o = opts(1.0);
    o.exclude.insert("depth2".into());
    check_equivalence(&p, &o, b"x", &[b"C"]);
}

#[test]
fn profile_mismatch_is_rejected() {
    let p = build(LAYERED);
    let other = build("int main() { return 0; }");
    let prof = pipeline::profile(&other, &[vec![]]).unwrap();
    let e = Squasher::new(&p, &prof, &opts(0.0)).unwrap_err();
    assert!(e.message.contains("shape"), "{e}");
}

#[test]
fn io_heavy_program_with_cold_paths() {
    let src = r#"
int table[16] = {1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31};
int rare_transform(int c) {
    int i;
    int acc = c;
    for (i = 0; i < 16; i = i + 1) acc = acc ^ table[i];
    return acc & 255;
}
int main() {
    int c;
    while ((c = getb()) >= 0) {
        if (c == '!') putb(rare_transform(c));
        else putb(c);
    }
    return 0;
}
"#;
    let p = build(src);
    // Profile never sees '!'; timing input does.
    check_equivalence(&p, &opts(0.0), b"hello world", &[b"hello world", b"wow!!ok!"]);
}

#[test]
fn layout_greedy_strategy_is_sound() {
    let p = build(LAYERED);
    for theta in [0.0, 1e-2, 1.0] {
        let o = SquashOptions {
            theta,
            region_strategy: squash::RegionStrategy::LayoutGreedy,
            ..SquashOptions::default()
        };
        check_equivalence(&p, &o, b"x", &[b"x", b"C"]);
    }
}

#[test]
fn mtf_displacement_coding_is_sound_and_changes_the_blob() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let plain = Squasher::new(&p, &prof, &opts(1.0)).unwrap().finish().unwrap();
    let o = SquashOptions {
        mtf_displacements: true,
        ..opts(1.0)
    };
    let mtf = Squasher::new(&p, &prof, &o).unwrap().finish().unwrap();
    assert_ne!(
        plain.stats.footprint.compressed, mtf.stats.footprint.compressed,
        "MTF should change the compressed size"
    );
    check_equivalence(&p, &o, b"x", &[b"C"]);
}

#[test]
fn strategies_produce_disjoint_k_bounded_regions() {
    use squash::{cold, regions, RegionStrategy};
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    for strategy in [RegionStrategy::DfsTree, RegionStrategy::LayoutGreedy] {
        let o = SquashOptions {
            theta: 1.0,
            region_strategy: strategy,
            buffer_limit: 256,
            ..SquashOptions::default()
        };
        let cs = cold::identify(&p, &prof, o.theta).unwrap();
        let comp = regions::compressible_blocks(&p, &cs, &o);
        let regs = regions::form_regions(&p, &comp, &o);
        let mut seen = std::collections::HashSet::new();
        for r in &regs {
            assert!(
                regions::estimate_image_words(&p, &r.blocks) * 4 <= 256,
                "{strategy:?}: region exceeds K"
            );
            for &m in &r.blocks {
                assert!(seen.insert(m), "{strategy:?}: overlapping regions");
            }
        }
    }
}

#[test]
fn icache_model_preserves_behaviour_and_counts_flushes() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let squashed = Squasher::new(&p, &prof, &opts(1.0))
        .unwrap()
        .finish()
        .unwrap();
    let cfg = Some(squash_vm::ICacheConfig::default());
    let plain = pipeline::run_original(&p, b"C").unwrap();
    let orig = pipeline::run_original_with(&p, b"C", cfg).unwrap();
    let config = pipeline::RunConfig { icache: cfg, ..Default::default() };
    let comp = pipeline::run_squashed_with(&squashed, b"C", config).unwrap().result;
    assert_eq!(orig.output, comp.output);
    assert_eq!(orig.status, comp.status);
    // The cache model adds miss cycles to both runs…
    assert!(orig.cycles > plain.cycles, "cold misses must cost cycles");
    // …and the squashed run pays extra for post-decompression flushes.
    assert!(comp.runtime.decompressions > 0);
    assert!(
        comp.cycles > orig.cycles,
        "decompression + flushes must cost more than the plain run"
    );
}

#[test]
fn stub_area_exhaustion_reports_cleanly() {
    // Three nested cold calls with distinct call sites need up to three
    // concurrent restore stubs; with one slot the runtime must fail with a
    // descriptive error, never corrupt state.
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let o = SquashOptions {
        stub_slots: 1,
        ..opts(0.0)
    };
    let squashed = Squasher::new(&p, &prof, &o).unwrap().finish().unwrap();
    match pipeline::run_squashed(&squashed, b"C") {
        Err(e) => assert!(
            e.message.contains("restore-stub area exhausted"),
            "unexpected error: {e}"
        ),
        Ok(run) => {
            // If one slot sufficed, the chain reused a single stub; that is
            // legal, but it must then have been exercised.
            assert!(run.runtime.stub_allocs > 0);
            assert!(run.runtime.max_live_stubs <= 1);
        }
    }
}

#[test]
fn profiles_merge_across_inputs() {
    // Profiling on both the plain and the triggering input makes the "cold"
    // path warm, so θ=0 compresses less than a plain-only profile.
    let p = build(LAYERED);
    let narrow = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let wide = pipeline::profile(&p, &[b"x".to_vec(), b"C".to_vec()]).unwrap();
    assert!(wide.total_instructions > narrow.total_instructions);
    let s_narrow = Squasher::new(&p, &narrow, &opts(0.0)).unwrap().finish().unwrap();
    let s_wide = Squasher::new(&p, &wide, &opts(0.0)).unwrap().finish().unwrap();
    assert!(
        s_wide.stats.compressed_blocks < s_narrow.stats.compressed_blocks,
        "wider profile must leave fewer never-executed blocks: {} vs {}",
        s_wide.stats.compressed_blocks,
        s_narrow.stats.compressed_blocks
    );
    // With the wide profile, input "C" no longer decompresses at θ=0.
    let run = pipeline::run_squashed(&s_wide, b"C").unwrap();
    assert_eq!(run.runtime.decompressions, 0);
}

#[test]
fn squash_and_check_helper_detects_agreement() {
    let p = build(LAYERED);
    let (squashed, original, compressed) =
        pipeline::squash_and_check(&p, &[b"x".to_vec()], &opts(0.0), b"C").unwrap();
    assert!(squashed.stats.regions > 0);
    assert_eq!(original.output, compressed.output);
}

#[test]
fn compile_time_restore_stubs_are_sound() {
    let p = build(LAYERED);
    for theta in [0.0, 1e-2, 1.0] {
        let o = SquashOptions {
            restore_stubs: squash::RestoreStubMode::CompileTime,
            ..opts(theta)
        };
        let run = check_equivalence(&p, &o, b"x", &[b"x", b"C"]);
        // The runtime scheme's machinery must stay idle.
        assert_eq!(run.runtime.stub_allocs, 0, "θ={theta}");
        assert_eq!(run.runtime.stub_hits, 0, "θ={theta}");
    }
}

#[test]
fn compile_time_stubs_occupy_static_space() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let rt = Squasher::new(&p, &prof, &opts(1.0)).unwrap().finish().unwrap();
    let ct = Squasher::new(
        &p,
        &prof,
        &SquashOptions {
            restore_stubs: squash::RestoreStubMode::CompileTime,
            ..opts(1.0)
        },
    )
    .unwrap()
    .finish()
    .unwrap();
    assert_eq!(rt.stats.footprint.static_stubs, 0);
    assert!(ct.stats.static_restore_stubs > 0);
    assert_eq!(
        ct.stats.footprint.static_stubs,
        12 * ct.stats.static_restore_stubs as u32
    );
    // The compile-time image trades a smaller buffer/blob for permanent
    // stubs; the paper's complaint is exactly that the stub mass dominates.
    assert!(ct.stats.footprint.static_stubs > 0);
    assert_eq!(ct.stats.footprint.stub_area, 0, "no dynamic area needed");
}

#[test]
fn compile_time_stubs_handle_recursion_without_counts() {
    let src = r#"
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int c = getb();
    if (c == 'F') return fib(11) % 256;
    return 1;
}
"#;
    let p = build(src);
    let o = SquashOptions {
        restore_stubs: squash::RestoreStubMode::CompileTime,
        ..opts(0.0)
    };
    let run = check_equivalence(&p, &o, b"x", &[b"F"]);
    assert!(run.runtime.decompressions > 10, "{:?}", run.runtime);
}

#[test]
fn profiles_serialize_and_reload() {
    let p = build(LAYERED);
    let prof = pipeline::profile(&p, &[b"x".to_vec()]).unwrap();
    let bytes = prof.serialize();
    let reloaded = squash::BlockProfile::deserialize(&bytes).unwrap();
    assert_eq!(reloaded, prof);
    // A reloaded profile drives an identical squash.
    let a = Squasher::new(&p, &prof, &opts(0.0)).unwrap().finish().unwrap();
    let b = Squasher::new(&p, &reloaded, &opts(0.0)).unwrap().finish().unwrap();
    assert_eq!(a.segments, b.segments);
    // Corruption is rejected.
    assert!(squash::BlockProfile::deserialize(&bytes[..bytes.len() - 1]).is_err());
    assert!(squash::BlockProfile::deserialize(b"garbage").is_err());
}
