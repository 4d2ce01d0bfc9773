//! Parallel-pipeline determinism: `--jobs` must be invisible in the output.
//!
//! For every workload and every cache depth N ∈ {1, 2, 4}, squashing with
//! `jobs ∈ {1, 2, 8}` must produce **byte-identical** `.sqsh` image files —
//! the whole artifact, segments through blob through runtime configuration.
//! On top of the byte equality, the squashed program is actually run at
//! `jobs = 1` and `jobs = 8` and must charge identical simulated cycle
//! counts, pinning the runtime behaviour (not just the serialized bytes) to
//! the serial pipeline.
//!
//! The `jobs = 1` image's CRC-32C and length are pinned per workload and
//! cache depth in [`PINNED`], so a change that alters any image's bytes
//! fails here even when it alters every `jobs` value alike. A change meant
//! to alter images updates the table and says why.

use squash_repro::squash::{image_file, integrity, pipeline, SquashOptions, Squasher};

const CACHE_SIZES: [usize; 3] = [1, 2, 4];
const JOBS: [usize; 3] = [1, 2, 8];

/// Truncation bound for timing inputs (precedent: `tests/differential.rs`).
const INPUT_CAP: usize = 4_000;

/// `(workload, [(crc32c, bytes); CACHE_SIZES.len()])` of each workload's
/// `jobs = 1` image at θ = 1e-3, one cell per entry of [`CACHE_SIZES`]:
/// the 11 paper programs, then all 111 corpus programs.
#[rustfmt::skip]
const PINNED: &[(&str, [(u32, usize); 3])] = &[
    ("adpcm", [(0x663a3120, 37855), (0x11489d4f, 38367), (0xe0906328, 39391)]),
    ("epic", [(0x11304949, 44819), (0x860de485, 45331), (0xb3e3edd1, 46355)]),
    ("g721_dec", [(0x514f3b01, 28610), (0x3c27a9c9, 29122), (0xbfbb02ec, 30146)]),
    ("g721_enc", [(0xf544d1a0, 28775), (0x2ef40552, 29287), (0x81e39ac6, 30311)]),
    ("gsm", [(0x71f0cb5a, 30739), (0xe3b124d1, 31251), (0xef325a96, 32275)]),
    ("jpeg_dec", [(0xefae7a85, 41005), (0x72a72d3c, 41517), (0x54f19a1b, 42541)]),
    ("jpeg_enc", [(0x261f1680, 41008), (0xf307ffa9, 41520), (0xa253bde6, 42544)]),
    ("mpeg2dec", [(0xc9a5097a, 55441), (0xf35b52a3, 55953), (0xd5f16d1d, 56977)]),
    ("mpeg2enc", [(0xe6200579, 55444), (0xec1a1ae3, 55956), (0x48fc28d3, 56980)]),
    ("pgp", [(0xc9708adf, 29006), (0xa7a498a3, 29518), (0xd6e643b6, 30542)]),
    ("rasta", [(0x0697d0b1, 28899), (0x9d6babc3, 29411), (0x8b7e946d, 30435)]),
    ("g000h25j0d1v0", [(0x6bb5ce30, 7055), (0xbb9a2490, 7563), (0xffb68113, 8579)]),
    ("g001h25j0d1v1", [(0x8a8677ae, 9597), (0x13615ba7, 10109), (0x023dbf43, 11133)]),
    ("g002h25j0d1v2", [(0xab3b492c, 17667), (0x085fa832, 18179), (0xfdb54a75, 19203)]),
    ("g003h25j0d1v3", [(0xfde91f69, 15161), (0x88426c2d, 15673), (0x7a52d38d, 16697)]),
    ("g004h25j0d3v0", [(0x367a4e59, 10524), (0x0d4432ef, 11036), (0x3beca1b2, 12060)]),
    ("g005h25j0d3v1", [(0x48891a00, 19200), (0x395193b1, 19712), (0x87a973a8, 20736)]),
    ("g006h25j0d3v2", [(0xd4908568, 36878), (0x11e6ded7, 37390), (0xe5c9f032, 38414)]),
    ("g007h25j0d3v3", [(0x70b21ce9, 38799), (0x4e077dad, 39311), (0x13e5c9ea, 40335)]),
    ("g008h25j0d6v0", [(0x85dd0f39, 17681), (0x3652caca, 18349), (0x5b959954, 19685)]),
    ("g009h25j0d6v1", [(0xdc9b9b33, 33405), (0xe2b7cc77, 33965), (0x7e6c37fb, 35085)]),
    ("g010h25j0d6v2", [(0x0a7e787a, 63605), (0xc66e7760, 64117), (0xd15369ae, 65141)]),
    ("g011h25j0d6v3", [(0x59c46ee2, 66299), (0xfa69f6e1, 66811), (0x9e5dcf9f, 67835)]),
    ("g012h25j15d1v0", [(0xa2a40191, 11286), (0x34da7af8, 11798), (0x30454e64, 12822)]),
    ("g013h25j15d1v1", [(0x1299cb3a, 12020), (0x34ba620f, 12532), (0x67fa1e33, 13556)]),
    ("g014h25j15d1v2", [(0x0d3f2a8c, 22592), (0x1aaaf26c, 23104), (0xa6b9fbaa, 24128)]),
    ("g015h25j15d1v3", [(0x50bd9ecd, 23977), (0x369309ae, 24489), (0x940de0e4, 25513)]),
    ("g016h25j15d3v0", [(0x46034a7e, 21749), (0x2f3d75cf, 22261), (0x990416c1, 23285)]),
    ("g017h25j15d3v1", [(0xaf07e49e, 35188), (0x4dd38b4c, 35700), (0x88821354, 36724)]),
    ("g018h25j15d3v2", [(0x32d6209d, 65457), (0x08787eff, 65969), (0x47b14fdc, 66993)]),
    ("g019h25j15d3v3", [(0x4e5cf03e, 62733), (0x6e3b1130, 63245), (0x3541ae06, 64269)]),
    ("g020h25j15d6v0", [(0xefd7027d, 32656), (0x424e7d27, 33168), (0x0c793864, 34192)]),
    ("g021h25j15d6v1", [(0x6cfc95d2, 64714), (0x66697372, 65226), (0xd3a1353f, 66250)]),
    ("g022h25j15d6v2", [(0x781a4325, 119721), (0x94d5a384, 120233), (0xabcb6ce3, 121257)]),
    ("g023h25j15d6v3", [(0xd8fded79, 129991), (0x7c126e97, 130503), (0xe45d98e4, 131527)]),
    ("g024h25j35d1v0", [(0x9884afab, 12983), (0x4cd89f9f, 13495), (0xedf4c08e, 14519)]),
    ("g025h25j35d1v1", [(0xc8bd441c, 21536), (0xb06ec1cb, 22048), (0x4cf04263, 23072)]),
    ("g026h25j35d1v2", [(0x3f3aa5dc, 38917), (0xe631b6f7, 39429), (0xede445ae, 40453)]),
    ("g027h25j35d1v3", [(0xd8662461, 32157), (0x1e10efe0, 32669), (0xdb7dd0d9, 33693)]),
    ("g028h25j35d3v0", [(0xaddf7f45, 30461), (0xec56b803, 30973), (0x9146a436, 31997)]),
    ("g029h25j35d3v1", [(0x0feca7cd, 58618), (0x7f65d36f, 59130), (0x417f53c9, 60154)]),
    ("g030h25j35d3v2", [(0x5dcda4c5, 96572), (0xfb7cda84, 97084), (0xa601b869, 98108)]),
    ("g031h25j35d3v3", [(0x4140bccd, 95066), (0x2d380adc, 95578), (0x723bcd7c, 96602)]),
    ("g032h25j35d6v0", [(0xcf5ebb9b, 48141), (0x44587041, 48653), (0x79290159, 49677)]),
    ("g033h25j35d6v1", [(0x6a3f766f, 95334), (0x63e10407, 95846), (0xe160dbb4, 96870)]),
    ("g034h25j35d6v2", [(0x61a190af, 214176), (0x5078b644, 214688), (0x86e63988, 215712)]),
    ("g035h25j35d6v3", [(0xdd7f556f, 170950), (0xf6cfbad9, 171462), (0x5bb2748d, 172486)]),
    ("g036h50j0d1v0", [(0x7d2dee95, 6816), (0xb8309430, 7320), (0xb9040d22, 8328)]),
    ("g037h50j0d1v1", [(0xaf6a010d, 10711), (0x0857fa4d, 11223), (0x83515930, 12247)]),
    ("g038h50j0d1v2", [(0xa0c43af2, 16111), (0xec769696, 16623), (0x4064b606, 17647)]),
    ("g039h50j0d1v3", [(0x877fc6f4, 15963), (0xf45318c9, 16475), (0x4ee9089c, 17499)]),
    ("g040h50j0d3v0", [(0x5cbaaae1, 13622), (0xcc8f8192, 14126), (0x2b32bee9, 15134)]),
    ("g041h50j0d3v1", [(0xace27d42, 21028), (0x85e3ee9c, 21700), (0x1bd2c223, 23044)]),
    ("g042h50j0d3v2", [(0xfb4677f8, 36060), (0xf96b3295, 36572), (0x1e08946d, 37596)]),
    ("g043h50j0d3v3", [(0x79bfbc19, 37142), (0x31a2d010, 37654), (0x864beb40, 38678)]),
    ("g044h50j0d6v0", [(0x76b1145d, 19139), (0xbeccc502, 19683), (0x2d22df67, 20771)]),
    ("g045h50j0d6v1", [(0x0a1c4e08, 32296), (0x97ad7c07, 32840), (0xbebe8e2e, 33928)]),
    ("g046h50j0d6v2", [(0x89f62a59, 72524), (0xb2648aa1, 73036), (0x1eca4421, 74060)]),
    ("g047h50j0d6v3", [(0x6c1f3bf7, 68443), (0xde63745f, 68955), (0xf1b58f22, 69979)]),
    ("g048h50j15d1v0", [(0x9f6d65ca, 8183), (0x2024b822, 8687), (0x4fb0a558, 9695)]),
    ("g049h50j15d1v1", [(0x3e0e333e, 17697), (0x8a7aae47, 18209), (0x68c239a3, 19233)]),
    ("g050h50j15d1v2", [(0x2ee1b9f2, 24636), (0x1d0fff7b, 25148), (0xb99ee9e9, 26172)]),
    ("g051h50j15d1v3", [(0x8d68a0f4, 22594), (0xb632a81d, 23106), (0x0e2f0773, 24130)]),
    ("g052h50j15d3v0", [(0x20f084af, 20752), (0x5961848a, 21264), (0x7792e9ed, 22288)]),
    ("g053h50j15d3v1", [(0xd27646dc, 40629), (0x95ad32cc, 41141), (0xd1686665, 42165)]),
    ("g054h50j15d3v2", [(0x4b1f5b59, 63085), (0x3f766017, 63597), (0xa89fd41e, 64621)]),
    ("g055h50j15d3v3", [(0x678005ce, 63371), (0x554760f3, 63883), (0xc7f138da, 64907)]),
    ("g056h50j15d6v0", [(0x6d44b5a5, 35072), (0x5e49310d, 35800), (0x11058ab4, 37256)]),
    ("g057h50j15d6v1", [(0x2b045de6, 66347), (0x1a66403b, 66859), (0xdd44edd4, 67883)]),
    ("g058h50j15d6v2", [(0x52013b5f, 134220), (0x4869b84f, 134732), (0x145cf90b, 135756)]),
    ("g059h50j15d6v3", [(0x2f5f5084, 111844), (0x41281fe5, 112356), (0x3ae1a187, 113380)]),
    ("g060h50j35d1v0", [(0xfbbe9a47, 11155), (0x4bfcd753, 11667), (0xca4bdeef, 12691)]),
    ("g061h50j35d1v1", [(0x4cb14938, 18423), (0xabb14399, 18931), (0x5bc095d4, 19947)]),
    ("g062h50j35d1v2", [(0x4f85a94b, 42254), (0x07bf7a05, 42766), (0x40d0f2d0, 43790)]),
    ("g063h50j35d1v3", [(0xd711c233, 40112), (0xd931b325, 40624), (0xaa31478a, 41648)]),
    ("g064h50j35d3v0", [(0x7ab75ba8, 27710), (0x80ed8426, 28222), (0xb2f30a3b, 29246)]),
    ("g065h50j35d3v1", [(0x7cebe7d4, 52868), (0xbf27f682, 53380), (0x5daae3b1, 54404)]),
    ("g066h50j35d3v2", [(0x4c229e68, 96219), (0x2a687661, 96731), (0xb22381aa, 97755)]),
    ("g067h50j35d3v3", [(0xdc0c8ad6, 78927), (0xd31d66e0, 79439), (0xa51f4fec, 80463)]),
    ("g068h50j35d6v0", [(0x4c2b979e, 53509), (0x817d357d, 54021), (0x9b7479f8, 55045)]),
    ("g069h50j35d6v1", [(0xf130169e, 116767), (0x8e963494, 117279), (0xf66cbe25, 118303)]),
    ("g070h50j35d6v2", [(0x8ee5b086, 201267), (0xa5922574, 201779), (0xce33b155, 202803)]),
    ("g071h50j35d6v3", [(0x173d5398, 165978), (0xbd30df0f, 166490), (0x4830d32a, 167514)]),
    ("g072h80j0d1v0", [(0x22068356, 6654), (0x56804109, 7138), (0xc74d13bf, 8106)]),
    ("g073h80j0d1v1", [(0xfee107ec, 9427), (0x3eddd54c, 9907), (0xb8ee3fda, 10867)]),
    ("g074h80j0d1v2", [(0xfdf80ad1, 16071), (0x55923a50, 16575), (0x89b1c444, 17583)]),
    ("g075h80j0d1v3", [(0x96526122, 15081), (0x6bab075f, 15589), (0xd63ad8b4, 16605)]),
    ("g076h80j0d3v0", [(0x94dc1bd7, 11837), (0xce80fe29, 12473), (0xcd7b0339, 13745)]),
    ("g077h80j0d3v1", [(0x7c5bff52, 19332), (0x79f93f04, 19844), (0x96d6895b, 20868)]),
    ("g078h80j0d3v2", [(0x241b82ae, 37850), (0x5eb7e713, 38362), (0x2cb42b87, 39386)]),
    ("g079h80j0d3v3", [(0x0981835d, 38588), (0x87001d6d, 39100), (0x478343ee, 40124)]),
    ("g080h80j0d6v0", [(0x39534f3a, 19802), (0x29a80940, 20434), (0xc1234bf8, 21698)]),
    ("g081h80j0d6v1", [(0x51a981a4, 34444), (0xd198622a, 34956), (0x1c9b5716, 35980)]),
    ("g082h80j0d6v2", [(0x27074595, 71997), (0x11e959a2, 72509), (0x22ee3df3, 73533)]),
    ("g083h80j0d6v3", [(0x7f1a4a09, 73434), (0x0b60bfa0, 73946), (0xb0b862a0, 74970)]),
    ("g084h80j15d1v0", [(0x4bd904ef, 11801), (0x7d9989ba, 12313), (0xb5069797, 13337)]),
    ("g085h80j15d1v1", [(0xd131d040, 11866), (0xbb4d30b4, 12370), (0xdc38f5cd, 13378)]),
    ("g086h80j15d1v2", [(0x244ced1a, 30003), (0xe9223891, 30515), (0x3bf2b51b, 31539)]),
    ("g087h80j15d1v3", [(0x9d13dd55, 21923), (0x3472437c, 22431), (0x26ea3be6, 23447)]),
    ("g088h80j15d3v0", [(0x8c570898, 19910), (0x19d06304, 20422), (0xc0e9ab14, 21446)]),
    ("g089h80j15d3v1", [(0x9f9fa058, 31665), (0xa602c1a9, 32177), (0xd93a7c36, 33201)]),
    ("g090h80j15d3v2", [(0x7ddc0805, 60813), (0x04942769, 61325), (0x38634f51, 62349)]),
    ("g091h80j15d3v3", [(0x0a09a7ad, 58932), (0x40e33676, 59444), (0x9dbcdcb9, 60468)]),
    ("g092h80j15d6v0", [(0xc7d9ed19, 34744), (0x826d3ce3, 35256), (0x1f8090cb, 36280)]),
    ("g093h80j15d6v1", [(0x77684bd5, 75679), (0xadc713bb, 76191), (0xc62e1859, 77215)]),
    ("g094h80j15d6v2", [(0x6a0f2e36, 133500), (0xaa0c561f, 134012), (0xd0bc68ea, 135036)]),
    ("g095h80j15d6v3", [(0xb4b8a849, 122514), (0xf47fcd3d, 123026), (0xb452bfce, 124050)]),
    ("g096h80j35d1v0", [(0x898eeb24, 13130), (0x84a298db, 13642), (0x6b56e587, 14666)]),
    ("g097h80j35d1v1", [(0x5ce84a68, 26155), (0x2b8aab6e, 26667), (0xa4a7df9e, 27691)]),
    ("g098h80j35d1v2", [(0x17a410a3, 32652), (0x5751644d, 33164), (0x9b7399c8, 34188)]),
    ("g099h80j35d1v3", [(0x23dec614, 34636), (0x5ad2107b, 35148), (0x58d7bac4, 36172)]),
    ("g100h80j35d3v0", [(0xff71e65b, 32323), (0x632dcf49, 32835), (0xee0fa81c, 33859)]),
    ("g101h80j35d3v1", [(0x0dc3b16e, 49207), (0x1395bb46, 49719), (0x7bd47611, 50743)]),
    ("g102h80j35d3v2", [(0xb78b7b10, 117147), (0x0f2cfb60, 117659), (0x585d08cc, 118683)]),
    ("g103h80j35d3v3", [(0xad7295d8, 92646), (0xde79f083, 93158), (0x03d67d0a, 94182)]),
    ("g104h80j35d6v0", [(0x6a1322c0, 50774), (0x2fae7036, 51286), (0x30e0aeb4, 52310)]),
    ("g105h80j35d6v1", [(0xf6c286e8, 117787), (0x77636530, 118299), (0xab75e960, 119323)]),
    ("g106h80j35d6v2", [(0x358eabbe, 209652), (0xa9c5d30d, 210164), (0x73b9b454, 211188)]),
    ("g107h80j35d6v3", [(0xe45229dd, 176986), (0xe6b76773, 177498), (0xe8b83060, 178522)]),
    ("g108large0", [(0xde1f1bac, 488948), (0xd23d1ff8, 489460), (0x74abc547, 490484)]),
    ("g109large1", [(0x3e972c6b, 766016), (0x070437fc, 766528), (0x3fb7a611, 767552)]),
    ("g110large2", [(0xbb3f7f21, 846405), (0xe7c2c409, 846917), (0xacb938e6, 847941)]),
];

/// Asserts that `bytes`, the `jobs = 1` image of `name` at cache depth
/// index `depth`, matches its [`PINNED`] digest.
fn assert_pinned(name: &str, depth: usize, bytes: &[u8]) {
    let (_, cells) = PINNED
        .iter()
        .find(|(pinned, _)| *pinned == name)
        .unwrap_or_else(|| panic!("{name}: no pinned image digest"));
    assert_eq!(
        (integrity::crc32c(bytes), bytes.len()),
        cells[depth],
        "{name}: image bytes changed at {} cache slots",
        CACHE_SIZES[depth]
    );
}

fn check_workload(name: &str) {
    let workload = squash_repro::workloads::by_name(name).expect("workload exists");
    let (program, _) = workload.squeezed();
    let profile =
        pipeline::profile(&program, &[workload.profiling_input()]).expect("profile");
    let mut input = workload.timing_input();
    input.truncate(INPUT_CAP);
    for (depth, slots) in CACHE_SIZES.into_iter().enumerate() {
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
        assert_pinned(name, depth, &serial_bytes);
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
