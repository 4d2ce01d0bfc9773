//! Splitting-streams codec throughput: compressing and decompressing
//! region-sized instruction sequences (the decompressor's inner job), the
//! table-driven fast decoder against the bit-by-bit reference decoder, and
//! the move-to-front variant the paper discusses in §3.
//!
//! Emits the `stream_codec` section of `BENCH_PR2.json`: host nanoseconds
//! per instruction decoded for the fast and reference paths, and the
//! resulting speedup. Both use the minimum over measurement runs — timing
//! noise on a shared host is strictly additive, so min-over-runs is the
//! estimator least contaminated by scheduler interference (see
//! `Timer::time_stats`). Set `BENCH_SMOKE=1` for the CI check mode (fewer
//! measurement runs, same code paths).

use squash_bench::report;
use squash_compress::{StreamModel, StreamOptions};
use squash_isa::Inst;
use squash_testkit::bench::Timer;

/// Region-sized chunks of a real workload's code.
fn real_regions() -> Vec<Vec<Inst>> {
    let w = squash_workloads::by_name("gsm").expect("workload");
    let (program, _) = w.squeezed();
    let image = squash_cfg::link::link(&program, &Default::default()).expect("link");
    image
        .text
        .chunks(128)
        .map(|chunk| chunk.iter().filter_map(|&w| Inst::decode(w).ok()).collect())
        .collect()
}

fn main() {
    let smoke = report::smoke();
    let timer = Timer::new(if smoke { 3 } else { 15 }, 1);
    let regions = real_regions();
    let refs: Vec<&[Inst]> = regions.iter().map(|r| r.as_slice()).collect();

    timer.time("stream_model_train", || {
        StreamModel::train(std::hint::black_box(&refs))
    });

    let model = StreamModel::train(&refs);
    // Compress every region into one blob so the decode measurement runs
    // over the whole corpus, not a single lucky region.
    let mut w = squash_compress::BitWriter::new();
    let mut offsets = Vec::new();
    let mut total_insts = 0u64;
    for r in &regions {
        offsets.push(w.bit_len());
        model.compress_region_into(r, &mut w).expect("compress");
        total_insts += r.len() as u64;
    }
    let blob = w.into_bytes();
    let sample = &regions[regions.len() / 2];

    timer.time_throughput("stream_codec/compress_region", sample.len() as u64, || {
        model.compress_region(std::hint::black_box(sample)).unwrap()
    });

    let fast = timer.time_stats("stream_codec/decompress_fast", total_insts, || {
        for &off in &offsets {
            model
                .decompress_region(std::hint::black_box(&blob), off)
                .unwrap();
        }
    });
    let reference = timer.time_stats("stream_codec/decompress_reference", total_insts, || {
        for &off in &offsets {
            model
                .decompress_region_reference(std::hint::black_box(&blob), off)
                .unwrap();
        }
    });
    let speedup = reference.min_ns / fast.min_ns;
    println!("fast-vs-reference decode speedup: {speedup:.2}x");

    // The MTF ablation: the paper rejected MTF because it slows the
    // decompressor; measure by how much.
    let mtf_model = StreamModel::train_with(&refs, StreamOptions::with_displacement_mtf());
    let mtf_compressed = mtf_model.compress_region(sample).expect("compress");
    timer.time_throughput("decompress_region_mtf", sample.len() as u64, || {
        mtf_model
            .decompress_region(std::hint::black_box(&mtf_compressed), 0)
            .unwrap()
    });

    report::write_named(
        "BENCH_PR2.json",
        "stream_codec",
        &[
            (
                "decode_ns_per_inst_fast".into(),
                fast.min_ns / total_insts as f64,
            ),
            (
                "decode_ns_per_inst_reference".into(),
                reference.min_ns / total_insts as f64,
            ),
            ("decode_speedup".into(), speedup),
        ],
    );
}
