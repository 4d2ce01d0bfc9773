//! The instruction-cache angle on Figure 7: the paper's machine has a 64 KB
//! two-way I-cache that the decompressor flushes after every buffer fill
//! (§2.1). With the cache model enabled, runtime overhead at each operating
//! point includes realistic refetch costs on top of the decompression model.

use squash::pipeline;
use squash_vm::ICacheConfig;

fn main() {
    let benches = squash_bench::load_benches(None);
    let cache = Some(ICacheConfig::default());
    println!("Execution time with the 64KB 2-way I-cache model (geomeans)");
    println!();
    println!("| θ     | time (no cache) | time (with cache) |");
    println!("|-------|----------------:|------------------:|");
    for theta in squash_bench::THETAS_LOW {
        let mut plain = Vec::new();
        let mut cached = Vec::new();
        for b in &benches {
            let squashed = b.squash(&squash_bench::opts(theta));
            let base_plain = b.run_baseline();
            let run_plain = b.run_squashed(&squashed);
            plain.push(run_plain.cycles as f64 / base_plain.cycles as f64);
            let base_c =
                pipeline::run_original_with(&b.program, &b.timing_input, cache).unwrap();
            let config = pipeline::RunConfig { icache: cache, ..Default::default() };
            let run_c =
                pipeline::run_squashed_with(&squashed, &b.timing_input, config).unwrap().result;
            assert_eq!(base_c.output, run_c.output);
            cached.push(run_c.cycles as f64 / base_c.cycles as f64);
        }
        println!(
            "| {:5} | {:15.4} | {:17.4} |",
            squash_bench::theta_label(theta),
            squash_bench::geomean(&plain),
            squash_bench::geomean(&cached),
        );
    }
    println!();
    println!("(flushing a 64KB cache after each decompression adds refetch misses on");
    println!(" top of the decode cost — visible only where decompressions happen)");
}
