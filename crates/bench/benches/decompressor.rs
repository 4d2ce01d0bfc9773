//! End-to-end decompressor cost, host and simulated: per workload, the
//! host nanoseconds per instruction decoded (every compressed region of
//! the squashed image, fast decoder vs. bit-by-bit reference; min over
//! runs, see `Timer::time_stats`) and the simulated cycles the runtime
//! charges on a full timing run — which must not depend on the host
//! decoder at all. Plus the original whole-run latency probes for one
//! workload at the paper's operating points.
//!
//! Emits the `decompressor` section of `BENCH_PR2.json`
//! (`<workload>.host_ns_per_inst`, `<workload>.host_ns_per_inst_reference`,
//! `<workload>.simulated_cycles`). Set `BENCH_SMOKE=1` for the CI check
//! mode (two workloads, fewest runs).

use squash::pipeline;
use squash_bench::report;
use squash_testkit::bench::Timer;

/// θ high enough that the timing run decompresses constantly.
const THETA_HOT: f64 = 3e-3;

fn main() {
    let smoke = report::smoke();
    let timer = Timer::new(if smoke { 3 } else { 5 }, 1);
    let names: Option<&[&str]> = if smoke { Some(&["adpcm", "gsm"]) } else { None };
    let benches = squash_bench::load_benches(names);

    let mut entries: Vec<(String, f64)> = Vec::new();
    for b in &benches {
        let squashed = b.squash(&squash_bench::opts(THETA_HOT));
        let rt = &squashed.runtime;
        let total_insts: u64 = rt
            .bit_offsets
            .iter()
            .map(|&off| {
                rt.model
                    .decompress_region(&rt.blob, off)
                    .expect("region decodes")
                    .0
                    .len() as u64
            })
            .sum();
        if total_insts == 0 {
            continue;
        }
        let fast = timer.time_stats(
            &format!("decompressor/regions_fast/{}", b.name),
            total_insts,
            || {
                for &off in &rt.bit_offsets {
                    rt.model
                        .decompress_region(std::hint::black_box(&rt.blob), off)
                        .unwrap();
                }
            },
        );
        let reference = timer.time_stats(
            &format!("decompressor/regions_reference/{}", b.name),
            total_insts,
            || {
                for &off in &rt.bit_offsets {
                    rt.model
                        .decompress_region_reference(std::hint::black_box(&rt.blob), off)
                        .unwrap();
                }
            },
        );
        // Simulated cost of a full timing run: a pure function of which
        // regions were requested and their bit/instruction counts — the
        // fast decoder must leave this number untouched.
        let run = b.run_squashed(&squashed);
        entries.push((
            format!("{}.host_ns_per_inst", b.name),
            fast.min_ns / total_insts as f64,
        ));
        entries.push((
            format!("{}.host_ns_per_inst_reference", b.name),
            reference.min_ns / total_insts as f64,
        ));
        entries.push((
            format!("{}.simulated_cycles", b.name),
            run.runtime.cycles_charged as f64,
        ));
    }

    // The original end-to-end latency probes (one workload, both θ points).
    let b = &benches[0];
    let squashed_hot = b.squash(&squash_bench::opts(THETA_HOT));
    let squashed_cold = b.squash(&squash_bench::opts(0.0));
    let probe_input = &b.profiling_input;
    timer.time("timing_run_theta0", || {
        pipeline::run_squashed(&squashed_cold, probe_input).unwrap()
    });
    timer.time("timing_run_theta3e-3", || {
        pipeline::run_squashed(&squashed_hot, probe_input).unwrap()
    });
    timer.time("baseline_run", || {
        pipeline::run_original(&b.program, probe_input).unwrap()
    });

    report::write_named("BENCH_PR2.json", "decompressor", &entries);
}
