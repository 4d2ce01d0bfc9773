//! Region-formation cost: the K-bounded DFS partitioning and the greedy
//! packing pass (§4), plus the whole squash pipeline, at a permissive θ so
//! the partitioner sees the most work. A θ = 1e-3 row on `g107h80j35d6v3`,
//! the jump-table-heavy corpus program with the most regions to pack,
//! times packing where it dominates the plan stage. Set `BENCH_SMOKE=1`
//! for one measurement run per row.

use squash::{cold, regions};
use squash_bench::report;
use squash_testkit::bench::Timer;

fn main() {
    let timer = Timer::new(if report::smoke() { 1 } else { 5 }, 1);
    let benches = squash_bench::load_benches(Some(&["jpeg_enc"]));
    let b = &benches[0];
    let options = squash_bench::opts(1.0);
    let cs = cold::identify(&b.program, &b.profile, options.theta).unwrap();
    let comp = regions::compressible_blocks(&b.program, &cs, &options);

    timer.time("form_regions_theta1_packed", || {
        regions::form_regions(&b.program, &comp, &options)
    });
    let unpacked = squash::SquashOptions {
        pack_regions: false,
        ..options.clone()
    };
    timer.time("form_regions_theta1_unpacked", || {
        regions::form_regions(&b.program, &comp, &unpacked)
    });
    let opts0 = squash_bench::opts(0.0);
    timer.time("full_squash_pipeline_theta0", || b.squash(&opts0));

    let g107 = squash_workloads::by_name("g107h80j35d6v3").expect("corpus program");
    let g107 = &squash_bench::prepare_benches([g107])[0];
    let options = squash_bench::opts(1e-3);
    let cs = cold::identify(&g107.program, &g107.profile, options.theta).unwrap();
    let comp = regions::compressible_blocks(&g107.program, &cs, &options);
    timer.time("form_regions_g107_theta1e-3_packed", || {
        regions::form_regions(&g107.program, &comp, &options)
    });
}
