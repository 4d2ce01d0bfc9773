//! `squashc` — the command-line face of the reproduction, shaped like the
//! paper's `squash` tool: take a program, a profiling input and a threshold;
//! emit size statistics; optionally run the compressed program.
//!
//! ```text
//! squashc <source.mc>... [options]
//!   --theta <f>        cold-code threshold θ (default 0.0)
//!   --buffer <bytes>   runtime buffer bound K (default 512)
//!   --cache-slots <n>  decompressed-region cache slots (default 1)
//!   --profile <file>   profiling input bytes (default: empty input)
//!   --save-profile <f> write the collected block profile to a file
//!   --load-profile <f> use a saved profile instead of profiling
//!   --run <file>       run original + squashed on this input and compare
//!   --emit <file>      write the squashed program as a .sqsh image
//!                      (SQSH0003, integrity-checked)
//!   --no-squeeze       skip the baseline compactor
//!   --strategy <s>     regions: dfs | greedy (default dfs)
//!   --jump-tables <m>  retarget | unswitch | exclude (default retarget)
//!   --jobs <n>         worker threads for the parallel pipeline stages
//!                      (default 1, capped at the machine's parallelism;
//!                      output is byte-identical for any value)
//!   --stage-stats      print per-stage wall-clock and artifact sizes
//!   --metrics-json <f> write the unified telemetry report (stage records,
//!                      plus run/runtime counters when --run is given) as
//!                      one JSON document (stable schema, DESIGN.md §12);
//!                      `-` writes it to stdout and moves the progress
//!                      chatter to stderr
//!   --spans <f>        write the compile pipeline's stage timeline as
//!                      Chrome trace-event JSON (wall-clock ns; load in
//!                      Perfetto), one span per pipeline stage
//!   --retune <file>    feedback-directed recompression: re-tune against a
//!                      telemetry document from `squashrun --metrics-json`
//!                      (repeat the flag to merge a fleet of documents);
//!                      the emitted image records its provenance
//!   --dump-regions     print the region map
//! ```
//!
//! Example:
//!
//! ```sh
//! echo 'int main() { return 42; }' > /tmp/t.mc
//! cargo run --release --bin squashc -- /tmp/t.mc --theta 0.001
//! ```

use squash_repro::squash::{pipeline, JumpTableMode, RegionStrategy, SquashOptions, Squasher};
use std::process::ExitCode;

/// Progress chatter normally goes to stdout; with `--metrics-json -` the
/// telemetry document owns stdout, so the chatter moves to stderr and the
/// output stays machine-parseable.
macro_rules! say {
    ($quiet:expr, $($arg:tt)*) => {
        if $quiet { eprintln!($($arg)*) } else { println!($($arg)*) }
    };
}

struct Args {
    sources: Vec<String>,
    theta: f64,
    buffer: u32,
    cache_slots: usize,
    profile: Option<String>,
    run: Option<String>,
    emit: Option<String>,
    save_profile: Option<String>,
    load_profile: Option<String>,
    squeeze: bool,
    strategy: RegionStrategy,
    jump_tables: JumpTableMode,
    jobs: usize,
    stage_stats: bool,
    metrics_json: Option<String>,
    spans: Option<String>,
    retune: Vec<String>,
    dump_regions: bool,
}

impl Args {
    /// Whether stdout is reserved for the telemetry document.
    fn quiet(&self) -> bool {
        self.metrics_json.as_deref() == Some("-")
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sources: Vec::new(),
        theta: 0.0,
        buffer: 512,
        cache_slots: 1,
        profile: None,
        run: None,
        emit: None,
        save_profile: None,
        load_profile: None,
        squeeze: true,
        strategy: RegionStrategy::DfsTree,
        jump_tables: JumpTableMode::Retarget,
        jobs: 1,
        stage_stats: false,
        metrics_json: None,
        spans: None,
        retune: Vec::new(),
        dump_regions: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--theta" => {
                args.theta = value("--theta")?.parse().map_err(|e| format!("--theta: {e}"))?;
                // `"nan".parse::<f64>()` succeeds; reject it here so a typo
                // cannot silently behave like θ = 0 deep in the pipeline.
                if !args.theta.is_finite() {
                    return Err(format!("--theta must be finite, got {}", args.theta));
                }
            }
            "--buffer" => args.buffer = value("--buffer")?.parse().map_err(|e| format!("--buffer: {e}"))?,
            "--cache-slots" => {
                args.cache_slots = value("--cache-slots")?
                    .parse()
                    .map_err(|e| format!("--cache-slots: {e}"))?;
                if args.cache_slots == 0 {
                    return Err("--cache-slots must be at least 1".to_string());
                }
            }
            "--profile" => args.profile = Some(value("--profile")?),
            "--run" => args.run = Some(value("--run")?),
            "--emit" => args.emit = Some(value("--emit")?),
            "--save-profile" => args.save_profile = Some(value("--save-profile")?),
            "--load-profile" => args.load_profile = Some(value("--load-profile")?),
            "--no-squeeze" => args.squeeze = false,
            "--dump-regions" => args.dump_regions = true,
            "--stage-stats" => args.stage_stats = true,
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")?),
            "--spans" => args.spans = Some(value("--spans")?),
            "--retune" => args.retune.push(value("--retune")?),
            "--jobs" => {
                let requested: usize =
                    value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if requested == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                // Like `make -j`: never more workers than the machine can
                // actually run (the image is identical either way).
                args.jobs = squash_repro::squash::effective_jobs(requested);
            }
            "--strategy" => {
                args.strategy = match value("--strategy")?.as_str() {
                    "dfs" => RegionStrategy::DfsTree,
                    "greedy" => RegionStrategy::LayoutGreedy,
                    other => return Err(format!("unknown strategy `{other}`")),
                }
            }
            "--jump-tables" => {
                args.jump_tables = match value("--jump-tables")?.as_str() {
                    "retarget" => JumpTableMode::Retarget,
                    "unswitch" => JumpTableMode::Unswitch,
                    "exclude" => JumpTableMode::Exclude,
                    other => return Err(format!("unknown jump-table mode `{other}`")),
                }
            }
            "--help" | "-h" => {
                return Err("usage: squashc <source.mc>... [--theta F] [--buffer N] \
                            [--cache-slots N] [--profile FILE] [--run FILE] [--emit FILE] \
                            [--no-squeeze] [--strategy dfs|greedy] [--jump-tables MODE] \
                            [--jobs N] [--stage-stats] [--metrics-json FILE|-] \
                            [--spans FILE] [--retune FILE]... [--dump-regions]"
                    .to_string())
            }
            other if !other.starts_with('-') => args.sources.push(other.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.sources.is_empty() {
        return Err("no source files given (try --help)".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("squashc: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let q = args.quiet();
    let mut texts = Vec::new();
    for path in &args.sources {
        texts.push(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?);
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let program = squash_repro::minicc::build_program(&refs)?;
    say!(q, "compiled:  {} instructions", program.text_words());
    let program = if args.squeeze {
        let (p, stats) = squash_repro::squeeze::squeeze(&program);
        say!(q, 
            "squeezed:  {} instructions ({} dead functions, {} dead blocks removed)",
            stats.output_words, stats.funcs_removed, stats.blocks_removed
        );
        p
    } else {
        program
    };

    let profile = match &args.load_profile {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let p = squash_repro::squash::BlockProfile::deserialize(&bytes)
                .map_err(|e| e.to_string())?;
            say!(q, "profile:   loaded from {path} ({} instructions)", p.total_instructions);
            p
        }
        None => {
            let profile_input = match &args.profile {
                Some(path) => std::fs::read(path).map_err(|e| format!("{path}: {e}"))?,
                None => Vec::new(),
            };
            let p = pipeline::profile_jobs(&program, &[profile_input], args.jobs)
                .map_err(|e| e.to_string())?;
            say!(q, "profiled:  {} instructions executed", p.total_instructions);
            p
        }
    };
    if let Some(path) = &args.save_profile {
        std::fs::write(path, profile.serialize()).map_err(|e| format!("{path}: {e}"))?;
        say!(q, "profile:   saved to {path}");
    }

    let options = SquashOptions {
        theta: args.theta,
        buffer_limit: args.buffer,
        cache_slots: args.cache_slots,
        region_strategy: args.strategy,
        jump_tables: args.jump_tables,
        jobs: args.jobs,
        ..Default::default()
    };
    let mut telemetry = squash_repro::squash::telemetry::Telemetry {
        name: args.sources.join(" "),
        ..Default::default()
    };
    let squashed = if args.retune.is_empty() {
        let squasher = Squasher::new(&program, &profile, &options).map_err(|e| e.to_string())?;
        if args.dump_regions {
            let cold = squasher.cold();
            say!(q, "\ncold blocks (θ = {}):", args.theta);
            for (fid, f) in squasher.program().iter_funcs() {
                let cold_count = cold.cold[fid.0].iter().filter(|&&c| c).count();
                if cold_count > 0 {
                    say!(q, "  {:24} {:3}/{} blocks cold", f.name, cold_count, f.blocks.len());
                }
            }
        }
        let mut stage_observer = squash_repro::squash::stages::CollectObserver::default();
        let squashed = squasher
            .finish_observed(&mut stage_observer)
            .map_err(|e| e.to_string())?;
        if args.stage_stats {
            say!(q, "\npipeline stages ({} job{}):", args.jobs, if args.jobs == 1 { "" } else { "s" });
            say!(q, "{stage_observer}");
        }
        telemetry.stages = stage_observer
            .stages
            .iter()
            .map(squash_repro::squash::telemetry::StageRecord::from)
            .collect();
        squashed
    } else {
        retune_image(&args, &program, &profile, &options)?
    };
    let stats = &squashed.stats;
    say!(q, 
        "squashed:  {} regions / {} blocks / {} entry stubs",
        stats.regions, stats.compressed_blocks, stats.entry_stubs
    );
    say!(q, "\n{}", stats.footprint);
    say!(q, 
        "\nbaseline {} B → squashed {} B  ({:+.1}% code size)",
        stats.baseline_bytes,
        stats.footprint.total(),
        -100.0 * stats.reduction(),
    );

    if let Some(path) = &args.emit {
        let bytes = squash_repro::squash::image_file::write(&squashed);
        std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
        say!(q, "\nwrote {} ({} bytes) — run it with `squashrun {}`", path, bytes.len(), path);
    }

    if let Some(path) = &args.run {
        let input = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let original = pipeline::run_original(&program, &input).map_err(|e| e.to_string())?;
        let compressed = pipeline::run_squashed(&squashed, &input).map_err(|e| e.to_string())?;
        if original.status != compressed.status || original.output != compressed.output {
            return Err(format!(
                "behaviour diverged! status {} vs {}, {} vs {} output bytes",
                original.status,
                compressed.status,
                original.output.len(),
                compressed.output.len()
            ));
        }
        say!(q, 
            "\nrun: outputs identical ✓  exit {}  cycles {} → {} ({:+.2}%)  \
             {} decompressions, {} restore stubs",
            original.status,
            original.cycles,
            compressed.cycles,
            100.0 * (compressed.cycles as f64 / original.cycles as f64 - 1.0),
            compressed.runtime.decompressions,
            compressed.runtime.stub_allocs,
        );
        say!(q, 
            "run: region cache ({} slot{}): {} hits, {} misses, {} evictions",
            args.cache_slots,
            if args.cache_slots == 1 { "" } else { "s" },
            compressed.runtime.hits,
            compressed.runtime.misses,
            compressed.runtime.evictions,
        );
        let run_telemetry = compressed.telemetry(&telemetry.name);
        telemetry.run = run_telemetry.run;
        telemetry.runtime = run_telemetry.runtime;
        telemetry.icache = run_telemetry.icache;
    }

    if let Some(path) = &args.spans {
        let log = squash_repro::squash::monitor::stage_spans(&telemetry.stages);
        std::fs::write(path, log.to_chrome_json() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
        say!(q, "spans:     wrote {path} ({} stage spans)", log.len());
    }
    if let Some(path) = &args.metrics_json {
        let doc = telemetry.to_json_string() + "\n";
        if path == "-" {
            print!("{doc}");
        } else {
            std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
            say!(q, "metrics:   wrote {path}");
        }
    }
    Ok(())
}

/// Loads and merges the `--retune` telemetry documents, runs the
/// feedback-directed retuner, and prints the candidate-ladder report.
fn retune_image(
    args: &Args,
    program: &squash_repro::cfg::Program,
    profile: &squash_repro::squash::BlockProfile,
    options: &SquashOptions,
) -> Result<squash_repro::squash::layout::Squashed, String> {
    use squash_repro::obs::json;
    use squash_repro::squash::telemetry::Telemetry;
    let q = args.quiet();
    let mut docs = Vec::with_capacity(args.retune.len());
    for path in &args.retune {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        docs.push(Telemetry::from_json(&doc).map_err(|e| format!("{path}: {e}"))?);
    }
    let count = docs.len();
    let merged = match docs.len() {
        1 => docs.remove(0),
        _ => Telemetry::merge(&docs),
    };
    say!(q, 
        "retune:    {} telemetry document{} from {} ({} measured cycles)",
        count,
        if count == 1 { "" } else { "s" },
        merged.name,
        merged.run.as_ref().map_or(0, |r| r.cycles),
    );
    let retuned = squash_repro::squash::retune::retune(program, profile, options, &merged)
        .map_err(|e| e.to_string())?;
    let report = &retuned.report;
    say!(q, 
        "retune:    {} hot region{} measured, base {} cycles",
        report.hot_regions,
        if report.hot_regions == 1 { "" } else { "s" },
        report.base_cycles,
    );
    for (i, c) in report.candidates.iter().enumerate() {
        say!(q, 
            "retune:    {} candidate {i:2}: θ={:<8} K={:<5} {}  {:>10} predicted cycles, {} regions, {} B",
            if i == report.winner { "→" } else { " " },
            c.theta,
            c.buffer_limit,
            if c.demoted { "demoted" } else { "static " },
            c.predicted_cycles,
            c.regions,
            c.footprint,
        );
    }
    Ok(retuned.squashed)
}
