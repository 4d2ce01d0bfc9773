//! The four workloads. Each one sets up (several times, for `setup_s`),
//! runs untraced rounds for the requested seconds, checks every result
//! against an independent reference, and — when traced — runs one more
//! round with spans plus standalone probes of the load, decode and verify
//! layers.

use std::slice;
use std::time::{Duration, Instant};

use squash::fleet::{Fleet, FleetConfig, ImageStore, Request, RetryPolicy};
use squash::pipeline::{self, RunResult};
use squash::{image_file, integrity, BlockProfile, SquashOptions, Squasher};
use squash_cfg::Program;

use crate::json::Metric;
use crate::programs::{self, Source};
use crate::trace::{run_traced, StageSpans, Tracer};

/// The cold-code threshold every workload squashes at.
const THETA: f64 = 1e-3;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;

/// Passes of each standalone layer probe; each image keeps its fastest.
const PROBE_PASSES: usize = 3;

/// Fleet worker threads: with the client thread, no more than the two
/// cores the benchmark is sized for.
const FLEET_WORKERS: usize = 2;

/// Fleet timing inputs are cut to this many bytes, so one request runs
/// 0.1–1 M guest instructions.
const FLEET_INPUT_BYTES: usize = 256;

/// Tenants of the unloaded closed loop (one request outstanding).
const FLEET_LOOP_TENANTS: usize = 10;

/// Tenants and repeats per image of one gated burst.
const FLEET_BURST_TENANTS: usize = 4;
const FLEET_BURST_REPEATS: usize = 4;

/// Compile checks corpus images on this much of their timing input.
const COMPILE_CHECK_BYTES: usize = 1024;

/// The workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["run_paper", "run_trap", "compile", "fleet"];

/// How one workload process runs.
#[derive(Debug)]
pub struct Opts {
    /// Input seed (see [`programs`]).
    pub seed: u64,
    /// Seconds of untraced rounds.
    pub seconds: f64,
    /// Run the traced round and report per-layer metrics.
    pub trace: bool,
    /// One round over two small programs, one set-up pass.
    pub smoke: bool,
}

/// Operations checked against a reference, and how many failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or disagreed with their reference.
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; a `problem` fails it and is reported on stderr.
    fn record(&mut self, what: &str, problem: Option<String>) -> bool {
        self.attempted += 1;
        match problem {
            None => true,
            Some(p) => {
                self.failed += 1;
                eprintln!("ledger: {what}: {p}");
                false
            }
        }
    }

    /// Counts a squashed run: it must succeed, match `original`'s status
    /// and output, and take `cycles` cycles once they are known.
    fn run(
        &mut self,
        what: &str,
        result: Result<RunResult, String>,
        original: Option<&RunResult>,
        cycles: &mut Option<u64>,
    ) -> Option<RunResult> {
        let problem = match (&result, original) {
            (Err(e), _) => Some(e.clone()),
            (Ok(_), None) => Some("no reference run to compare with".to_string()),
            (Ok(r), Some(o)) if r.status != o.status || r.output != o.output => Some(format!(
                "status/output differ from the original program (status {} vs {}, {} vs {} bytes)",
                r.status,
                o.status,
                r.output.len(),
                o.output.len()
            )),
            (Ok(r), _) if cycles.is_some_and(|c| c != r.cycles) => Some(format!(
                "{} simulated cycles, expected {}",
                r.cycles,
                cycles.unwrap_or_default()
            )),
            (Ok(_), _) => None,
        };
        if !self.record(what, problem) {
            return None;
        }
        let r = result.ok()?;
        cycles.get_or_insert(r.cycles);
        Some(r)
    }
}

/// What one workload process measured.
#[derive(Debug)]
pub struct Report {
    /// The programs it ran, in order.
    pub programs: Vec<String>,
    /// Fingerprint of every input it drew.
    pub input_digest: u64,
    /// End-to-end metrics (untraced rounds only).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub layers: Vec<Metric>,
    /// Operations checked.
    pub checks: Checks,
    /// The traced round's spans as Chrome trace JSON, when traced.
    pub trace_json: Option<String>,
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, opts: &Opts) -> Option<Report> {
    match name {
        "run_paper" => Some(run_programs(programs::paper(opts.smoke), opts)),
        "run_trap" => Some(run_programs(
            programs::corpus(opts.seed, opts.smoke, usize::MAX),
            opts,
        )),
        "compile" => Some(compile(opts)),
        "fleet" => Some(fleet(opts)),
        _ => None,
    }
}

/// One program after set-up.
struct Built {
    src: Source,
    program: Program,
    profile: BlockProfile,
    /// The squeezed program's code size, the paper's baseline.
    baseline_bytes: u32,
    /// The image, when set-up squashes.
    emitted: Option<Emitted>,
}

/// One squash: image bytes, size and how long planning took.
struct Emitted {
    bytes: Vec<u8>,
    footprint: u32,
    regions: usize,
    /// Plan's share of `Squasher::new` plus `finish`.
    plan_share: f64,
}

impl Built {
    fn image(&self) -> &[u8] {
        self.emitted.as_ref().map_or(&[], |e| &e.bytes)
    }
}

fn squash_options(cache_slots: usize) -> SquashOptions {
    SquashOptions {
        theta: THETA,
        cache_slots,
        ..SquashOptions::default()
    }
}

/// Squashes one program through `Squasher::new` and `finish_observed`, with
/// spans `program ▸ cold, stage.*, write`.
fn emit(
    tracer: &mut Tracer,
    name: &str,
    program: &Program,
    profile: &BlockProfile,
    options: &SquashOptions,
) -> Result<Emitted, String> {
    let plan_before = tracer.total("stage.plan").1;
    let start = tracer.now();
    let squasher = Squasher::new(program, profile, options).map_err(|e| e.to_string())?;
    let cold = tracer.now();
    tracer.span("cold", "cold", start, cold);
    let squashed = squasher
        .finish_observed(&mut StageSpans {
            tracer: &mut *tracer,
        })
        .map_err(|e| e.to_string())?;
    let finished = tracer.now();
    let bytes = image_file::write(&squashed);
    let end = tracer.now();
    tracer.span("write", "write", finished, end);
    tracer.span("program", name, start, end);
    let plan = tracer.total("stage.plan").1 - plan_before;
    Ok(Emitted {
        bytes,
        footprint: squashed.stats.footprint.total(),
        regions: squashed.stats.regions,
        plan_share: ratio(plan as f64, finished.saturating_sub(start) as f64),
    })
}

/// Compile, squeeze, profile and (with `squash`) squash every source,
/// `passes` times. Returns the last pass's programs and the median pass
/// time in seconds. The tracer's totals then hold the last pass alone.
/// Programs that fail any step are reported and dropped.
fn set_up(
    sources: Vec<Source>,
    squash: Option<&SquashOptions>,
    passes: usize,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (Vec<Built>, f64) {
    let mut pass_s = Vec::new();
    let mut last: Vec<Option<Built>> = Vec::new();
    for pass in 0..passes {
        tracer.reset_totals();
        let pass_start = tracer.now();
        let mut built = Vec::with_capacity(sources.len());
        for (i, src) in sources.iter().enumerate() {
            let b = build_one(src, squash, tracer);
            let same_as_before = match (&b, last.get(i).and_then(Option::as_ref)) {
                (Ok(now), Some(before)) => now.image() == before.image(),
                _ => true,
            };
            let problem = match &b {
                Err(e) => Some(e.clone()),
                Ok(_) if !same_as_before => {
                    Some(format!("set-up pass {pass} emitted different image bytes"))
                }
                Ok(_) => None,
            };
            let ok = checks.record(&format!("set-up of {}", src.name), problem);
            let dropped = pass > 0 && last.get(i).is_none_or(Option::is_none);
            built.push(b.ok().filter(|_| ok && !dropped));
        }
        let end = tracer.now();
        tracer.span("setup", "setup", pass_start, end);
        pass_s.push(end.saturating_sub(pass_start) as f64 / 1e9);
        last = built;
    }
    let built: Vec<Built> = last.into_iter().flatten().collect();
    for b in built.iter().filter(|b| b.emitted.is_some()) {
        check_round_trip(checks, b);
    }
    (built, crate::compare::median(&pass_s))
}

/// Counts the check that `image_file::write(read(image))` gives back the
/// image's bytes.
fn check_round_trip(checks: &mut Checks, b: &Built) {
    let problem = match image_file::read(b.image()).map(|s| image_file::write(&s)) {
        Err(e) => Some(e.to_string()),
        Ok(bytes) if bytes != b.image() => Some("write(read(image)) changed the bytes".to_string()),
        Ok(_) => None,
    };
    checks.record(&format!("image round trip of {}", b.src.name), problem);
}

/// Loads and runs an image the way `squashrun` users do, untraced.
fn run_plain(image: &[u8], input: &[u8]) -> Result<RunResult, String> {
    image_file::read(image)
        .and_then(|s| pipeline::run_squashed(&s, input))
        .map_err(|e| e.to_string())
}

/// Set-up of one source: the steps a user runs before `squashrun`.
fn build_one(
    src: &Source,
    squash: Option<&SquashOptions>,
    tracer: &mut Tracer,
) -> Result<Built, String> {
    let t0 = tracer.now();
    let raw = std::panic::catch_unwind(|| src.workload.program())
        .map_err(|_| format!("{} failed to compile", src.name))?;
    let t1 = tracer.now();
    tracer.span("compile", "compile", t0, t1);
    let (program, _) = squash_squeeze::squeeze(&raw);
    let t2 = tracer.now();
    tracer.span("squeeze", "squeeze", t1, t2);
    let profile = pipeline::profile(&program, slice::from_ref(&src.profiling_input))
        .map_err(|e| e.to_string())?;
    let t3 = tracer.now();
    tracer.span("profile", "profile", t2, t3);
    let emitted = match squash {
        Some(options) => Some(emit(tracer, &src.name, &program, &profile, options)?),
        None => None,
    };
    Ok(Built {
        baseline_bytes: program.text_words() * 4,
        src: src.clone(),
        program,
        profile,
        emitted,
    })
}

/// Runs the unsquashed program: the independent reference every squashed
/// result is compared with.
fn reference(
    tracer: &mut Tracer,
    checks: &mut Checks,
    b: &Built,
    input: &[u8],
) -> Option<RunResult> {
    let start = tracer.now();
    let r = pipeline::run_original(&b.program, input);
    tracer.span("reference", &b.src.name, start, tracer.now());
    let problem = r.as_ref().err().map(ToString::to_string);
    checks.record(&format!("reference run of {}", b.src.name), problem);
    r.ok()
}

/// Calls `round` until `opts.seconds` have passed (once under smoke) and
/// returns each round's wall time in seconds.
fn rounds(opts: &Opts, mut round: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        round();
        walls.push(t.elapsed().as_secs_f64());
        if opts.smoke || start.elapsed() >= budget {
            return walls;
        }
    }
}

/// `run_paper` and `run_trap`: load each squashed image and run it on its
/// timing input, round-robin, with one buffer slot.
fn run_programs(sources: Vec<Source>, opts: &Opts) -> Report {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(opts.trace);
    let digest = programs::input_digest(&sources);
    let passes = if opts.smoke { 1 } else { SETUP_PASSES };
    let (built, setup_s) = set_up(
        sources,
        Some(&squash_options(1)),
        passes,
        &mut checks,
        &mut tracer,
    );
    let originals: Vec<Option<RunResult>> = built
        .iter()
        .map(|b| reference(&mut tracer, &mut checks, b, &b.src.timing_input))
        .collect();

    let mut cycles: Vec<Option<u64>> = vec![None; built.len()];
    let mut best = vec![f64::INFINITY; built.len()];
    let walls = rounds(opts, || {
        for (i, b) in built.iter().enumerate() {
            let t = Instant::now();
            let result = run_plain(b.image(), &b.src.timing_input);
            let dt = t.elapsed().as_secs_f64();
            let what = format!("run of {}", b.src.name);
            if checks
                .run(&what, result, originals[i].as_ref(), &mut cycles[i])
                .is_some()
            {
                best[i] = best[i].min(dt);
            }
        }
    });

    let end_to_end = vec![
        latency(&best),
        throughput(&best),
        setup_metric(setup_s),
        size_ratio(&built),
        sim_ratio(&cycles, &originals),
        peak_rss(),
    ];
    let mut layers = Vec::new();
    if opts.trace {
        let start = Instant::now();
        let mut runs = RunSums::default();
        for (i, b) in built.iter().enumerate() {
            let result = run_traced(&mut tracer, &b.src.name, b.image(), &b.src.timing_input);
            let what = format!("traced run of {}", b.src.name);
            if let Some(r) = checks.run(&what, result, originals[i].as_ref(), &mut cycles[i]) {
                runs.add(&r);
            }
        }
        let overhead = start.elapsed().as_secs_f64() / last(&walls) - 1.0;
        layers = layer_metrics(
            &tracer,
            &built,
            &mut checks,
            &runs,
            &FleetSums::default(),
            overhead,
        );
    }
    report(&built, digest, end_to_end, layers, checks, &tracer)
}

/// `compile`: squash and write each program's image, round-robin; then
/// check each image by running it against the original program.
fn compile(opts: &Opts) -> Report {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(opts.trace);
    // Compile times no runs; it checks each image on one input: a paper
    // program's profiling input, or the start of a corpus timing input.
    let mut sources = programs::paper(opts.smoke);
    for s in &mut sources {
        s.timing_input = s.profiling_input.clone();
    }
    sources.extend(programs::corpus(opts.seed, opts.smoke, COMPILE_CHECK_BYTES));
    let digest = programs::input_digest(&sources);
    let passes = if opts.smoke { 1 } else { SETUP_PASSES };
    let (mut built, setup_s) = set_up(sources, None, passes, &mut checks, &mut tracer);
    let options = squash_options(1);

    let mut best = vec![f64::INFINITY; built.len()];
    let walls = rounds(opts, || {
        for (i, b) in built.iter_mut().enumerate() {
            let t = Instant::now();
            let result = Squasher::new(&b.program, &b.profile, &options)
                .and_then(Squasher::finish)
                .map(|s| (image_file::write(&s), s));
            let dt = t.elapsed().as_secs_f64();
            let problem = match (&result, &b.emitted) {
                (Err(e), _) => Some(e.to_string()),
                (Ok((bytes, _)), Some(first)) if *bytes != first.bytes => {
                    Some("emitted different image bytes than the first round".to_string())
                }
                _ => None,
            };
            if checks.record(&format!("squash of {}", b.src.name), problem) {
                best[i] = best[i].min(dt);
                if let Ok((bytes, s)) = result {
                    b.emitted.get_or_insert(Emitted {
                        bytes,
                        footprint: s.stats.footprint.total(),
                        regions: s.stats.regions,
                        plan_share: 0.0,
                    });
                }
            }
        }
    });

    // Check every image: byte-stable through a read/write round trip, and
    // running like the original program.
    let mut cycles: Vec<Option<u64>> = vec![None; built.len()];
    let mut originals = Vec::with_capacity(built.len());
    let mut runs = RunSums::default();
    for (i, b) in built.iter().enumerate() {
        let input = &b.src.timing_input;
        let original = reference(&mut tracer, &mut checks, b, input);
        check_round_trip(&mut checks, b);
        let result = run_traced(&mut tracer, &b.src.name, b.image(), input);
        let what = format!("check run of {}", b.src.name);
        if let Some(r) = checks.run(&what, result, original.as_ref(), &mut cycles[i]) {
            runs.add(&r);
        }
        originals.push(original);
    }

    let end_to_end = vec![
        latency(&best),
        throughput(&best),
        setup_metric(setup_s),
        size_ratio(&built),
        sim_ratio(&cycles, &originals),
        peak_rss(),
    ];
    let mut layers = Vec::new();
    if opts.trace {
        // The check runs above already filled the run-side totals; the
        // traced round adds the emit side.
        let start = Instant::now();
        for b in &mut built {
            let result = emit(&mut tracer, &b.src.name, &b.program, &b.profile, &options);
            let problem = match (&result, &b.emitted) {
                (Err(e), _) => Some(e.clone()),
                (Ok(e), Some(first)) if e.bytes != first.bytes => {
                    Some("traced squash emitted different image bytes".to_string())
                }
                _ => None,
            };
            if checks.record(&format!("traced squash of {}", b.src.name), problem) {
                b.emitted = result.ok();
            }
        }
        let overhead = start.elapsed().as_secs_f64() / last(&walls) - 1.0;
        layers = layer_metrics(
            &tracer,
            &built,
            &mut checks,
            &runs,
            &FleetSums::default(),
            overhead,
        );
    }
    report(&built, digest, end_to_end, layers, checks, &tracer)
}

/// `fleet`: the corpus images (two buffer slots) served through
/// `core::fleet::Fleet` by two workers, as an unloaded closed loop and as
/// gated bursts, next to solo runs of the same requests.
fn fleet(opts: &Opts) -> Report {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(opts.trace);
    let sources = programs::corpus(opts.seed, opts.smoke, FLEET_INPUT_BYTES);
    let digest = programs::input_digest(&sources);
    let passes = if opts.smoke { 1 } else { SETUP_PASSES };
    let (built, setup_s) = set_up(
        sources,
        Some(&squash_options(2)),
        passes,
        &mut checks,
        &mut tracer,
    );
    let originals: Vec<Option<RunResult>> = built
        .iter()
        .map(|b| reference(&mut tracer, &mut checks, b, &b.src.timing_input))
        .collect();
    let burst: Vec<(usize, Request)> = (0..FLEET_BURST_TENANTS)
        .flat_map(|t| {
            let built = &built;
            built.iter().enumerate().flat_map(move |(i, b)| {
                (0..FLEET_BURST_REPEATS).map(move |_| (i, request(&format!("burst{t}"), b)))
            })
        })
        .collect();
    let store = ImageStore::in_memory(RetryPolicy::default());
    for b in &built {
        store.add_bytes(&b.src.name, b.image().to_vec());
    }
    let config = FleetConfig {
        workers: FLEET_WORKERS,
        queue_limit: burst.len().max(1),
        ..FleetConfig::default()
    };
    let n = built.len();
    let mut serve = Serve {
        fleet: Fleet::new(store, config),
        cycles: vec![None; n],
        best_latency: vec![f64::INFINITY; n],
        best_solo: vec![f64::INFINITY; n],
        best_rate: 0.0,
        built,
        originals,
        burst,
    };
    let walls = rounds(opts, || {
        serve.round(None, &mut checks);
    });

    let end_to_end = vec![
        latency(&serve.best_latency),
        throughput(&serve.best_latency),
        setup_metric(setup_s),
        size_ratio(&serve.built),
        sim_ratio(&serve.cycles, &serve.originals),
        peak_rss(),
    ];
    let mut layers = Vec::new();
    if opts.trace {
        let start = Instant::now();
        let runs = serve.round(Some(&mut tracer), &mut checks);
        let overhead = start.elapsed().as_secs_f64() / last(&walls) - 1.0;
        let m = serve.fleet.metrics();
        let solo: f64 = serve.best_solo.iter().filter(|v| v.is_finite()).sum();
        let loaded: f64 = serve.best_latency.iter().filter(|v| v.is_finite()).sum();
        let fleet = FleetSums {
            requests: m.tenants.iter().map(|t| t.submitted).sum::<u64>() as f64,
            burst_rate: serve.best_rate,
            hits: m.cache.hits as f64,
            misses: m.cache.misses as f64,
            bypasses: m.cache.bypasses as f64,
            hit_rate: ratio(m.cache.hits as f64, (m.cache.hits + m.cache.misses) as f64),
            bypass_rate: ratio(m.cache.bypasses as f64, m.cache.misses as f64),
            shed: m.tenants.iter().map(|t| t.shed).sum::<u64>() as f64,
            overhead_share: 1.0 - ratio(solo, loaded),
            // The best burst rate against what the workers would reach if
            // each served requests at the unloaded latency back to back.
            parallel_efficiency: ratio(serve.best_rate * loaded, (n * FLEET_WORKERS) as f64),
        };
        layers = layer_metrics(&tracer, &serve.built, &mut checks, &runs, &fleet, overhead);
    }
    report(&serve.built, digest, end_to_end, layers, checks, &tracer)
}

/// The fleet workload's state across rounds.
struct Serve {
    built: Vec<Built>,
    originals: Vec<Option<RunResult>>,
    cycles: Vec<Option<u64>>,
    burst: Vec<(usize, Request)>,
    fleet: Fleet,
    best_latency: Vec<f64>,
    best_solo: Vec<f64>,
    best_rate: f64,
}

impl Serve {
    /// One round: a solo run of every request, the unloaded closed loop,
    /// then one gated burst. An untraced round keeps the best times; a
    /// traced one records spans and returns the solo runs' counters.
    fn round(&mut self, mut tracer: Option<&mut Tracer>, checks: &mut Checks) -> RunSums {
        let timed = tracer.is_none();
        let mut runs = RunSums::default();
        // Solo runs go first: they fix each image's cycle count, which
        // every fleet result must then match.
        for (i, b) in self.built.iter().enumerate() {
            let t = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(tr) => run_traced(tr, &b.src.name, b.image(), &b.src.timing_input),
                None => run_plain(b.image(), &b.src.timing_input),
            };
            let dt = t.elapsed().as_secs_f64();
            let what = format!("solo run of {}", b.src.name);
            if let Some(r) = checks.run(
                &what,
                result,
                self.originals[i].as_ref(),
                &mut self.cycles[i],
            ) {
                runs.add(&r);
                if timed {
                    self.best_solo[i] = self.best_solo[i].min(dt);
                }
            }
        }
        for t in 0..FLEET_LOOP_TENANTS {
            for (i, b) in self.built.iter().enumerate() {
                let req = request(&format!("tenant{t}"), b);
                let t0 = tracer.as_deref().map_or(0, Tracer::now);
                let start = Instant::now();
                let submitted = self.fleet.submit(req);
                let t1 = tracer.as_deref().map_or(0, Tracer::now);
                let result = match submitted {
                    Err(e) => Err(e.to_string()),
                    Ok(id) => match self.fleet.drain(id) {
                        Some(r) => r.map_err(|e| e.to_string()),
                        None => Err("the fleet lost the result".to_string()),
                    },
                };
                let dt = start.elapsed().as_secs_f64();
                if let Some(tr) = tracer.as_deref_mut() {
                    let t2 = tr.now();
                    tr.span("submit", "submit", t0, t1);
                    tr.span("drain", "drain", t1, t2);
                    tr.span("request", &b.src.name, t0, t2);
                }
                let what = format!("fleet request for {}", b.src.name);
                if checks
                    .run(
                        &what,
                        result,
                        self.originals[i].as_ref(),
                        &mut self.cycles[i],
                    )
                    .is_some()
                    && timed
                {
                    self.best_latency[i] = self.best_latency[i].min(dt);
                }
            }
        }
        let requests: Vec<Request> = self.burst.iter().map(|(_, r)| r.clone()).collect();
        let t0 = tracer.as_deref().map_or(0, Tracer::now);
        let start = Instant::now();
        let results = self.fleet.run_batch(requests);
        let dt = start.elapsed().as_secs_f64();
        if let Some(tr) = tracer {
            let t1 = tr.now();
            tr.span("batch", "batch", t0, t1);
        }
        let mut clean = true;
        for ((i, _), result) in self.burst.iter().zip(results) {
            let what = format!("burst request for {}", self.built[*i].src.name);
            let result = result.map_err(|e| e.to_string());
            clean &= checks
                .run(
                    &what,
                    result,
                    self.originals[*i].as_ref(),
                    &mut self.cycles[*i],
                )
                .is_some();
        }
        if clean && timed {
            self.best_rate = self.best_rate.max(self.burst.len() as f64 / dt);
        }
        runs
    }
}

fn request(tenant: &str, b: &Built) -> Request {
    Request {
        tenant: tenant.to_string(),
        image: b.src.name.clone(),
        input: b.src.timing_input.clone(),
        deadline: None,
    }
}

fn report(
    built: &[Built],
    digest: u64,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    checks: Checks,
    tracer: &Tracer,
) -> Report {
    Report {
        programs: built.iter().map(|b| b.src.name.clone()).collect(),
        input_digest: digest,
        end_to_end,
        layers,
        checks,
        trace_json: tracer.chrome_json(),
    }
}

// ---- end-to-end metrics ----

fn latency(best_s: &[f64]) -> Metric {
    let finite: Vec<f64> = best_s.iter().copied().filter(|v| v.is_finite()).collect();
    Metric {
        name: "latency_ms",
        value: geomean(&finite) * 1e3,
        unit: "ms",
    }
}

/// Items per second of back-to-back work at each item's best time.
fn throughput(best_s: &[f64]) -> Metric {
    let finite: Vec<f64> = best_s.iter().copied().filter(|v| v.is_finite()).collect();
    Metric {
        name: "throughput",
        value: ratio(finite.len() as f64, finite.iter().sum()),
        unit: "1/s",
    }
}

fn setup_metric(setup_s: f64) -> Metric {
    Metric {
        name: "setup_s",
        value: setup_s,
        unit: "s",
    }
}

fn size_ratio(built: &[Built]) -> Metric {
    let ratios: Vec<f64> = built
        .iter()
        .filter_map(|b| {
            b.emitted
                .as_ref()
                .map(|e| ratio(e.footprint as f64, b.baseline_bytes as f64))
        })
        .collect();
    Metric {
        name: "size_ratio",
        value: geomean(&ratios),
        unit: "ratio",
    }
}

fn sim_ratio(cycles: &[Option<u64>], originals: &[Option<RunResult>]) -> Metric {
    let ratios: Vec<f64> = cycles
        .iter()
        .zip(originals)
        .filter_map(|(c, o)| {
            Some(ratio(
                c.as_ref().copied()? as f64,
                o.as_ref()?.cycles as f64,
            ))
        })
        .collect();
    Metric {
        name: "sim_cycles_ratio",
        value: geomean(&ratios),
        unit: "ratio",
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB; 0 where the kernel
/// does not report it.
fn peak_rss() -> Metric {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    Metric {
        name: "peak_rss_mb",
        value: kb / 1024.0,
        unit: "MiB",
    }
}

// ---- per-layer metrics ----

/// Runtime counters summed over the traced runs.
#[derive(Debug, Default, Clone, Copy)]
struct RunSums {
    insts: u64,
    cycles: u64,
    misses: u64,
    hits: u64,
    evictions: u64,
    stub_allocs: u64,
    restores: u64,
    bits_read: u64,
    insts_written: u64,
    cycles_charged: u64,
    checksum_cycles: u64,
}

impl RunSums {
    fn add(&mut self, r: &RunResult) {
        let s = &r.runtime;
        self.insts += r.instructions;
        self.cycles += r.cycles;
        self.misses += s.misses;
        self.hits += s.hits;
        self.evictions += s.evictions;
        self.stub_allocs += s.stub_allocs;
        self.restores += s.restores;
        self.bits_read += s.bits_read;
        self.insts_written += s.insts_written;
        self.cycles_charged += s.cycles_charged;
        self.checksum_cycles += s.checksum_cycles;
    }
}

/// Fleet-layer numbers (zero on workloads without a fleet).
#[derive(Debug, Default, Clone, Copy)]
struct FleetSums {
    requests: f64,
    burst_rate: f64,
    hits: f64,
    misses: f64,
    bypasses: f64,
    hit_rate: f64,
    bypass_rate: f64,
    shed: f64,
    overhead_share: f64,
    parallel_efficiency: f64,
}

/// Standalone probes of the load, decode and verify layers over every
/// image: each image keeps its fastest of [`PROBE_PASSES`].
#[derive(Debug, Default)]
struct Probe {
    read_ns: f64,
    write_ns: f64,
    decode_ns: f64,
    decode_insts: u64,
    verify_ns: f64,
    verify_bytes: u64,
    image_bytes: u64,
}

fn probe(built: &[Built], checks: &mut Checks) -> Probe {
    let mut p = Probe::default();
    for b in built {
        let image = b.image();
        let Ok(squashed) = image_file::read(image) else {
            checks.record(
                &format!("probe load of {}", b.src.name),
                Some("image does not load".into()),
            );
            continue;
        };
        let rt = &squashed.runtime;
        let mut best = [f64::INFINITY; 4];
        let mut insts = 0u64;
        let mut bytes = 0u64;
        for _ in 0..PROBE_PASSES {
            let t = Instant::now();
            let parsed = std::hint::black_box(image_file::read(std::hint::black_box(image)));
            best[0] = best[0].min(t.elapsed().as_nanos() as f64);
            drop(parsed);
            let t = Instant::now();
            std::hint::black_box(image_file::write(std::hint::black_box(&squashed)));
            best[1] = best[1].min(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            insts = 0;
            for &off in &rt.bit_offsets {
                match rt.model.decompress_region(&rt.blob, off) {
                    Ok((region, _)) => insts += std::hint::black_box(region).len() as u64,
                    Err(e) => {
                        checks.record(
                            &format!("probe decode of {}", b.src.name),
                            Some(e.to_string()),
                        );
                    }
                }
            }
            best[2] = best[2].min(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            bytes = 0;
            for i in 0..rt.bit_offsets.len() {
                let span = integrity::region_byte_span(&rt.bit_offsets, i, rt.blob.len());
                bytes += span.len() as u64;
                std::hint::black_box(integrity::crc32c(&rt.blob[span]));
            }
            best[3] = best[3].min(t.elapsed().as_nanos() as f64);
        }
        p.read_ns += best[0];
        p.write_ns += best[1];
        p.decode_ns += best[2];
        p.decode_insts += insts;
        p.verify_ns += best[3];
        p.verify_bytes += bytes;
        p.image_bytes += image.len() as u64;
    }
    p
}

/// Every per-layer metric, in `BENCHMARK.json` order: `runs` are the traced
/// runs' counters and `overhead` the traced round's extra time.
fn layer_metrics(
    tracer: &Tracer,
    built: &[Built],
    checks: &mut Checks,
    runs: &RunSums,
    fleet: &FleetSums,
    overhead: f64,
) -> Vec<Metric> {
    let p = probe(built, checks);
    let ms = |cat: &str| tracer.total(cat).1 as f64 / 1e6;
    let (traps, trap_ns) = tracer.total("trap");
    let run_ns = tracer.total("run").1 as f64;
    let trap_ns = trap_ns as f64;
    let decode_ns_per_inst = ratio(p.decode_ns, p.decode_insts as f64);
    let verify_ns_per_byte = ratio(p.verify_ns, p.verify_bytes as f64);
    let check_bytes = built
        .first()
        .and_then(|b| image_file::read(b.image()).ok())
        .map_or(1, |s| s.runtime.cost.per_check_byte.max(1));
    let decode_est_ms = runs.insts_written as f64 * decode_ns_per_inst / 1e6;
    let verify_est_ms = (runs.checksum_cycles / check_bytes) as f64 * verify_ns_per_byte / 1e6;
    let largest = built
        .iter()
        .filter_map(|b| Some((b.baseline_bytes, b.emitted.as_ref()?.plan_share)))
        .max_by_key(|x| x.0);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup.compile_ms", ms("compile"), "ms"),
        m("setup.squeeze_ms", ms("squeeze"), "ms"),
        m("setup.profile_ms", ms("profile"), "ms"),
        m("setup.reference_ms", ms("reference"), "ms"),
        m("emit.cold_ms", ms("cold"), "ms"),
        m("emit.plan_ms", ms("stage.plan"), "ms"),
        m("emit.layout_ms", ms("stage.layout"), "ms"),
        m("emit.train_ms", ms("stage.train"), "ms"),
        m("emit.encode_ms", ms("stage.encode"), "ms"),
        m("emit.assemble_ms", ms("stage.assemble"), "ms"),
        m(
            "emit.regions",
            built
                .iter()
                .filter_map(|b| b.emitted.as_ref())
                .map(|e| e.regions as f64)
                .sum(),
            "count",
        ),
        m("emit.plan_share_max", largest.map_or(0.0, |x| x.1), "ratio"),
        m("load.read_us", p.read_ns / 1e3, "us"),
        m("load.write_us", p.write_ns / 1e3, "us"),
        m("load.image_kb", p.image_bytes as f64 / 1024.0, "KiB"),
        m("decode.ns_per_inst", decode_ns_per_inst, "ns/inst"),
        m("decode.insts", p.decode_insts as f64, "count"),
        m("verify.ns_per_byte", verify_ns_per_byte, "ns/B"),
        m("verify.bytes", p.verify_bytes as f64, "B"),
        m("trap.count", traps as f64, "count"),
        m("trap.self_ms", trap_ns / 1e6, "ms"),
        m("trap.ns_per_trap", ratio(trap_ns, traps as f64), "ns"),
        m("trap.share", ratio(trap_ns, run_ns), "ratio"),
        m("trap.misses", runs.misses as f64, "count"),
        m("trap.hits", runs.hits as f64, "count"),
        m("trap.evictions", runs.evictions as f64, "count"),
        m("trap.stub_allocs", runs.stub_allocs as f64, "count"),
        m("trap.restores", runs.restores as f64, "count"),
        m("trap.bits_read", runs.bits_read as f64, "bit"),
        m("trap.insts_written", runs.insts_written as f64, "count"),
        m("trap.cycles_charged", runs.cycles_charged as f64, "cycles"),
        m(
            "trap.hit_rate",
            ratio(runs.hits as f64, (runs.hits + runs.misses) as f64),
            "ratio",
        ),
        m("trap.decode_est_ms", decode_est_ms, "ms"),
        m("trap.verify_est_ms", verify_est_ms, "ms"),
        m(
            "trap.rest_ms",
            trap_ns / 1e6 - decode_est_ms - verify_est_ms,
            "ms",
        ),
        m("vm.init_us", tracer.total("init").1 as f64 / 1e3, "us"),
        m("vm.self_ms", (run_ns - trap_ns) / 1e6, "ms"),
        m("vm.guest_insts", runs.insts as f64, "count"),
        m(
            "vm.ns_per_guest_inst",
            ratio(run_ns - trap_ns, runs.insts as f64),
            "ns/inst",
        ),
        m("vm.sim_cycles", runs.cycles as f64, "cycles"),
        m("fleet.requests", fleet.requests, "count"),
        m("fleet.burst_req_per_s", fleet.burst_rate, "1/s"),
        m("fleet.cache_hits", fleet.hits, "count"),
        m("fleet.cache_misses", fleet.misses, "count"),
        m("fleet.cache_bypasses", fleet.bypasses, "count"),
        m("fleet.cache_hit_rate", fleet.hit_rate, "ratio"),
        m("fleet.cache_bypass_rate", fleet.bypass_rate, "ratio"),
        m("fleet.shed", fleet.shed, "count"),
        m("fleet.overhead_share", fleet.overhead_share, "ratio"),
        m(
            "fleet.parallel_efficiency",
            fleet.parallel_efficiency,
            "ratio",
        ),
        m("trace.overhead", overhead, "ratio"),
        m("trace.spans", tracer.spans() as f64, "count"),
        m("ops.attempted", checks.attempted as f64, "count"),
        m("ops.failed", checks.failed as f64, "count"),
    ]
}

// ---- arithmetic ----

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Geometric mean of positive values (0 for none).
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The last value (the round just before a traced round, whose host
/// speed is the closest to it); 0 for none.
fn last(values: &[f64]) -> f64 {
    values.last().copied().unwrap_or(0.0)
}
