//! Profiling and run-and-compare helpers tying the whole system together.
//!
//! These are the operations the evaluation performs over and over: link and
//! run a program to collect a profile (the paper's *profiling input*), run
//! original and squashed programs on a *timing input*, and compare size and
//! cycles.

use squash_cfg::link::{self, LinkOptions};
use squash_cfg::Program;
use squash_vm::{ICacheConfig, ICacheStats, Sampler, Vm};

use crate::fleet::cache::CacheHandle;
use crate::layout::Squashed;
use crate::runtime::{RuntimeStats, SquashRuntime};
use crate::telemetry::{Observers, RunMetrics, Telemetry};
use crate::{err, BlockProfile, SquashError};

/// Outcome of one program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Exit status.
    pub status: i64,
    /// Bytes written to the output stream.
    pub output: Vec<u8>,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles consumed (instructions plus decompression charges).
    pub cycles: u64,
    /// Runtime decompressor statistics (zeroed for original runs).
    pub runtime: RuntimeStats,
    /// Instruction-cache statistics, when the model was enabled.
    pub icache: Option<ICacheStats>,
}

impl RunResult {
    /// Starts a [`Telemetry`] report from this run's metrics: fills the
    /// `run`, `runtime` and `icache` sections; the caller adds stages or
    /// attribution if it has them.
    pub fn telemetry(&self, name: &str) -> Telemetry {
        Telemetry {
            name: name.to_string(),
            run: Some(RunMetrics {
                status: self.status,
                instructions: self.instructions,
                cycles: self.cycles,
                output_bytes: self.output.len() as u64,
            }),
            runtime: (self.runtime != RuntimeStats::default()).then_some(self.runtime),
            icache: self.icache,
            ..Telemetry::default()
        }
    }
}

/// Links and runs `program` on each input, merging per-PC counts into a
/// per-block [`BlockProfile`] (§5's execution profile).
///
/// # Errors
///
/// Fails if the program cannot be linked or faults during any run.
pub fn profile(program: &Program, inputs: &[Vec<u8>]) -> Result<BlockProfile, SquashError> {
    profile_jobs(program, inputs, 1)
}

/// [`profile`] with the runs fanned out over `jobs` worker threads.
/// Per-input profiles are merged in input order, and block counts are
/// commutative sums, so the result is identical for any `jobs`.
///
/// # Errors
///
/// Fails if the program cannot be linked or faults during any run.
pub fn profile_jobs(
    program: &Program,
    inputs: &[Vec<u8>],
    jobs: usize,
) -> Result<BlockProfile, SquashError> {
    let image = link::link(program, &LinkOptions::default())
        .map_err(|e| SquashError::msg(e.message))?;
    let image = &image;
    let profiles: Vec<Result<squash_vm::Profile, SquashError>> =
        crate::par::map_indexed(jobs, inputs.len(), |i| {
            let mut vm = Vm::new(image.min_mem_size(1 << 18));
            for (base, bytes) in image.segments() {
                vm.write_bytes(base, &bytes);
            }
            vm.set_pc(image.entry);
            vm.set_input(inputs[i].clone());
            vm.enable_profile(image.text_base, image.text_words());
            vm.run().map_err(|e| SquashError::msg(format!("profiling run failed: {e}")))?;
            Ok(vm.take_profile().expect("profiling enabled"))
        });
    let mut merged: Option<squash_vm::Profile> = None;
    for p in profiles {
        let p = p?;
        match &mut merged {
            Some(m) => m.merge(&p),
            None => merged = Some(p),
        }
    }
    let Some(p) = merged else {
        return err("no profiling inputs given");
    };
    let freq = link::block_frequencies(image, program, &|pc| p.count_at(pc));
    Ok(BlockProfile {
        freq,
        total_instructions: p.total(),
    })
}

/// Links and runs the original (unsquashed) program on `input`.
///
/// # Errors
///
/// Fails on link errors or machine faults.
pub fn run_original(program: &Program, input: &[u8]) -> Result<RunResult, SquashError> {
    run_original_with(program, input, None)
}

/// [`run_original`] with an optional instruction-cache model.
///
/// # Errors
///
/// Fails on link errors or machine faults.
pub fn run_original_with(
    program: &Program,
    input: &[u8],
    icache: Option<ICacheConfig>,
) -> Result<RunResult, SquashError> {
    let image = link::link(program, &LinkOptions::default())
        .map_err(|e| SquashError::msg(e.message))?;
    let mut vm = Vm::new(image.min_mem_size(1 << 18));
    for (base, bytes) in image.segments() {
        vm.write_bytes(base, &bytes);
    }
    vm.set_pc(image.entry);
    vm.set_input(input.to_vec());
    if let Some(cfg) = icache {
        vm.enable_icache(cfg);
    }
    let out = vm.run().map_err(|e| SquashError::msg(format!("original run failed: {e}")))?;
    let icache_stats = vm.icache_stats();
    Ok(RunResult {
        status: out.status,
        output: vm.take_output(),
        instructions: out.instructions,
        cycles: out.cycles,
        runtime: RuntimeStats::default(),
        icache: icache_stats,
    })
}

/// Runs a squashed program on `input` with the decompressor service
/// attached: [`run_squashed_with`] at [`RunConfig::default`].
///
/// # Errors
///
/// Fails on machine faults or runtime-decompressor errors (corrupt blob,
/// stub exhaustion).
pub fn run_squashed(squashed: &Squashed, input: &[u8]) -> Result<RunResult, SquashError> {
    run_squashed_with(squashed, input, RunConfig::default()).map(|run| run.result)
}

/// What [`run_squashed_with`] attaches to a run. The default is the plain
/// run: every field off.
///
/// None of these change what the guest does. The instruction-cache model
/// adds its miss cycles; a deadline the run does not reach, the decode
/// cache, the observers and the sampler leave simulated cycles exactly as
/// they are (`tests/differential.rs` and `tests/fleet.rs` assert this).
#[derive(Debug, Default)]
pub struct RunConfig {
    /// Instruction-cache model; the runtime decompressor flushes it after
    /// every decompression, as in the paper.
    pub icache: Option<ICacheConfig>,
    /// Cycle budget, enforced inside the VM step loop. Running past it is a
    /// typed `deadline_exceeded` machine check (`SquashError::fault`),
    /// never a hang.
    pub deadline: Option<u64>,
    /// Fleet-shared decode cache. It shares *host* decode work between
    /// instances of one image; simulated charges and per-instance runtime
    /// stats are unchanged.
    pub decode_cache: Option<CacheHandle>,
    /// Observers fed every runtime event (traps, decompressions, cache
    /// hits, stub churn, flushes), stamped with the simulated cycle
    /// counter. Returned in [`Run::observers`].
    pub observers: Option<Observers>,
    /// Sampling period: with `Some(n)` the VM records the executing pc at
    /// every n-th simulated cycle. The sampler is returned in
    /// [`Run::sampler`]; collapse it with [`crate::monitor::collapse_samples`].
    pub sample_every: Option<u64>,
}

/// One finished squashed run: its result, and the observers and sampler
/// its [`RunConfig`] attached.
#[derive(Debug)]
pub struct Run {
    /// Status, output and counters.
    pub result: RunResult,
    /// The observers, after seeing every event of the run.
    pub observers: Option<Observers>,
    /// The filled sampler, when sampling was enabled.
    pub sampler: Option<Sampler>,
}

impl Run {
    /// The run's [`Telemetry`] document: [`RunResult::telemetry`] plus, when
    /// observers were attached, the attribution tables and the trace ring's
    /// drop count, and the sampler's drop count when sampling was on.
    pub fn telemetry(&self, name: &str) -> Telemetry {
        let mut telemetry = self.result.telemetry(name);
        if let Some(observers) = &self.observers {
            telemetry.trace_drops = observers.ring.as_ref().map_or(0, |r| r.dropped());
            telemetry.attribution = Some(observers.attribution.clone().finish(self.result.cycles));
        }
        telemetry.sampler_drops = self.sampler.as_ref().map_or(0, Sampler::dropped);
        telemetry
    }
}

/// Runs a squashed program on `input` with the decompressor service and
/// everything `config` attaches.
///
/// # Errors
///
/// Fails on machine faults (including `deadline_exceeded`) or
/// runtime-decompressor errors.
pub fn run_squashed_with(
    squashed: &Squashed,
    input: &[u8],
    config: RunConfig,
) -> Result<Run, SquashError> {
    let mut vm = Vm::new(squashed.min_mem_size(1 << 18));
    for (base, bytes) in &squashed.segments {
        vm.write_bytes(*base, bytes);
    }
    vm.set_pc(squashed.entry);
    vm.set_input(input.to_vec());
    if let Some(cfg) = config.icache {
        vm.enable_icache(cfg);
    }
    if let Some(period) = config.sample_every {
        vm.enable_sampling(period);
    }
    vm.set_deadline(config.deadline);
    let mut service = SquashRuntime::new(squashed.runtime.clone());
    service.observers = config.observers;
    service.decode_cache = config.decode_cache;
    let out = vm.run_with(&mut service).map_err(|e| {
        // Keep the structured machine check (region, site, cycle, kind)
        // alongside the human-readable message so `squashrun` can report a
        // typed fault instead of a bare string.
        let fault = e.machine_check().cloned();
        SquashError { message: format!("squashed run failed: {e}"), fault }
    })?;
    Ok(Run {
        result: RunResult {
            status: out.status,
            output: vm.take_output(),
            instructions: out.instructions,
            cycles: out.cycles,
            runtime: *service.stats(),
            icache: vm.icache_stats(),
        },
        observers: service.observers.take(),
        sampler: vm.take_samples(),
    })
}

/// Convenience: profile on `profile_inputs`, squash at the given options,
/// and verify behavioural equivalence on `check_input`, returning the
/// squashed artifact and both run results.
///
/// # Errors
///
/// Fails if any stage fails or if the squashed program's observable
/// behaviour (status + output) differs from the original's.
pub fn squash_and_check(
    program: &Program,
    profile_inputs: &[Vec<u8>],
    options: &crate::SquashOptions,
    check_input: &[u8],
) -> Result<(Squashed, RunResult, RunResult), SquashError> {
    let prof = profile(program, profile_inputs)?;
    let squashed = crate::Squasher::new(program, &prof, options)?.finish()?;
    let original = run_original(program, check_input)?;
    let compressed = run_squashed(&squashed, check_input)?;
    if original.status != compressed.status || original.output != compressed.output {
        return err(format!(
            "behaviour diverged: status {} vs {}, output {} vs {} bytes",
            original.status,
            compressed.status,
            original.output.len(),
            compressed.output.len()
        ));
    }
    Ok((squashed, original, compressed))
}
