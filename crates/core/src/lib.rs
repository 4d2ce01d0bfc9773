//! # squash — profile-guided code compression
//!
//! A from-scratch reproduction of Debray & Evans, *Profile-Guided Code
//! Compression* (PLDI 2002). Infrequently executed ("cold") regions of a
//! program are compressed with a splitting-streams + canonical-Huffman coder
//! and decompressed **on demand at runtime** into a single small buffer;
//! frequently executed code is left untouched.
//!
//! The pipeline (see the paper's sections in parentheses):
//!
//! 1. [`cold`] — identify cold basic blocks from an execution profile under
//!    a threshold θ (§5);
//! 2. [`jumptables`] — make blocks with indirect jumps compressible, either
//!    by retargeting table entries or by *unswitching* to compare chains
//!    (§6.2);
//! 3. [`regions`] — partition cold blocks into compressible regions bounded
//!    by the runtime-buffer limit K, keep only profitable ones, and pack
//!    small regions together (§4);
//! 4. [`buffer_safe`] — find functions that can never (transitively) invoke
//!    the decompressor, whose call sites need no restore machinery (§6.1);
//! 5. [`layout`] — emit the transformed image: never-compressed code, entry
//!    stubs, the function offset table, the compressed blob, the stub area
//!    and the runtime buffer (§2);
//! 6. [`runtime`] — the decompressor itself, a [`squash_vm::Service`]
//!    implementing on-demand decompression, `CreateStub`, and
//!    reference-counted restore stubs (§2.2–2.3);
//! 7. [`footprint`] — the memory-footprint accounting of §4's cost model.
//!
//! [`Squasher`] ties the steps together; [`pipeline`] adds profiling and
//! run-and-compare helpers used by the tests, examples and benchmarks.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use squash::pipeline;
//!
//! let program = minicc::build_program(&[r#"
//!     int rare(int x) { return x * 3 + 1; }
//!     int main() {
//!         int c = getb();
//!         if (c == 'Z') return rare(c);   // cold path
//!         return c > 0;
//!     }
//! "#]).map_err(|e| e.to_string())?;
//! let profile = pipeline::profile(&program, &[b"a".to_vec()])?;
//! let options = squash::SquashOptions { theta: 0.0, ..Default::default() };
//! let squashed = squash::Squasher::new(&program, &profile, &options)?.finish()?;
//! // The squashed program behaves identically on a different input.
//! let original = pipeline::run_original(&program, b"Z")?;
//! let compressed = pipeline::run_squashed(&squashed, b"Z")?;
//! assert_eq!(original.output, compressed.output);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod audit;
pub mod buffer_safe;
pub mod cold;
pub mod fleet;
pub mod footprint;
pub mod image_file;
pub mod integrity;
pub mod jumptables;
pub mod layout;
pub mod monitor;
mod par;
pub mod pipeline;
pub mod regions;
pub mod retune;
pub mod runtime;
pub mod stages;
pub mod telemetry;

use std::collections::HashSet;
use std::fmt;

use squash_cfg::Program;
pub use squash_vm::{FaultKind, MachineCheck};

/// How compressible regions are constructed from cold blocks (§4; the
/// paper's conclusion names "other algorithms for constructing compressible
/// regions" as future work — both are provided).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionStrategy {
    /// The paper's algorithm: K-bounded depth-first-search trees rooted at
    /// compressible blocks, profitability-filtered, then greedily packed.
    #[default]
    DfsTree,
    /// A simpler alternative: walk each function's compressible blocks in
    /// layout order, opening a new region whenever the current one would
    /// exceed K, with the same profitability filter and packing. Preserves
    /// fall-throughs well but ignores branch structure.
    LayoutGreedy,
}

/// How restore stubs for calls out of compressed code are provided (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestoreStubMode {
    /// The paper's choice: stubs are created at runtime by `CreateStub` and
    /// garbage-collected by usage count. Costs 2 words per call site in the
    /// buffer and a small reserved stub area.
    #[default]
    Runtime,
    /// The compile-time alternative the paper rejects for its size: every
    /// call site in compressed code gets a permanent 3-word stub in the
    /// never-compressed area (`bsr ra, g ; bsr at, DECOMP ; tag`), and the
    /// buffer call site is a single branch to it. The paper measures these
    /// stubs at 13% of never-compressed code at θ=0 and 27% at θ=0.01.
    CompileTime,
}

/// How blocks ending in an indirect jump through a known table are made
/// compressible (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JumpTableMode {
    /// Leave the indirect jump; the linker points table entries at entry
    /// stubs when their target block is compressed. (The paper's first
    /// alternative: "update the addresses in the jump table".)
    #[default]
    Retarget,
    /// Replace the indirect jump with a chain of compare-and-branch blocks
    /// (the paper's chosen alternative). The load from the table remains, so
    /// unlike the paper the table's space is not reclaimed — reclaiming
    /// would additionally require dead-code elimination of the address
    /// computation.
    Unswitch,
    /// Exclude such blocks (and the table's target blocks) from compression
    /// — the paper's fallback when a table's extent cannot be determined.
    Exclude,
}

/// The decompression cost model, in simulated cycles. This stands in for
/// the time the paper's in-image software decompressor spends; see
/// `DESIGN.md` for the substitution argument. Defaults are calibrated so
/// that decompressing one maximal (512-byte) region costs on the order of a
/// few thousand cycles, matching the relative overheads the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cycles per compressed bit read (the `DECODE` loop's per-bit work).
    pub per_bit: u64,
    /// Cycles per decompressed instruction written.
    pub per_inst: u64,
    /// Fixed cycles per decompressor invocation (register save/restore,
    /// dispatch, instruction-cache flush).
    pub per_call: u64,
    /// Cycles per `CreateStub` invocation.
    pub create_stub: u64,
    /// Cycles charged when a requested region is already resident in one of
    /// the buffer slots (a region-cache hit). Defaults to 0 so a one-slot
    /// cache reproduces the paper's single-buffer behaviour cycle for cycle;
    /// raise it to model the dispatch cost of the residency check.
    pub cache_hit: u64,
    /// Cycles per blob byte checksummed when verifying a region's
    /// compressed payload before decode (images with integrity metadata
    /// only; a table-driven software CRC costs a few cycles per byte). Runs
    /// of images without checksums charge nothing here, so an uncorrupted
    /// `SQSH0003` run differs from its `SQSH0002` twin by exactly the
    /// `checksum_cycles` the telemetry reports.
    pub per_check_byte: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            per_bit: 4,
            per_inst: 12,
            per_call: 250,
            create_stub: 30,
            cache_hit: 0,
            per_check_byte: 4,
        }
    }
}

/// Configuration for the whole squash pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SquashOptions {
    /// The cold-code threshold θ ∈ [0, 1]: cold code may account for at most
    /// this fraction of all executed instructions (§5).
    pub theta: f64,
    /// The runtime-buffer size bound K in bytes (§4; the paper settles on
    /// 512 after the Figure 3 sweep).
    pub buffer_limit: u32,
    /// Number of runtime buffer slots forming the decompressed-region cache.
    /// 1 (the default) is the paper's single buffer; larger values reserve
    /// additional K-byte slots, keep decompressed regions resident, and
    /// evict least-recently-used when all slots are full. The footprint
    /// accounting charges all the slots.
    pub cache_slots: usize,
    /// The assumed compression factor γ used by the region-profitability
    /// heuristic (§4; the measured whole-program ratio is ≈ 0.66).
    pub gamma: f64,
    /// Resident size charged for the decompressor's code, in bytes
    /// (its tables are measured exactly and added on top).
    pub decompressor_bytes: u32,
    /// Restore-stub slots reserved in the stub area (each 12 bytes: two
    /// instructions plus the usage count). The paper's maximum observed
    /// concurrency is 9, so the default of 16 gives headroom while keeping
    /// the reserved area small.
    pub stub_slots: usize,
    /// Apply the buffer-safe call optimization (§6.1).
    pub buffer_safe_opt: bool,
    /// Jump-table handling (§6.2).
    pub jump_tables: JumpTableMode,
    /// Pack small regions into larger ones (§4).
    pub pack_regions: bool,
    /// Skip decompression when the requested region is already in the
    /// buffer (off = always decompress, the paper's behaviour).
    pub skip_if_current: bool,
    /// Restore-stub scheme (§2.2).
    pub restore_stubs: RestoreStubMode,
    /// Region construction algorithm (§4 / §9 future work).
    pub region_strategy: RegionStrategy,
    /// Apply move-to-front coding to the displacement streams before
    /// Huffman coding (§3 discusses this variant and rejects it for
    /// decompressor size/speed; available for the ablation).
    pub mtf_displacements: bool,
    /// Worker threads for the parallel pipeline stages (region growth,
    /// region encoding, and profiling fan out over this many threads;
    /// packing runs serially). 1 (the default) runs everything inline on
    /// the caller's thread. The emitted image is byte-identical for every
    /// value.
    ///
    /// The value is honored literally (so tests can force real threading on
    /// any machine); front-ends translating a user's `--jobs` request should
    /// first pass it through [`effective_jobs`], which caps it at the
    /// hardware parallelism — extra workers on a saturated machine only add
    /// spawn and scheduling overhead.
    pub jobs: usize,
    /// Decompression cost model.
    pub cost: CostModel,
    /// Functions never to compress (the paper excludes functions calling
    /// `setjmp`; minicc has no setjmp, but the hook is honoured and tested).
    /// The entry function is always excluded.
    pub exclude: HashSet<String>,
}

impl Default for SquashOptions {
    fn default() -> SquashOptions {
        SquashOptions {
            theta: 0.0,
            buffer_limit: 512,
            cache_slots: 1,
            gamma: 0.66,
            decompressor_bytes: 2048,
            stub_slots: 16,
            buffer_safe_opt: true,
            jump_tables: JumpTableMode::default(),
            pack_regions: true,
            skip_if_current: false,
            restore_stubs: RestoreStubMode::default(),
            region_strategy: RegionStrategy::default(),
            mtf_displacements: false,
            jobs: 1,
            cost: CostModel::default(),
            exclude: HashSet::new(),
        }
    }
}

/// An error from the squash pipeline.
///
/// When the failure is an integrity fault (corrupt image, checksum
/// mismatch, runtime machine check), `fault` carries the structured
/// [`MachineCheck`] so front-ends can report region/site/cycle/kind and
/// choose a distinct exit code instead of parsing the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquashError {
    /// Description of the problem.
    pub message: String,
    /// The structured machine-check record, when the failure is a typed
    /// integrity fault.
    pub fault: Option<MachineCheck>,
}

impl SquashError {
    /// An error with a message and no machine-check record.
    pub fn msg(message: impl Into<String>) -> SquashError {
        SquashError {
            message: message.into(),
            fault: None,
        }
    }
}

impl From<MachineCheck> for SquashError {
    fn from(mc: MachineCheck) -> SquashError {
        SquashError {
            message: mc.to_string(),
            fault: Some(mc),
        }
    }
}

impl fmt::Display for SquashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "squash error: {}", self.message)
    }
}

impl std::error::Error for SquashError {}

/// Caps a requested worker count at the machine's available parallelism
/// (never below 1). The `jobs` knobs in this crate honor their value
/// literally — byte-identical output for any count — so front-ends use this
/// to translate a user's `--jobs N` into a count that can actually run
/// concurrently, the same way `make -j` style tools size their pools.
pub fn effective_jobs(requested: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    requested.clamp(1, hw.max(1))
}

pub(crate) fn err<T>(message: impl Into<String>) -> Result<T, SquashError> {
    Err(SquashError::msg(message))
}

/// Per-block execution frequencies of a program, plus the total executed
/// instruction count (`tot_instr_ct` in §5). Produce one with
/// [`pipeline::profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    /// `freq[f][b]` = execution count of block `b` of function `f`.
    pub freq: Vec<Vec<u64>>,
    /// Total instructions executed during profiling.
    pub total_instructions: u64,
}

impl BlockProfile {
    /// Serializes the profile to a compact byte format (so profiling runs
    /// can be separated from compression runs, as with the paper's separate
    /// profiling and squashing steps).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SQPF0001");
        out.extend_from_slice(&self.total_instructions.to_le_bytes());
        out.extend_from_slice(&(self.freq.len() as u32).to_le_bytes());
        for f in &self.freq {
            out.extend_from_slice(&(f.len() as u32).to_le_bytes());
            for &c in f {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Reads a profile written by [`BlockProfile::serialize`].
    ///
    /// # Errors
    ///
    /// Fails on bad magic or truncation. Shape compatibility with a program
    /// is checked later by [`Squasher::new`].
    pub fn deserialize(bytes: &[u8]) -> Result<BlockProfile, SquashError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], SquashError> {
            let s = bytes
                .get(*pos..pos.checked_add(n).ok_or_else(|| {
                    SquashError::msg("profile length arithmetic overflows")
                })?)
                .ok_or(SquashError::msg("truncated profile file"))?;
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 8)? != b"SQPF0001" {
            return err("not a squash profile (bad magic)");
        }
        let total_instructions =
            u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("take(8) returns 8 bytes"));
        let nfuncs = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("take(4) returns 4 bytes")) as usize;
        if nfuncs > 1 << 20 {
            return err("implausible function count in profile");
        }
        // Each function record is at least 4 bytes (its block count), so a
        // count the remaining input cannot hold is truncation — reject it
        // here rather than letting a forged header drive the allocation.
        if nfuncs > (bytes.len() - pos) / 4 {
            return err("truncated profile file");
        }
        let mut freq = Vec::with_capacity(nfuncs);
        for _ in 0..nfuncs {
            let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("take(4) returns 4 bytes")) as usize;
            if n > 1 << 24 {
                return err("implausible block count in profile");
            }
            // 8 bytes per count: cap the allocation by what's actually left.
            if n > (bytes.len() - pos) / 8 {
                return err("truncated profile file");
            }
            let mut f = Vec::with_capacity(n);
            for _ in 0..n {
                f.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("take(8) returns 8 bytes")));
            }
            freq.push(f);
        }
        Ok(BlockProfile {
            freq,
            total_instructions,
        })
    }
}

/// The driver: runs the pipeline stages in order over one program.
#[derive(Debug)]
pub struct Squasher {
    program: Program,
    options: SquashOptions,
    cold: cold::ColdSet,
    table_stats: jumptables::JumpTableStats,
}

impl Squasher {
    /// Prepares a squash run: applies the jump-table transformation and
    /// identifies cold code.
    ///
    /// # Errors
    ///
    /// Fails if the profile does not match the program's shape or the cold
    /// threshold is non-finite.
    pub fn new(
        program: &Program,
        profile: &BlockProfile,
        options: &SquashOptions,
    ) -> Result<Squasher, SquashError> {
        if profile.freq.len() != program.funcs.len()
            || profile
                .freq
                .iter()
                .zip(&program.funcs)
                .any(|(f, pf)| f.len() != pf.blocks.len())
        {
            return err("profile shape does not match program");
        }
        let (program, profile, table_stats) =
            jumptables::apply(program, profile, options.jump_tables);
        let cold = cold::identify(&program, &profile, options.theta)?;
        Ok(Squasher {
            program,
            options: options.clone(),
            cold,
            table_stats,
        })
    }

    /// Builds a squasher from already-prepared parts: a jump-table-
    /// transformed program and a (possibly feedback-adjusted) cold set.
    /// Used by [`retune`] to emit candidate images from cold sets it has
    /// demoted blocks out of, without re-running the jump-table transform
    /// per candidate.
    pub(crate) fn from_parts(
        program: Program,
        options: SquashOptions,
        cold: cold::ColdSet,
        table_stats: jumptables::JumpTableStats,
    ) -> Squasher {
        Squasher {
            program,
            options,
            cold,
            table_stats,
        }
    }

    /// The (possibly jump-table-transformed) program being squashed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The cold-code analysis result.
    pub fn cold(&self) -> &cold::ColdSet {
        &self.cold
    }

    /// Runs the staged pipeline — plan, layout, train, encode, assemble —
    /// and returns the finished artifact. See [`stages`] for the stage
    /// decomposition; [`Squasher::finish_observed`] additionally reports
    /// per-stage timing and sizes.
    ///
    /// # Errors
    ///
    /// Propagates layout/compression failures (e.g. displacement overflow).
    pub fn finish(self) -> Result<layout::Squashed, SquashError> {
        self.finish_observed(&mut stages::NullObserver)
    }

    /// [`Squasher::finish`], reporting each stage's wall-clock time and
    /// artifact size to `observer` as it completes.
    ///
    /// # Errors
    ///
    /// Propagates layout/compression failures (e.g. displacement overflow).
    pub fn finish_observed(
        self,
        observer: &mut dyn stages::StageObserver,
    ) -> Result<layout::Squashed, SquashError> {
        let jobs = self.options.jobs;
        let plan = stages::timed(
            observer,
            "plan",
            || stages::plan::build(&self.program, &self.cold, &self.options),
            |p| (p.regions.len(), p.compressed_blocks() as u64 * 4, "regions / block bytes"),
        );
        let (geo, text, images) = stages::timed(
            observer,
            "layout",
            || -> Result<_, SquashError> {
                let geo = layout::geometry(&self.program, &plan, &self.options)?;
                let text = layout::emit_nc_text(&self.program, &geo)?;
                let images = layout::build_images(&self.program, &plan, &geo, &self.options)?;
                Ok((geo, text, images))
            },
            |r| match r {
                Ok((_, text, images)) => (
                    images.images.len(),
                    text.len() as u64 * 4 + images.total_bytes(),
                    "images / text+image bytes",
                ),
                Err(_) => (0, 0, "failed"),
            },
        )?;
        let trained = stages::timed(
            observer,
            "train",
            || stages::train::train(&images.images, &self.options),
            |t| (1, t.table_bytes(), "model / table bytes"),
        );
        let encoded = stages::timed(
            observer,
            "encode",
            || stages::encode::encode(&trained.model, &images.images, jobs),
            |r| match r {
                Ok(e) => (e.bit_offsets.len(), e.blob.len() as u64, "regions / blob bytes"),
                Err(_) => (0, 0, "failed"),
            },
        )?;
        let mut squashed = stages::timed(
            observer,
            "assemble",
            || {
                layout::assemble(
                    &self.program,
                    &plan,
                    &geo,
                    &text,
                    &images,
                    trained,
                    encoded,
                    &self.options,
                )
            },
            |r| match r {
                Ok(s) => (
                    s.segments.len(),
                    s.segments.iter().map(|(_, v)| v.len() as u64).sum(),
                    "segments / bytes",
                ),
                Err(_) => (0, 0, "failed"),
            },
        )?;
        squashed.stats.cold_words = self.cold.cold_words;
        squashed.stats.total_words = self.cold.total_words;
        squashed.stats.jump_tables = self.table_stats;
        Ok(squashed)
    }
}

#[cfg(test)]
mod serde_tests {
    use super::BlockProfile;
    use squash_testkit::{cases, Rng};

    fn random_profile(rng: &mut Rng) -> BlockProfile {
        let nfuncs = rng.below(8) as usize;
        let freq = (0..nfuncs)
            .map(|_| {
                let n = rng.below(12) as usize;
                (0..n).map(|_| rng.u64() >> rng.below(64)).collect()
            })
            .collect();
        BlockProfile {
            freq,
            total_instructions: rng.u64(),
        }
    }

    #[test]
    fn profile_round_trips_through_bytes() {
        cases(0x5e12de, 200, |rng| {
            let profile = random_profile(rng);
            let restored = BlockProfile::deserialize(&profile.serialize())
                .expect("round trip");
            assert_eq!(restored, profile);
        });
    }

    #[test]
    fn truncated_profile_is_a_typed_error() {
        let profile = BlockProfile {
            freq: vec![vec![3, 0, 17], vec![], vec![9]],
            total_instructions: 20,
        };
        let bytes = profile.serialize();
        for cut in 0..bytes.len() {
            assert!(
                BlockProfile::deserialize(&bytes[..cut]).is_err(),
                "cut at {cut} of {} should fail, not panic",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupted_profile_never_panics() {
        // Flip bytes anywhere (including the magic and the length headers):
        // the decoder must either produce *some* profile or return a typed
        // error — never panic and never over-allocate from a forged count.
        cases(0xc0de, 300, |rng| {
            let profile = random_profile(rng);
            let mut bytes = profile.serialize();
            for _ in 0..=rng.below(4) {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= rng.u8().max(1);
            }
            let _ = BlockProfile::deserialize(&bytes);
        });
    }

    #[test]
    fn forged_counts_are_rejected_without_allocation() {
        // A header claiming 2^20 functions / huge block counts against a
        // tiny payload must fail fast on the remaining-bytes cap.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SQPF0001");
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(BlockProfile::deserialize(&bytes).is_err());

        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SQPF0001");
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 24).to_le_bytes());
        assert!(BlockProfile::deserialize(&bytes).is_err());
    }
}
