//! Feedback-directed recompression (`squashc --retune`).
//!
//! The static pipeline picks the cold set from a training profile; this
//! module closes the loop with evidence from actual runs. Given one or more
//! telemetry documents from `squashrun --metrics` (merged by
//! [`crate::telemetry::Telemetry::merge`]), it re-partitions regions that
//! turned out hot in practice out of the compressed set, re-tunes θ and the
//! buffer bound K per program, and emits the image predicted cheapest on
//! the measured workload. The winning image carries a
//! [`crate::image_file::Provenance`] section recording which profile
//! produced it (shown by `squashrun --report`).
//!
//! # The candidate ladder
//!
//! Candidate 0 is the *static identity*: the original (θ, K), no demotion —
//! the retuner can never do worse than not retuning. The rest of the ladder
//! crosses {θ/2, θ, 2θ} with {K/2, K, 2K} (clamped, deduplicated), each
//! with every region the telemetry saw entered demoted to hot. Every
//! candidate is fully emitted (plan → layout → train → encode → assemble)
//! and scored by a deterministic cycle estimator; the winner is the
//! candidate with the lowest predicted cycle count, ties broken by smaller
//! footprint, then lower ladder index.
//!
//! # The estimator
//!
//! Measured cycles split into `base = run.cycles − runtime.cycles_charged`
//! (the program's own work, invariant under re-tuning up to restore-stub
//! overhead) and decompressor charges, which the estimator re-predicts per
//! candidate. Each baseline region's measured traffic `T(r) =
//! decompressions + hits` is spread evenly over its member blocks; a
//! candidate region's predicted trap count is the sum of its members' heat.
//! Blocks the baseline never compressed (admitted by a larger θ′) get their
//! full profile frequency as heat — deliberately pessimistic, so a larger
//! θ′ must pay for every execution of newly admitted code and can never win
//! on wishful thinking. Per-trap cost follows the [`crate::CostModel`]:
//! `per_call + per_bit·bits(r′) + per_inst·insts(r′)` plus
//! `per_check_byte` over the region's blob span when the image carries
//! integrity metadata. Measured `CreateStub` cycles ride along with the
//! blocks that incurred them.
//!
//! The demote-everything candidate at the original (θ, K) always has a
//! predicted cost of exactly `base` — all entered regions are gone, the
//! remaining ones have zero measured heat — so whenever the measured input
//! entered any region, some demoting candidate strictly beats the static
//! identity and the retuned image re-runs at least as fast on that input.
//!
//! All estimator state lives in `BTreeMap`s keyed by `(func, block)` and
//! candidates are emitted in ladder order: the same telemetry in produces
//! byte-identical images out.

use std::collections::BTreeMap;

use squash_cfg::link::block_emitted_words;
use squash_cfg::Program;

use crate::image_file::{Provenance, ProvenanceKind};
use crate::telemetry::Telemetry;
use crate::{
    cold, integrity, jumptables, layout, regions, stages, BlockProfile, SquashError,
    SquashOptions, Squasher,
};

/// One rung of the candidate ladder, with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The cold threshold this candidate was planned at.
    pub theta: f64,
    /// The buffer bound K this candidate was planned at.
    pub buffer_limit: u32,
    /// Whether regions the telemetry saw entered were demoted to hot.
    pub demoted: bool,
    /// The estimator's predicted cycle count on the measured workload.
    pub predicted_cycles: u64,
    /// Total image footprint in bytes.
    pub footprint: u32,
    /// Compressed regions in the candidate image.
    pub regions: usize,
}

/// What the retuner decided and why — enough for a CLI report.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneReport {
    /// Every ladder rung, in construction order (index 0 = static identity).
    pub candidates: Vec<Candidate>,
    /// Index of the winning candidate.
    pub winner: usize,
    /// Total measured cycles in the telemetry's run section.
    pub measured_cycles: u64,
    /// Measured cycles not charged to the decompressor (the floor every
    /// candidate's prediction sits on).
    pub base_cycles: u64,
    /// Baseline regions the telemetry saw entered (demotion candidates drop
    /// all of them).
    pub hot_regions: usize,
}

/// A retuned image plus the decision report.
#[derive(Debug, Clone)]
pub struct Retuned {
    /// The winning image, provenance section attached.
    pub squashed: layout::Squashed,
    /// The ladder and scores behind the choice.
    pub report: RetuneReport,
}

/// Per-block measured heat, spread from per-region telemetry rows.
struct Heat {
    /// Estimated traps per run attributable to the block.
    traps: BTreeMap<(usize, usize), f64>,
    /// Measured `CreateStub` cycles attributable to the block.
    stub_cycles: BTreeMap<(usize, usize), f64>,
}

/// Re-tunes a program against measured telemetry and returns the winning
/// image (provenance attached) plus the decision report.
///
/// `program`, `profile`, and `options` must be exactly what the static
/// image was squashed from — the baseline plan is re-derived from them and
/// the telemetry's region indices are validated against it.
///
/// # Errors
///
/// Rejects a non-finite θ, a profile whose shape does not match the
/// program, telemetry without `run`/`attribution` sections (run
/// `squashrun --metrics-json` to produce them; a missing `runtime` section
/// just means zero decompressor activity and is fine), telemetry
/// attributing a region the baseline plan does not have (stale or
/// mismatched profile), and any layout/compression failure while emitting
/// a candidate.
pub fn retune(
    program: &Program,
    profile: &BlockProfile,
    options: &SquashOptions,
    telemetry: &Telemetry,
) -> Result<Retuned, SquashError> {
    if !options.theta.is_finite() {
        return Err(SquashError::msg(format!(
            "cold threshold θ must be finite, got {}",
            options.theta
        )));
    }
    if profile.freq.len() != program.funcs.len()
        || profile
            .freq
            .iter()
            .zip(&program.funcs)
            .any(|(f, pf)| f.len() != pf.blocks.len())
    {
        return Err(SquashError::msg("profile shape does not match program"));
    }
    let run = telemetry.run.as_ref().ok_or_else(|| {
        SquashError::msg("telemetry has no run section — nothing was measured")
    })?;
    let attribution = telemetry.attribution.as_ref().ok_or_else(|| {
        SquashError::msg(
            "telemetry has no attribution section — re-run `squashrun --metrics` \
             to collect per-region rows",
        )
    })?;

    // The provenance records the CRC of the profile as the user supplied it,
    // before the jump-table transform reshapes it.
    let profile_crc = integrity::crc32c(&profile.serialize());

    // One jump-table transform, shared by the baseline and every candidate.
    let (tprogram, tprofile, table_stats) =
        jumptables::apply(program, profile, options.jump_tables);
    let baseline_cold = cold::identify(&tprogram, &tprofile, options.theta)?;
    let baseline_plan = stages::plan::build(&tprogram, &baseline_cold, options);

    // Validate telemetry region indices against the baseline plan before
    // trusting any row.
    for row in &attribution.regions {
        if row.region as usize >= baseline_plan.regions.len() {
            return Err(SquashError::msg(format!(
                "telemetry attributes region {} but the baseline plan has {} \
                 regions — telemetry from a different program or options?",
                row.region,
                baseline_plan.regions.len()
            )));
        }
    }

    let heat = spread_heat(&baseline_plan, &tprofile, attribution);
    let hot: Vec<usize> = attribution
        .regions
        .iter()
        .filter(|r| r.decompressions + r.hits > 0 || r.total_cycles() > 0)
        .map(|r| r.region as usize)
        .collect();

    // A run that never entered a region legitimately omits the runtime
    // section (all counters zero); treat it as zero decompressor charge.
    let base_cycles =
        run.cycles.saturating_sub(telemetry.runtime.map_or(0, |r| r.cycles_charged));

    // Build the ladder: the static identity first, then every distinct
    // (θ′, K′) with hot regions demoted.
    let mut rungs: Vec<(f64, u32, bool)> = vec![(options.theta, options.buffer_limit, false)];
    for theta in [options.theta / 2.0, options.theta, (options.theta * 2.0).min(1.0)] {
        for k in [
            (options.buffer_limit / 2).max(64),
            options.buffer_limit,
            options.buffer_limit.saturating_mul(2),
        ] {
            let rung = (theta, k, true);
            if !rungs
                .iter()
                .any(|r| r.0.to_bits() == rung.0.to_bits() && r.1 == rung.1 && r.2 == rung.2)
            {
                rungs.push(rung);
            }
        }
    }

    let mut candidates = Vec::with_capacity(rungs.len());
    let mut images = Vec::with_capacity(rungs.len());
    for &(theta, buffer_limit, demote) in &rungs {
        let mut copts = options.clone();
        copts.theta = theta;
        copts.buffer_limit = buffer_limit;
        let mut ccold = cold::identify(&tprogram, &tprofile, theta)?;
        if demote {
            for &ri in &hot {
                for &(f, b) in &baseline_plan.regions[ri].blocks {
                    let words = block_emitted_words(&tprogram.funcs[f.0].blocks[b], b);
                    ccold.demote(f.0, b, words);
                }
            }
        }
        let cplan = stages::plan::build(&tprogram, &ccold, &copts);
        let squashed = Squasher::from_parts(
            tprogram.clone(),
            copts.clone(),
            ccold,
            table_stats,
        )
        .finish()?;
        let predicted = estimate(base_cycles, &heat, &cplan, &squashed, &tprogram, &copts);
        candidates.push(Candidate {
            theta,
            buffer_limit,
            demoted: demote,
            predicted_cycles: predicted,
            footprint: squashed.stats.footprint.total(),
            regions: cplan.regions.len(),
        });
        images.push(squashed);
    }

    // Lowest prediction wins; ties break toward the smaller image, then the
    // earlier rung (so the static identity wins when nothing was measured).
    let mut winner = 0usize;
    for (i, c) in candidates.iter().enumerate().skip(1) {
        let best = &candidates[winner];
        if (c.predicted_cycles, c.footprint) < (best.predicted_cycles, best.footprint) {
            winner = i;
        }
    }

    let mut squashed = images.swap_remove(winner);
    let win = &candidates[winner];
    squashed.provenance = Some(Provenance {
        kind: ProvenanceKind::Retuned,
        profile_crc,
        telemetry_docs: u32::try_from(telemetry.docs.max(1)).unwrap_or(u32::MAX),
        source: telemetry.name.clone(),
        measured_cycles: run.cycles,
        predicted_cycles: win.predicted_cycles,
        theta: win.theta,
        buffer_limit: win.buffer_limit,
        demoted_regions: if win.demoted {
            u32::try_from(hot.len()).unwrap_or(u32::MAX)
        } else {
            0
        },
        candidates: u32::try_from(candidates.len()).unwrap_or(u32::MAX),
        winner: u32::try_from(winner).unwrap_or(u32::MAX),
    });

    Ok(Retuned {
        squashed,
        report: RetuneReport {
            candidates,
            winner,
            measured_cycles: run.cycles,
            base_cycles,
            hot_regions: hot.len(),
        },
    })
}

/// Spreads each baseline region's measured traffic and stub cycles evenly
/// over its member blocks; blocks the baseline never compressed get their
/// full profile frequency as pessimistic heat.
fn spread_heat(
    baseline_plan: &stages::plan::RegionPlan,
    tprofile: &BlockProfile,
    attribution: &crate::telemetry::AttributionReport,
) -> Heat {
    let mut traps: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut stub_cycles: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    // Mark every baseline-compressed block cold-heat first (0.0 unless its
    // region saw traffic) so membership doubles as the compressed set.
    for region in &baseline_plan.regions {
        for &(f, b) in &region.blocks {
            traps.insert((f.0, b), 0.0);
        }
    }
    for row in &attribution.regions {
        let region = &baseline_plan.regions[row.region as usize];
        let n = region.blocks.len().max(1) as f64;
        let t = (row.decompressions + row.hits) as f64 / n;
        let s = row.stub_cycles as f64 / n;
        for &(f, b) in &region.blocks {
            *traps.entry((f.0, b)).or_insert(0.0) += t;
            *stub_cycles.entry((f.0, b)).or_insert(0.0) += s;
        }
    }
    // Pessimistic heat for everything else: if a candidate compresses a
    // block the baseline kept hot, charge every profiled execution as a
    // potential trap.
    for (fi, f) in tprofile.freq.iter().enumerate() {
        for (bi, &freq) in f.iter().enumerate() {
            traps.entry((fi, bi)).or_insert(freq as f64);
        }
    }
    Heat { traps, stub_cycles }
}

/// Predicts the measured workload's cycle count on a candidate image.
fn estimate(
    base_cycles: u64,
    heat: &Heat,
    plan: &stages::plan::RegionPlan,
    squashed: &layout::Squashed,
    tprogram: &Program,
    options: &SquashOptions,
) -> u64 {
    let cost = &options.cost;
    let offsets = &squashed.runtime.bit_offsets;
    let blob_bits = squashed.runtime.blob.len() as u64 * 8;
    let checked = !squashed.runtime.region_crcs.is_empty();
    let mut est = 0.0f64;
    for (ri, region) in plan.regions.iter().enumerate() {
        let mut region_traps = 0.0f64;
        for &(f, b) in &region.blocks {
            region_traps += heat.traps.get(&(f.0, b)).copied().unwrap_or(0.0);
            est += heat.stub_cycles.get(&(f.0, b)).copied().unwrap_or(0.0);
        }
        if region_traps == 0.0 {
            continue;
        }
        let start = offsets.get(ri).copied().unwrap_or(blob_bits);
        let end = offsets.get(ri + 1).copied().unwrap_or(blob_bits);
        let bits = end.saturating_sub(start);
        let insts = regions::estimate_image_words(tprogram, &region.blocks) as u64;
        let bytes = if checked {
            (end.div_ceil(8)).saturating_sub(start / 8)
        } else {
            0
        };
        let per_trap = cost.per_call
            + cost.per_bit * bits
            + cost.per_inst * insts
            + cost.per_check_byte * bytes;
        est += region_traps * per_trap as f64;
    }
    base_cycles.saturating_add(est.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;

    fn fixture() -> (Program, BlockProfile, SquashOptions) {
        // `once` runs exactly once, `never` not at all: at θ = 0.5 the
        // freq-1 blocks are cold, so the measured run actually enters a
        // region and the retuner has real traffic to react to.
        let program = minicc::build_program(&[r#"
            int work(int x) {
                int i;
                int s = 0;
                for (i = 0; i < x; i = i + 1) s = s + i * 3 + (s % 7);
                return s;
            }
            int once(int x) { return x * x + 41; }
            int never(int x) { return x / 3 - 2; }
            int main() {
                int r = work(40);
                if (r > 0) r = r + once(r) % 17;
                if (r < 0) r = never(r);
                return r % 256;
            }
        "#])
        .unwrap();
        let profile = pipeline::profile(&program, &[vec![]]).unwrap();
        let options = SquashOptions {
            theta: 0.5,
            ..Default::default()
        };
        (program, profile, options)
    }

    fn measured(
        program: &Program,
        profile: &BlockProfile,
        options: &SquashOptions,
    ) -> Telemetry {
        let squashed = Squasher::new(program, profile, options)
            .unwrap()
            .finish()
            .unwrap();
        let config = pipeline::RunConfig {
            observers: Some(Default::default()),
            ..Default::default()
        };
        pipeline::run_squashed_with(&squashed, &[], config).unwrap().telemetry("fixture")
    }

    #[test]
    fn retuned_never_predicts_worse_than_static_and_attaches_provenance() {
        let (program, profile, options) = fixture();
        let telemetry = measured(&program, &profile, &options);
        let retuned = retune(&program, &profile, &options, &telemetry).unwrap();
        let report = &retuned.report;
        let static_pred = report.candidates[0].predicted_cycles;
        let win_pred = report.candidates[report.winner].predicted_cycles;
        assert!(
            win_pred <= static_pred,
            "winner predicts {win_pred} > static {static_pred}"
        );
        let prov = retuned.squashed.provenance.as_ref().unwrap();
        assert_eq!(prov.kind, ProvenanceKind::Retuned);
        assert_eq!(prov.source, "fixture");
        assert_eq!(prov.measured_cycles, report.measured_cycles);
        assert_eq!(prov.winner as usize, report.winner);
        assert_eq!(prov.candidates as usize, report.candidates.len());
    }

    #[test]
    fn retuned_image_runs_no_slower_on_the_measured_input() {
        let (program, profile, options) = fixture();
        let telemetry = measured(&program, &profile, &options);
        let static_run = {
            let squashed = Squasher::new(&program, &profile, &options)
                .unwrap()
                .finish()
                .unwrap();
            pipeline::run_squashed(&squashed, &[]).unwrap()
        };
        let retuned = retune(&program, &profile, &options, &telemetry).unwrap();
        let retuned_run = pipeline::run_squashed(&retuned.squashed, &[]).unwrap();
        assert!(
            static_run.runtime.decompressions > 0,
            "fixture never entered a region — the test is vacuous"
        );
        assert_eq!(retuned_run.output, static_run.output, "semantics changed");
        assert_eq!(retuned_run.status, static_run.status);
        assert!(
            retuned_run.cycles < static_run.cycles,
            "retuned {} not faster than static {} despite measured traffic",
            retuned_run.cycles,
            static_run.cycles
        );
    }

    #[test]
    fn retune_is_deterministic() {
        let (program, profile, options) = fixture();
        let telemetry = measured(&program, &profile, &options);
        let a = retune(&program, &profile, &options, &telemetry).unwrap();
        let b = retune(&program, &profile, &options, &telemetry).unwrap();
        assert_eq!(a.report, b.report);
        let ia = crate::image_file::write(&a.squashed);
        let ib = crate::image_file::write(&b.squashed);
        assert_eq!(ia, ib, "retuned image bytes differ between identical runs");
    }

    #[test]
    fn missing_sections_are_typed_errors() {
        let (program, profile, options) = fixture();
        let mut telemetry = measured(&program, &profile, &options);
        telemetry.attribution = None;
        let err = retune(&program, &profile, &options, &telemetry).unwrap_err();
        assert!(err.to_string().contains("attribution"), "{err}");
        telemetry.run = None;
        let err = retune(&program, &profile, &options, &telemetry).unwrap_err();
        assert!(err.to_string().contains("run section"), "{err}");
    }

    #[test]
    fn out_of_range_region_rows_are_rejected() {
        let (program, profile, options) = fixture();
        let mut telemetry = measured(&program, &profile, &options);
        if let Some(a) = telemetry.attribution.as_mut() {
            a.regions.push(crate::telemetry::RegionRow {
                region: u16::MAX,
                decompressions: 1,
                ..Default::default()
            });
        }
        let err = retune(&program, &profile, &options, &telemetry).unwrap_err();
        assert!(err.to_string().contains("region"), "{err}");
        assert!(err.to_string().contains("65535"), "{err}");
    }

    #[test]
    fn non_finite_theta_is_rejected_before_any_work() {
        let (program, profile, options) = fixture();
        let telemetry = measured(&program, &profile, &options);
        let mut bad = options.clone();
        bad.theta = f64::NAN;
        let err = retune(&program, &profile, &bad, &telemetry).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }
}
