//! # squash-bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation (see
//! `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for paper-vs-measured
//! numbers):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_code_size`    | Table 1 (instructions before/after squeeze) |
//! | `fig3_buffer_size`    | Figure 3 (code size vs. buffer bound K) |
//! | `fig4_cold_code`      | Figure 4 (cold & compressible code vs. θ) |
//! | `fig5_inputs`         | Figure 5 (profiling/timing input table) |
//! | `fig6_size_reduction` | Figure 6 (size reduction vs. θ, per program) |
//! | `fig7_size_time`      | Figure 7 (size and execution time, low θ) |
//! | `stub_stats`          | §2.2 restore-stub statistics |
//! | `compression_ratio`   | §3 splitting-streams ratio (≈66%) |
//! | `buffer_safe_stats`   | §6.1 buffer-safety statistics |
//! | `pathological`        | §7 profile-mismatch slowdown anecdote |
//! | `cache_sweep`         | cycles vs. region-cache slots N (extension) |
//!
//! Run all of them with `cargo run --release -p squash-bench --bin <name>`.
//! This library holds the shared loading/measuring code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

use squash::layout::Squashed;
use squash::pipeline::{self, RunResult};
use squash::{BlockProfile, SquashOptions, Squasher};
use squash_cfg::Program;

/// A workload prepared for experiments: compiled, squeezed and profiled.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Benchmark name (Table 1 row).
    pub name: String,
    /// Instruction words before squeeze (Table 1 "Input").
    pub input_words: u32,
    /// Instruction words after squeeze (Table 1 "Squeeze").
    pub squeezed_words: u32,
    /// The squeezed program all measurements run on.
    pub program: Program,
    /// Block profile from the profiling input.
    pub profile: BlockProfile,
    /// The profiling input bytes.
    pub profiling_input: Vec<u8>,
    /// The timing input bytes.
    pub timing_input: Vec<u8>,
}

impl Bench {
    /// Squashes this benchmark with the given options.
    ///
    /// # Panics
    ///
    /// Panics on pipeline errors (these indicate bugs, not data problems).
    pub fn squash(&self, options: &SquashOptions) -> Squashed {
        Squasher::new(&self.program, &self.profile, options)
            .expect("squasher setup")
            .finish()
            .expect("squash failed")
    }

    /// Runs the squeezed (baseline) program on the timing input.
    ///
    /// # Panics
    ///
    /// Panics if the run faults.
    pub fn run_baseline(&self) -> RunResult {
        pipeline::run_original(&self.program, &self.timing_input).expect("baseline run")
    }

    /// Runs a squashed image on the timing input.
    ///
    /// # Panics
    ///
    /// Panics if the run faults.
    pub fn run_squashed(&self, squashed: &Squashed) -> RunResult {
        pipeline::run_squashed(squashed, &self.timing_input).expect("squashed run")
    }

    /// Baseline code size in bytes (squeezed words × 4).
    pub fn baseline_bytes(&self) -> u32 {
        self.squeezed_words * 4
    }
}

/// Loads and prepares every workload (or a named subset).
///
/// # Panics
///
/// Panics if a workload fails to compile or profile — build-time bugs.
pub fn load_benches(names: Option<&[&str]>) -> Vec<Bench> {
    prepare_benches(
        squash_workloads::all()
            .into_iter()
            .filter(|w| names.is_none_or(|ns| ns.contains(&w.name.as_str()))),
    )
}

/// Prepares arbitrary workloads (e.g. the generated corpus) the same way
/// [`load_benches`] prepares the paper's eleven.
///
/// # Panics
///
/// Panics if a workload fails to compile or profile — build-time bugs.
pub fn prepare_benches(
    workloads: impl IntoIterator<Item = squash_workloads::Workload>,
) -> Vec<Bench> {
    workloads
        .into_iter()
        .map(|w| {
            let raw = w.program();
            let input_words = raw.text_words();
            let (program, _) = w.squeezed();
            let squeezed_words = program.text_words();
            let profiling_input = w.profiling_input();
            let profile = pipeline::profile(&program, std::slice::from_ref(&profiling_input))
                .expect("profiling failed");
            let timing_input = w.timing_input();
            Bench {
                name: w.name,
                input_words,
                squeezed_words,
                program,
                profile,
                profiling_input,
                timing_input,
            }
        })
        .collect()
}

/// Squash options at threshold θ with everything else at paper defaults.
pub fn opts(theta: f64) -> SquashOptions {
    SquashOptions {
        theta,
        ..SquashOptions::default()
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The θ sweep used for Figure 6 (size reduction growth).
///
/// θ is a fraction of the total *profiled* instruction count, and our
/// profiling runs execute ~10⁷ instructions where the paper's executed
/// ~10⁹, so a θ here corresponds to a paper θ roughly 40× smaller (the
/// same absolute cold-weight budget). The sweep spans the same regimes:
/// never-executed only → once-executed admitted → everything.
pub const THETAS_WIDE: [f64; 6] = [0.0, 1e-4, 3e-4, 1e-3, 1e-2, 1.0];

/// The low-θ set used for Figure 7 (size + time): our equivalents of the
/// paper's {0, 1e-5, 5e-5} operating points (see [`THETAS_WIDE`] on the
/// ~40× θ-scale mapping) — chosen, as in the paper, so the middle point
/// costs a few percent and the upper point ~25%.
pub const THETAS_LOW: [f64; 3] = [0.0, 3e-4, 3e-3];

/// Formats a θ like the paper's axis labels.
pub fn theta_label(theta: f64) -> String {
    if theta == 0.0 {
        "0".to_string()
    } else if theta >= 1.0 {
        "1.0".to_string()
    } else {
        format!("{theta:.0e}")
    }
}

/// Machine-readable bench output: the `BENCH_PR*.json` reports at the
/// repository root, each a two-level map `{section: {metric: number}}`
/// seeding the perf trajectory. Each bench binary merges its own section
/// into its report, so running `stream_codec` and `decompressor` in either
/// order produces one combined `BENCH_PR2.json`. Reports are read and
/// written with the workspace's JSON codec ([`squash_obs::json`]), one line
/// per file, and every finite value reads back exactly as it was written.
pub mod report {
    use std::collections::BTreeMap;
    use std::fs;
    use std::io::ErrorKind;
    use std::path::{Path, PathBuf};

    use squash_obs::json::{self, Json};

    /// Where report `name` lives unless `BENCH_JSON` overrides it: the
    /// workspace root, independent of the bench binary's working directory.
    pub fn path_named(name: &str) -> PathBuf {
        match std::env::var_os("BENCH_JSON") {
            Some(p) => PathBuf::from(p),
            None => {
                PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name)
            }
        }
    }

    /// Whether the bench should run in CI smoke/check mode (`BENCH_SMOKE`
    /// set to anything but `0`): fewest measurement runs, reduced workload
    /// set, same code paths.
    pub fn smoke() -> bool {
        std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0")
    }

    /// Merges `entries` under `section` into the report file located by
    /// [`path_named`], preserving every other section, and writes it back.
    ///
    /// # Panics
    ///
    /// Panics if an existing report cannot be read or does not parse (the
    /// file is then left untouched), or if the report cannot be written.
    pub fn write_named(file: &str, section: &str, entries: &[(String, f64)]) {
        let p = path_named(file);
        write_at(&p, section, entries)
            .unwrap_or_else(|e| panic!("bench report {}: {e}", p.display()));
        println!("wrote {}", p.display());
    }

    fn write_at(p: &Path, section: &str, entries: &[(String, f64)]) -> Result<(), String> {
        let mut sections = read_at(p)?;
        let s = sections.entry(section.to_string()).or_default();
        for (k, v) in entries {
            s.insert(k.clone(), *v);
        }
        fs::write(p, emit(&sections)).map_err(|e| e.to_string())
    }

    /// Reads one section back from the report located by [`path_named`];
    /// empty when the file is missing or lacks the section.
    ///
    /// # Panics
    ///
    /// Panics if the report exists but cannot be read or does not parse.
    pub fn read_named(file: &str, section: &str) -> BTreeMap<String, f64> {
        let p = path_named(file);
        let mut sections =
            read_at(&p).unwrap_or_else(|e| panic!("bench report {}: {e}", p.display()));
        sections.remove(section).unwrap_or_default()
    }

    type Sections = BTreeMap<String, BTreeMap<String, f64>>;

    /// The report at `p`; empty when no file exists there.
    fn read_at(p: &Path) -> Result<Sections, String> {
        match fs::read_to_string(p) {
            Ok(text) => parse(&text),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(Sections::new()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn emit(sections: &Sections) -> String {
        let doc = Json::Obj(
            sections
                .iter()
                .map(|(name, rows)| {
                    let rows = rows.iter().map(|(k, &v)| (k.clone(), Json::Num(v))).collect();
                    (name.clone(), Json::Obj(rows))
                })
                .collect(),
        );
        format!("{doc}\n")
    }

    /// Parses a report: an object of sections, each an object of numbers.
    fn parse(text: &str) -> Result<Sections, String> {
        let Json::Obj(sections) = json::parse(text)? else {
            return Err("not an object of sections".to_string());
        };
        sections
            .into_iter()
            .map(|(name, rows)| {
                let Json::Obj(rows) = rows else {
                    return Err(format!("section {name:?} is not an object"));
                };
                let rows = rows
                    .into_iter()
                    .map(|(k, v)| match v.as_f64() {
                        Some(n) => Ok((k, n)),
                        None => Err(format!("{name}.{k} is not a number")),
                    })
                    .collect::<Result<_, String>>()?;
                Ok((name, rows))
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn emit_parse_round_trip() {
            let mut sections = Sections::new();
            sections.insert(
                "stream_codec".into(),
                [("fast_ns".to_string(), 12.5), ("speedup".to_string(), 3.0)]
                    .into_iter()
                    .collect(),
            );
            sections.insert(
                "decompressor".into(),
                [
                    ("adpcm.cycles".to_string(), 1.25e6),
                    ("sum".to_string(), 0.1 + 0.2),
                    ("tiny".to_string(), 1e-7),
                    ("huge_whole".to_string(), 12345678901234567.0),
                    ("huge".to_string(), 1e300),
                    ("negative".to_string(), -2.5),
                ]
                .into_iter()
                .collect(),
            );
            let text = emit(&sections);
            assert_eq!(text.lines().count(), 1, "{text}");
            assert_eq!(parse(&text), Ok(sections), "values read back exactly");
        }

        #[test]
        fn parse_rejects_garbage() {
            assert!(parse("not json").is_err());
            assert!(parse("").is_err());
            assert!(parse("{\"a\": 3}").is_err(), "flat maps are not sections");
            assert!(parse("{\"a\": {\"k\": \"v\"}}").is_err(), "values are numbers");
        }

        #[test]
        fn empty_object_parses() {
            assert_eq!(parse("{}"), Ok(Sections::new()));
        }

        #[test]
        fn write_merges_sections_and_leaves_an_unreadable_report_untouched() {
            let p = std::env::temp_dir().join(format!("squash-bench-{}.json", std::process::id()));
            let _ = fs::remove_file(&p);
            write_at(&p, "a", &[("x".to_string(), 1.5)]).expect("fresh report");
            write_at(&p, "b", &[("y".to_string(), 2.0)]).expect("second section");
            let sections = read_at(&p).expect("reads back");
            assert_eq!(sections["a"]["x"], 1.5);
            assert_eq!(sections["b"]["y"], 2.0);

            let garbage = "{\"a\": {\"x\": 1.5}, oops";
            fs::write(&p, garbage).expect("write garbage");
            let err = write_at(&p, "b", &[("y".to_string(), 3.0)]).unwrap_err();
            assert!(err.contains("at byte"), "{err}");
            assert_eq!(fs::read_to_string(&p).expect("still there"), garbage, "file untouched");
            let _ = fs::remove_file(&p);
        }

        /// The committed reports read through this module with every row
        /// and exact values, so a parser change cannot silently reset them.
        #[test]
        fn committed_reports_read_back_exactly() {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            let read = |name: &str| read_at(&root.join(name)).expect(name);
            let rows = |s: &Sections| s.values().map(BTreeMap::len).sum::<usize>();

            let decode = read("BENCH_PR2.json");
            assert_eq!((decode.len(), rows(&decode)), (2, 36));
            assert_eq!(decode["stream_codec"]["decode_speedup"], 2.252452963065181);
            assert_eq!(decode["decompressor"]["adpcm.host_ns_per_inst"], 18.977635782747605);
            assert_eq!(decode["decompressor"]["rasta.simulated_cycles"], 12106188.0);

            let emit_report = read("BENCH_PR3.json");
            assert_eq!((emit_report.len(), rows(&emit_report)), (1, 33));
            let throughput = &emit_report["compression_throughput"];
            assert_eq!(throughput["adpcm.emit_ms_jobs1"], 3.0083990000000003);
            assert_eq!(throughput["rasta.emit_ms_seed"], 5.7778480000000005);

            let cache = read("BENCH_PR4.json");
            assert_eq!((cache.len(), rows(&cache)), (1, 84));
            assert_eq!(cache["cache_sweep"]["rasta_cycles_n8"], 62154130.0);
            assert_eq!(cache["cache_sweep"]["adpcm_hits_n8"], 102.0);

            for report in [decode, emit_report, cache] {
                assert_eq!(parse(&emit(&report)), Ok(report));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn theta_labels() {
        assert_eq!(theta_label(0.0), "0");
        assert_eq!(theta_label(1e-5), "1e-5");
        assert_eq!(theta_label(1.0), "1.0");
    }

    #[test]
    fn load_single_bench() {
        let benches = load_benches(Some(&["rasta"]));
        assert_eq!(benches.len(), 1);
        let b = &benches[0];
        assert!(b.input_words > b.squeezed_words);
        assert!(b.profile.total_instructions > 0);
        let squashed = b.squash(&opts(0.0));
        assert!(squashed.stats.regions > 0);
    }
}
