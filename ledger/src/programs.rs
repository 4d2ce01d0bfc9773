//! The programs each workload runs and the inputs its seed draws.
//!
//! Paper programs keep their fixed inputs. Corpus programs are the pinned
//! sample (`squash_gencorpus::SAMPLE_INDICES`); seed 0 gives each one its
//! own pinned inputs, and any other seed shuffles each input's bytes into
//! a new order. A shuffle keeps every byte, so the program set and the
//! amount of hot and cold work stay the same from seed to seed, while the
//! control flow, trap order and buffer-cache behaviour change. A metric's
//! spread across seeds is then host noise rather than a different mix of
//! work.

use squash_gencorpus::{CorpusSpec, SAMPLE_INDICES};
use squash_workloads::Workload;

/// One SplitMix64 step: the seed mixer for input draws.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A program to measure: its source plus the two inputs it runs on.
#[derive(Debug, Clone)]
pub struct Source {
    /// Program name (a paper Table 1 row or a corpus entry).
    pub name: String,
    /// The source the set-up compiles.
    pub workload: Workload,
    /// The input the profile is taken on.
    pub profiling_input: Vec<u8>,
    /// The input timed runs execute.
    pub timing_input: Vec<u8>,
}

/// Paper programs small enough for `--smoke`: neither derives its input by
/// running another program.
const SMOKE_PAPER: [&str; 2] = ["adpcm", "epic"];

/// Positions in `SAMPLE_INDICES` of the two cheapest sample programs, used
/// by `--smoke`.
const SMOKE_SAMPLE: [usize; 2] = [0, 7];

/// The position in `SAMPLE_INDICES` of the sample's one large program,
/// which every workload leaves out: a single squash of it takes seconds,
/// as long as a whole `compile` round of the other 22 programs.
const LARGE_SAMPLE: usize = 11;

/// The eleven paper programs with their fixed inputs (two under `smoke`).
/// Materialising the decoders' inputs runs their encoders, so this takes
/// about a second.
pub fn paper(smoke: bool) -> Vec<Source> {
    squash_workloads::all()
        .into_iter()
        .filter(|w| !smoke || SMOKE_PAPER.contains(&w.name.as_str()))
        .map(|w| Source {
            name: w.name.clone(),
            profiling_input: w.profiling_input(),
            timing_input: w.timing_input(),
            workload: w,
        })
        .collect()
}

/// The pinned corpus sample's eleven matrix programs with inputs drawn by
/// `seed` (two of them under `smoke`). Timing inputs are cut to
/// `timing_cap` bytes before they are shuffled.
pub fn corpus(seed: u64, smoke: bool, timing_cap: usize) -> Vec<Source> {
    let entries = CorpusSpec::standard().entries;
    let positions: Vec<usize> = if smoke {
        SMOKE_SAMPLE.to_vec()
    } else {
        (0..SAMPLE_INDICES.len())
            .filter(|&p| p != LARGE_SAMPLE)
            .collect()
    };
    positions
        .into_iter()
        .map(|p| {
            let name = &entries[SAMPLE_INDICES[p]].name;
            let w =
                squash_workloads::by_name(name).expect("every sample entry is a corpus workload");
            let mut timing = w.timing_input();
            timing.truncate(timing_cap);
            let draw = splitmix64(seed ^ splitmix64(p as u64));
            Source {
                name: name.clone(),
                profiling_input: shuffle(w.profiling_input(), seed, draw),
                timing_input: shuffle(timing, seed, draw ^ 1),
                workload: w,
            }
        })
        .collect()
}

/// `bytes` in a seeded random order (Fisher–Yates over SplitMix64 draws
/// from `stream`); seed 0 keeps the pinned order.
fn shuffle(mut bytes: Vec<u8>, seed: u64, stream: u64) -> Vec<u8> {
    if seed == 0 {
        return bytes;
    }
    let mut state = stream;
    for i in (1..bytes.len()).rev() {
        state = splitmix64(state);
        bytes.swap(i, (state % (i as u64 + 1)) as usize);
    }
    bytes
}

/// FNV-1a over every input of `sources`, in order: a short fingerprint that
/// tells two seeds' draws apart in the output.
pub fn input_digest(sources: &[Source]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for s in sources {
        for b in s.profiling_input.iter().chain(&s.timing_input) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x1_0000_01B3);
        }
    }
    h
}
