//! Host-time spans recorded from outside each layer.
//!
//! Every span is timed in the ledger around a call into one layer's public
//! functions, so the system itself carries no instrumentation. Per-category
//! totals are kept as spans are recorded; the span log itself is kept only
//! in a traced process and can be written as Chrome trace JSON.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use squash::image_file;
use squash::pipeline::RunResult;
use squash::runtime::SquashRuntime;
use squash::stages::{StageObserver, StageStats};
use squash_obs::span::SpanLog;
use squash_vm::{Service, Vm, VmError};

/// Span recorder and per-category accumulator on one host clock (ns since
/// the tracer was made).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    log: Option<SpanLog>,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A tracer that keeps the span log when `record` is set and only the
    /// per-category totals otherwise.
    pub fn new(record: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            log: record.then(|| SpanLog::new("ns")),
            totals: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span of category `cat` from `start` to `end`.
    pub fn span(&mut self, cat: &'static str, name: &str, start: u64, end: u64) {
        let t = self.totals.entry(cat).or_default();
        t.0 += 1;
        t.1 += end.saturating_sub(start);
        if let Some(log) = self.log.as_mut() {
            let id = log.begin(name, cat, start);
            log.end(id, end);
        }
    }

    /// `(spans, total ns)` recorded under `cat`.
    pub fn total(&self, cat: &str) -> (u64, u64) {
        self.totals.get(cat).copied().unwrap_or_default()
    }

    /// Forgets every total (the log, if any, keeps its spans).
    pub fn reset_totals(&mut self) {
        self.totals.clear();
    }

    /// Spans in the log (0 when not recording).
    pub fn spans(&self) -> usize {
        self.log.as_ref().map_or(0, SpanLog::len)
    }

    /// The log as Perfetto-loadable Chrome trace JSON, when recording.
    pub fn chrome_json(&self) -> Option<String> {
        self.log.as_ref().map(SpanLog::to_chrome_json)
    }
}

/// The decompressor service with a `trap` span around every `invoke`.
struct TimedService<'a> {
    runtime: &'a mut SquashRuntime,
    tracer: &'a mut Tracer,
}

impl Service for TimedService<'_> {
    fn range(&self) -> Range<u32> {
        self.runtime.range()
    }

    fn invoke(&mut self, vm: &mut Vm) -> Result<(), VmError> {
        let start = self.tracer.now();
        let result = self.runtime.invoke(vm);
        let end = self.tracer.now();
        self.tracer.span("trap", "trap", start, end);
        result
    }
}

/// Loads and runs one image through the layer APIs with spans
/// `program ▸ load, init, run ▸ trap`. The steps are those of
/// `pipeline::run_squashed`, so the work matches an untraced run.
///
/// # Errors
///
/// A load or run failure, as text.
pub fn run_traced(
    tracer: &mut Tracer,
    name: &str,
    image: &[u8],
    input: &[u8],
) -> Result<RunResult, String> {
    let start = tracer.now();
    let squashed = image_file::read(image).map_err(|e| e.to_string())?;
    let loaded = tracer.now();
    tracer.span("load", "load", start, loaded);
    // The same memory headroom `pipeline::run_squashed` gives the guest.
    let mut vm = Vm::new(squashed.min_mem_size(1 << 18));
    for (base, bytes) in &squashed.segments {
        vm.write_bytes(*base, bytes);
    }
    vm.set_pc(squashed.entry);
    vm.set_input(input.to_vec());
    let mut runtime = SquashRuntime::new(squashed.runtime.clone());
    let ready = tracer.now();
    tracer.span("init", "init", loaded, ready);
    let out = vm.run_with(&mut TimedService {
        runtime: &mut runtime,
        tracer: &mut *tracer,
    });
    let end = tracer.now();
    tracer.span("run", "run", ready, end);
    tracer.span("program", name, start, end);
    let out = out.map_err(|e| format!("squashed run failed: {e}"))?;
    Ok(RunResult {
        status: out.status,
        output: vm.take_output(),
        instructions: out.instructions,
        cycles: out.cycles,
        runtime: *runtime.stats(),
        icache: None,
    })
}

/// A stage observer that turns each emit stage report into a span of
/// category `stage.<name>` ending when the report arrives.
pub struct StageSpans<'a> {
    /// Where the spans go.
    pub tracer: &'a mut Tracer,
}

impl StageObserver for StageSpans<'_> {
    fn record(&mut self, stats: &StageStats) {
        let end = self.tracer.now();
        let start = end.saturating_sub(u64::try_from(stats.wall.as_nanos()).unwrap_or(u64::MAX));
        let cat = match stats.name {
            "plan" => "stage.plan",
            "layout" => "stage.layout",
            "train" => "stage.train",
            "encode" => "stage.encode",
            "assemble" => "stage.assemble",
            _ => "stage.other",
        };
        self.tracer.span(cat, stats.name, start, end);
    }
}
