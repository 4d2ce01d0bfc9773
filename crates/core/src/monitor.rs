//! Bridges from the system's native telemetry (trace events, stage records,
//! telemetry documents, pc samples) to the `squash-obs` encoders.
//!
//! Four bridges, one per observability surface (`DESIGN.md` §16):
//!
//! * [`SpanBuilder`] — a [`TraceSink`] folding the runtime decompressor's
//!   event stream into hierarchical cycle-domain spans: every service trap
//!   opens a span that its terminal event (decompress end, cache hit, stub
//!   create/hit) closes, with decompress and payload-verify brackets nested
//!   inside. `squashrun --spans` writes the result as Chrome trace JSON.
//! * [`stage_spans`] — lays the compile pipeline's [`StageRecord`]s end to
//!   end as wall-ns spans (the stages run sequentially), for
//!   `squashc --spans`.
//! * [`SlotTimeline`] + [`collapse_samples`] — joins the VM's deterministic
//!   pc samples against buffer-slot residency (which region occupied the
//!   slot at each cycle) and the image's address map, producing
//!   flamegraph-compatible collapsed stacks for `squashrun --samples`.
//! * [`registry`] — mirrors a [`Telemetry`] document onto a metrics
//!   [`Registry`] (counters, gauges, and the trap inter-arrival histogram)
//!   without touching the document's own JSON schema; `squashmon --prom`
//!   renders the Prometheus exposition.
//!
//! Everything here consumes already-recorded data, so the zero-perturbation
//! contract (`tests/differential.rs`) is inherited from the emitters.

use squash_obs::{Histogram, Registry, SpanId, SpanLog, Stacks};
use squash_vm::{Sample, TraceEvent, TraceSink};

use crate::runtime::RuntimeConfig;
use crate::telemetry::{StageRecord, Telemetry};

/// Folds runtime trace events into a cycle-domain [`SpanLog`].
///
/// Span hierarchy (by time containment, which is how Perfetto nests):
/// `service/<trap-kind>` spans from each [`TraceEvent::ServiceTrap`] to its
/// terminal event; `decompress/r<N>` and `verify/r<N>` spans nested inside;
/// `stub_free` and `icache_flush` as instant markers.
#[derive(Debug, Clone, Default)]
pub struct SpanBuilder {
    log: SpanLog,
    service: Option<SpanId>,
    decompress: Option<SpanId>,
    verify: Option<SpanId>,
}

impl SpanBuilder {
    /// An empty builder (cycle clock).
    pub fn new() -> SpanBuilder {
        SpanBuilder { log: SpanLog::new("cycles"), ..SpanBuilder::default() }
    }

    /// Closes the open service span (the trap's terminal event arrived).
    fn close_service(&mut self, cycle: u64) {
        if let Some(id) = self.service.take() {
            self.log.end(id, cycle);
        }
    }

    /// The finished span log. Spans left open by a faulted run are closed
    /// at the highest stamp seen when rendered.
    pub fn finish(self) -> SpanLog {
        self.log
    }
}

impl TraceSink for SpanBuilder {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::ServiceTrap { kind, pc, ra } => {
                // A trap while another appears open means the previous one's
                // terminal event was lost; close it rather than leak.
                self.close_service(cycle);
                let id = self.log.begin(format!("service/{}", kind.name()), "service", cycle);
                self.log.arg(id, "pc", pc as u64);
                self.log.arg(id, "ra", ra as u64);
                self.service = Some(id);
            }
            TraceEvent::DecompressStart { region } => {
                self.decompress =
                    Some(self.log.begin(format!("decompress/r{region}"), "decompress", cycle));
            }
            TraceEvent::VerifyStart { region } => {
                self.verify = Some(self.log.begin(format!("verify/r{region}"), "verify", cycle));
            }
            TraceEvent::VerifyEnd { bytes, .. } => {
                if let Some(id) = self.verify.take() {
                    self.log.arg(id, "bytes", bytes);
                    self.log.end(id, cycle);
                }
            }
            TraceEvent::DecompressEnd { bits, insts, slot, .. } => {
                if let Some(id) = self.decompress.take() {
                    self.log.arg(id, "bits", bits);
                    self.log.arg(id, "insts", insts);
                    self.log.arg(id, "slot", slot as u64);
                    self.log.end(id, cycle);
                }
                self.close_service(cycle);
            }
            TraceEvent::CacheHit { region, slot } => {
                if let Some(id) = self.service {
                    self.log.arg(id, "region", region as u64);
                    self.log.arg(id, "slot", slot as u64);
                }
                self.close_service(cycle);
            }
            TraceEvent::StubCreate { site, .. } | TraceEvent::StubHit { site, .. } => {
                if let Some(id) = self.service {
                    self.log.arg(id, "site", site as u64);
                }
                self.close_service(cycle);
            }
            TraceEvent::StubFree { .. } => self.log.instant("stub_free", "runtime", cycle),
            TraceEvent::ICacheFlush => self.log.instant("icache_flush", "runtime", cycle),
            _ => {}
        }
    }
}

/// Lays the compile pipeline's stage records end to end as one wall-ns
/// [`SpanLog`] (the stages run sequentially, so cumulative wall time is the
/// timeline).
pub fn stage_spans(stages: &[StageRecord]) -> SpanLog {
    let mut log = SpanLog::new("ns");
    let mut ts = 0u64;
    for s in stages {
        let id = log.begin(format!("stage/{}", s.name), "stage", ts);
        log.arg(id, "items", s.items);
        log.arg(id, "output_bytes", s.output_bytes);
        ts = ts.saturating_add(s.wall_ns);
        log.end(id, ts);
    }
    log
}

/// The image's address map, for classifying a sampled pc into an area.
#[derive(Debug, Clone)]
pub struct AreaMap {
    decomp: std::ops::Range<u32>,
    offsets: std::ops::Range<u32>,
    stubs: std::ops::Range<u32>,
    buffer_base: u32,
    buffer_bytes: u32,
    slots: usize,
}

/// Where a sampled pc fell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Area {
    /// Never-compressed code (and entry stubs) below the runtime areas.
    Text,
    /// The decompressor trap window / body or its offset table.
    Decompressor,
    /// The restore-stub area.
    RestoreStubs,
    /// Buffer slot `k` of the decompressed-region cache.
    Buffer(usize),
}

impl AreaMap {
    /// Builds the map from a squashed image's runtime configuration.
    pub fn from_runtime(cfg: &RuntimeConfig) -> AreaMap {
        AreaMap {
            decomp: cfg.decomp_base..cfg.decomp_base + cfg.decomp_bytes,
            offsets: cfg.offset_table_addr
                ..cfg.offset_table_addr + 4 * cfg.regions as u32,
            stubs: cfg.stub_base
                ..cfg.stub_base + crate::layout::STUB_SLOT_BYTES * cfg.stub_slots as u32,
            buffer_base: cfg.buffer_base,
            buffer_bytes: cfg.buffer_bytes,
            slots: cfg.cache_slots,
        }
    }

    /// Buffer slots in the map.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Classifies a pc.
    pub fn area(&self, pc: u32) -> Area {
        let buffer =
            self.buffer_base..self.buffer_base + self.buffer_bytes * self.slots as u32;
        if buffer.contains(&pc) && self.buffer_bytes > 0 {
            Area::Buffer(((pc - self.buffer_base) / self.buffer_bytes) as usize)
        } else if self.decomp.contains(&pc) || self.offsets.contains(&pc) {
            Area::Decompressor
        } else if self.stubs.contains(&pc) {
            Area::RestoreStubs
        } else {
            Area::Text
        }
    }
}

/// A [`TraceSink`] recording which region each buffer slot held over time
/// (one entry per decompression, cycle-ordered). Joined against pc samples
/// by [`collapse_samples`] to name the region a buffer-area sample landed
/// in.
#[derive(Debug, Clone, Default)]
pub struct SlotTimeline {
    /// `(cycle, slot, region)` — slot contents change at these stamps.
    events: Vec<(u64, usize, u16)>,
}

impl SlotTimeline {
    /// An empty timeline.
    pub fn new() -> SlotTimeline {
        SlotTimeline::default()
    }

    /// Residency changes recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no decompression was observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for SlotTimeline {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        if let TraceEvent::DecompressEnd { region, slot, .. } = *event {
            self.events.push((cycle, slot, region));
        }
    }
}

/// Joins deterministic pc samples with the address map and slot-residency
/// timeline into collapsed stacks: `program;text`, `program;decompressor`,
/// `program;restore_stubs`, and `program;buffer;region_<N>` (or
/// `…;buffer;empty` before any fill). Samples and timeline are both
/// cycle-ordered, so the join is a single merge pass.
pub fn collapse_samples(
    program: &str,
    samples: &[Sample],
    map: &AreaMap,
    timeline: &SlotTimeline,
) -> Stacks {
    let mut stacks = Stacks::new();
    let mut resident: Vec<Option<u16>> = vec![None; map.slots()];
    let mut next_event = 0usize;
    for s in samples {
        while let Some(&(cycle, slot, region)) = timeline.events.get(next_event) {
            if cycle > s.cycle {
                break;
            }
            if let Some(r) = resident.get_mut(slot) {
                *r = Some(region);
            }
            next_event += 1;
        }
        match map.area(s.pc) {
            Area::Text => stacks.add(&[program, "text"], 1),
            Area::Decompressor => stacks.add(&[program, "decompressor"], 1),
            Area::RestoreStubs => stacks.add(&[program, "restore_stubs"], 1),
            Area::Buffer(k) => {
                let frame = match resident.get(k).copied().flatten() {
                    Some(r) => format!("region_{r}"),
                    None => "empty".to_string(),
                };
                stacks.add(&[program, "buffer", &frame], 1);
            }
        }
    }
    stacks
}

/// Mirrors a telemetry document onto a metrics [`Registry`]: every counter
/// the document carries becomes a Prometheus-exposable metric, the trap
/// inter-arrival log2 buckets become a histogram, and the document's name
/// rides on a `squash_info` gauge label. The telemetry JSON schema itself is
/// untouched — this is a read-only projection.
pub fn registry(t: &Telemetry) -> Registry {
    let mut r = Registry::new();
    r.set_gauge(
        "squash_info",
        "What was measured; value is always 1",
        &[("name", &t.name)],
        1.0,
    );
    if t.docs > 0 {
        r.set_gauge(
            "squash_telemetry_docs",
            "Run documents folded into this aggregate",
            &[],
            t.docs as f64,
        );
    }
    if t.trace_drops > 0 {
        r.add_counter(
            "squash_trace_drops_total",
            "Events the bounded trace ring discarded",
            &[],
            t.trace_drops,
        );
    }
    if t.sampler_drops > 0 {
        r.add_counter(
            "squash_sampler_drops_total",
            "Samples the bounded sampling profiler discarded",
            &[],
            t.sampler_drops,
        );
    }
    if let Some(run) = t.run {
        r.set_gauge("squash_run_status", "Guest exit status", &[], run.status as f64);
        r.add_counter(
            "squash_run_instructions_total",
            "Instructions executed",
            &[],
            run.instructions,
        );
        r.add_counter(
            "squash_run_cycles_total",
            "Cycles consumed (instructions + service charges)",
            &[],
            run.cycles,
        );
        r.add_counter(
            "squash_run_output_bytes_total",
            "Bytes the guest wrote",
            &[],
            run.output_bytes,
        );
    }
    if let Some(rt) = t.runtime {
        let help = "Runtime decompressor counter";
        for (name, v) in [
            ("squash_runtime_decompressions_total", rt.decompressions),
            ("squash_runtime_skipped_total", rt.skipped),
            ("squash_runtime_stub_hits_total", rt.stub_hits),
            ("squash_runtime_stub_allocs_total", rt.stub_allocs),
            ("squash_runtime_restores_total", rt.restores),
            ("squash_runtime_bits_read_total", rt.bits_read),
            ("squash_runtime_insts_written_total", rt.insts_written),
            ("squash_runtime_cycles_charged_total", rt.cycles_charged),
            ("squash_runtime_hits_total", rt.hits),
            ("squash_runtime_misses_total", rt.misses),
            ("squash_runtime_evictions_total", rt.evictions),
            ("squash_runtime_regions_verified_total", rt.regions_verified),
            ("squash_runtime_checksum_cycles_total", rt.checksum_cycles),
        ] {
            r.add_counter(name, help, &[], v);
        }
        r.set_gauge(
            "squash_runtime_max_live_stubs",
            "High-water mark of live restore stubs",
            &[],
            rt.max_live_stubs as f64,
        );
    }
    if let Some(ic) = t.icache {
        r.add_counter("squash_icache_hits_total", "Instruction-cache hits", &[], ic.hits);
        r.add_counter("squash_icache_misses_total", "Instruction-cache misses", &[], ic.misses);
        r.add_counter("squash_icache_flushes_total", "Instruction-cache flushes", &[], ic.flushes);
        r.set_gauge("squash_icache_miss_ratio", "Miss ratio", &[], ic.miss_ratio());
    }
    for s in &t.stages {
        let labels: &[(&str, &str)] = &[("stage", &s.name)];
        r.add_counter("squash_stage_wall_ns_total", "Stage wall-clock", labels, s.wall_ns);
        r.add_counter("squash_stage_items_total", "Stage items processed", labels, s.items);
        r.add_counter(
            "squash_stage_output_bytes_total",
            "Stage artifact bytes",
            labels,
            s.output_bytes,
        );
    }
    for f in &t.faults {
        r.add_counter(
            "squash_faults_total",
            "Machine-check faults by kind",
            &[("kind", &f.kind)],
            f.count,
        );
    }
    if let Some(attr) = &t.attribution {
        for (kind, v) in [
            ("create_stub", attr.traps.create_stub),
            ("entry", attr.traps.entry),
            ("restore", attr.traps.restore),
        ] {
            r.add_counter("squash_traps_total", "Service traps by kind", &[("kind", kind)], v);
        }
        for row in &attr.regions {
            let region = row.region.to_string();
            let labels: &[(&str, &str)] = &[("region", &region)];
            r.add_counter(
                "squash_region_decompressions_total",
                "Decompressions per region",
                labels,
                row.decompressions,
            );
            r.add_counter(
                "squash_region_residency_cycles_total",
                "Cycles the region was buffer-resident",
                labels,
                row.residency_cycles,
            );
            for (kind, v) in [
                ("decomp", row.decomp_cycles),
                ("hit", row.hit_cycles),
                ("stub", row.stub_cycles),
            ] {
                r.add_counter(
                    "squash_region_cycles_total",
                    "Attributed service cycles per region",
                    &[("region", &region), ("kind", kind)],
                    v,
                );
            }
        }
        if !attr.interarrival.is_empty() {
            // The attribution buckets are log2: bucket 0 holds zero deltas,
            // bucket i ≥ 1 holds [2^(i-1), 2^i). Re-expose them under the
            // conservative upper bound 2^i (every delta in bucket i is
            // ≤ 2^i), with the sum estimated from bucket lower bounds —
            // the native buckets do not keep exact values.
            let n = attr.interarrival.len();
            let bounds: Vec<f64> = (0..n).map(|i| (1u64 << i) as f64).collect();
            let mut counts = attr.interarrival.clone();
            counts.push(0); // +Inf: the top bucket is already the maximum seen
            let sum: f64 = attr
                .interarrival
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, &c)| c as f64 * (1u64 << (i - 1)) as f64)
                .sum();
            r.set_histogram(
                "squash_trap_interarrival_cycles",
                "Cycles between consecutive service traps (log2 buckets; bounds are conservative)",
                &[],
                Histogram::from_parts(&bounds, counts, sum),
            );
        }
    }
    r
}

/// Mirrors a fleet metrics snapshot onto a [`Registry`]: per-tenant request
/// counters (labelled by tenant and outcome), per-tenant simulated work,
/// the shared decode-cache counters, the quarantine ledger, and the image
/// store's backoff count. Like [`registry`], a read-only projection.
pub fn fleet_registry(m: &crate::fleet::FleetMetrics) -> Registry {
    let mut r = Registry::new();
    for t in &m.tenants {
        let labels: &[(&str, &str)] = &[("tenant", &t.tenant)];
        r.add_counter("squashd_requests_total", "Requests submitted", labels, t.submitted);
        for (outcome, v) in [
            ("ok", t.ok),
            ("machine_check", t.faults),
            ("shed", t.shed),
            ("quarantined", t.quarantine_rejected),
            ("load_error", t.load_errors),
            ("run_error", t.run_errors),
            ("internal", t.internal_errors),
        ] {
            if v > 0 {
                r.add_counter(
                    "squashd_outcomes_total",
                    "Request outcomes by tenant",
                    &[("tenant", &t.tenant), ("outcome", outcome)],
                    v,
                );
            }
        }
        if t.deadline_faults > 0 {
            r.add_counter(
                "squashd_deadline_faults_total",
                "Cycle-budget deadline machine checks",
                labels,
                t.deadline_faults,
            );
        }
        r.add_counter("squashd_tenant_cycles_total", "Simulated cycles per tenant", labels, t.cycles);
        r.add_counter(
            "squashd_tenant_instructions_total",
            "Instructions per tenant",
            labels,
            t.instructions,
        );
    }
    let c = &m.cache;
    for (name, v) in [
        ("squashd_cache_hits_total", c.hits),
        ("squashd_cache_misses_total", c.misses),
        ("squashd_cache_evictions_total", c.evictions),
        ("squashd_cache_bypasses_total", c.bypasses),
        ("squashd_cache_acquires_total", c.acquires),
        ("squashd_cache_releases_total", c.releases),
    ] {
        r.add_counter(name, "Shared decode-cache counter", &[], v);
    }
    r.set_gauge(
        "squashd_cache_live_entries",
        "Entries resident in the shared decode cache",
        &[],
        c.live_entries as f64,
    );
    for (image, faults, quarantined) in &m.quarantine {
        r.add_counter(
            "squashd_image_faults_total",
            "Machine checks recorded against an image",
            &[("image", image)],
            *faults as u64,
        );
        r.set_gauge(
            "squashd_image_quarantined",
            "1 when the image is quarantined",
            &[("image", image)],
            if *quarantined { 1.0 } else { 0.0 },
        );
    }
    if m.load_retries > 0 {
        r.add_counter(
            "squashd_load_retries_total",
            "Backoff sleeps taken loading images",
            &[],
            m.load_retries,
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use squash_vm::TrapKind;

    fn emit_all(sink: &mut dyn TraceSink, seq: &[(u64, TraceEvent)]) {
        for (cycle, e) in seq {
            sink.emit(*cycle, e);
        }
    }

    #[test]
    fn span_builder_brackets_traps_and_nests_decompress() {
        let mut b = SpanBuilder::new();
        emit_all(
            &mut b,
            &[
                (100, TraceEvent::ServiceTrap { kind: TrapKind::Entry, pc: 0x8000, ra: 0x2000 }),
                (100, TraceEvent::DecompressStart { region: 3 }),
                (100, TraceEvent::VerifyStart { region: 3 }),
                (140, TraceEvent::VerifyEnd { region: 3, bytes: 40 }),
                (150, TraceEvent::ICacheFlush),
                (
                    200,
                    TraceEvent::DecompressEnd {
                        region: 3,
                        bits: 800,
                        insts: 25,
                        slot: 0,
                        evicted: None,
                    },
                ),
                (300, TraceEvent::ServiceTrap { kind: TrapKind::Entry, pc: 0x8000, ra: 0x2000 }),
                (310, TraceEvent::CacheHit { region: 3, slot: 0 }),
            ],
        );
        let log = b.finish();
        assert_eq!(log.open(), 0);
        assert_eq!(
            log.spans(),
            vec![
                ("service/entry", 100, 100),
                ("decompress/r3", 100, 100),
                ("verify/r3", 100, 40),
                ("service/entry", 300, 10),
            ]
        );
        let json = log.to_chrome_json();
        assert!(json.contains("\"clock\":\"cycles\""), "{json}");
        assert!(json.contains("icache_flush"), "{json}");
    }

    #[test]
    fn stage_spans_are_cumulative() {
        let stages = vec![
            StageRecord { name: "plan".into(), wall_ns: 100, items: 4, ..Default::default() },
            StageRecord { name: "encode".into(), wall_ns: 250, items: 4, ..Default::default() },
        ];
        let log = stage_spans(&stages);
        assert_eq!(log.clock(), "ns");
        assert_eq!(
            log.spans(),
            vec![("stage/plan", 0, 100), ("stage/encode", 100, 250)]
        );
    }

    fn test_map() -> AreaMap {
        AreaMap {
            decomp: 0x8000..0x8400,
            offsets: 0x8400..0x8410,
            stubs: 0x8410..0x8500,
            buffer_base: 0x9000,
            buffer_bytes: 0x100,
            slots: 2,
        }
    }

    #[test]
    fn area_classification() {
        let m = test_map();
        assert_eq!(m.area(0x1000), Area::Text);
        assert_eq!(m.area(0x8004), Area::Decompressor);
        assert_eq!(m.area(0x8404), Area::Decompressor);
        assert_eq!(m.area(0x8420), Area::RestoreStubs);
        assert_eq!(m.area(0x9004), Area::Buffer(0));
        assert_eq!(m.area(0x9104), Area::Buffer(1));
        assert_eq!(m.area(0x9200), Area::Text); // past the last slot
    }

    #[test]
    fn collapse_joins_samples_with_residency() {
        let map = test_map();
        let mut tl = SlotTimeline::new();
        tl.emit(
            50,
            &TraceEvent::DecompressEnd { region: 7, bits: 1, insts: 1, slot: 0, evicted: None },
        );
        tl.emit(
            150,
            &TraceEvent::DecompressEnd { region: 9, bits: 1, insts: 1, slot: 0, evicted: Some(7) },
        );
        let samples = [
            Sample { cycle: 10, pc: 0x9010 },  // buffer before any fill
            Sample { cycle: 60, pc: 0x9010 },  // region 7 resident
            Sample { cycle: 160, pc: 0x9010 }, // region 9 resident
            Sample { cycle: 170, pc: 0x1000 }, // text
            Sample { cycle: 180, pc: 0x8000 }, // decompressor
        ];
        let stacks = collapse_samples("prog", &samples, &map, &tl);
        assert_eq!(
            stacks.render(),
            "prog;buffer;empty 1\nprog;buffer;region_7 1\nprog;buffer;region_9 1\n\
             prog;decompressor 1\nprog;text 1\n"
        );
        assert_eq!(stacks.total(), samples.len() as u64);
    }

    #[test]
    fn registry_mirrors_counters_and_histogram() {
        use crate::telemetry::{AttributionReport, RunMetrics, TrapCounts};
        let t = Telemetry {
            name: "img.sqsh".into(),
            run: Some(RunMetrics {
                status: 0,
                instructions: 100,
                cycles: 150,
                output_bytes: 5,
            }),
            trace_drops: 3,
            attribution: Some(AttributionReport {
                traps: TrapCounts { create_stub: 1, entry: 2, restore: 3 },
                interarrival: vec![4, 5, 6],
                ..Default::default()
            }),
            ..Default::default()
        };
        let r = registry(&t);
        let text = r.to_prometheus();
        assert!(text.contains("squash_info{name=\"img.sqsh\"} 1"), "{text}");
        assert!(text.contains("squash_run_cycles_total 150"), "{text}");
        assert!(text.contains("squash_trace_drops_total 3"), "{text}");
        assert!(text.contains("squash_traps_total{kind=\"entry\"} 2"), "{text}");
        // Histogram: bounds 1,2,4 cumulative 4,9,15, +Inf 15 == _count.
        assert!(text.contains("squash_trap_interarrival_cycles_bucket{le=\"1\"} 4"), "{text}");
        assert!(text.contains("squash_trap_interarrival_cycles_bucket{le=\"4\"} 15"), "{text}");
        assert!(
            text.contains("squash_trap_interarrival_cycles_bucket{le=\"+Inf\"} 15"),
            "{text}"
        );
        assert!(text.contains("squash_trap_interarrival_cycles_count 15"), "{text}");
    }

    #[test]
    fn empty_document_mirrors_to_info_only() {
        let r = registry(&Telemetry::default());
        let text = r.to_prometheus();
        assert!(text.contains("squash_info{name=\"\"} 1"), "{text}");
        assert!(!text.contains("squash_run_"), "{text}");
    }
}
