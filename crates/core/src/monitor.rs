//! Bridges from the system's native telemetry (trace events, stage records,
//! pc samples, fleet metrics) to the `squash-obs` encoders.
//!
//! Three bridges, for spans, samples and fleet metrics (`DESIGN.md` §16):
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
//! * [`fleet_registry`] — mirrors a fleet metrics snapshot onto a metrics
//!   [`Registry`] for `squashd --prom`.
//!
//! A telemetry document mirrors itself:
//! [`Telemetry::registry`](crate::telemetry::Telemetry::registry) reads the
//! schema's field tables, so only the `telemetry` module knows the field
//! list.
//!
//! Everything here consumes already-recorded data, so the zero-perturbation
//! contract (`tests/differential.rs`) is inherited from the emitters.

use squash_obs::{Registry, SpanId, SpanLog, Stacks};
use squash_vm::{Sample, TraceEvent, TraceSink};

use crate::runtime::RuntimeConfig;
use crate::telemetry::StageRecord;

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

/// Mirrors a fleet metrics snapshot onto a [`Registry`]: per-tenant request
/// counters (labelled by tenant and outcome), per-tenant simulated work,
/// the shared decode-cache counters, the quarantine ledger, and the image
/// store's backoff count. Like
/// [`Telemetry::registry`](crate::telemetry::Telemetry::registry), a
/// read-only projection.
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
}
