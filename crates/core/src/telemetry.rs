//! The unified telemetry layer (`squash-telemetry`): per-region cycle
//! attribution, trap statistics, and one JSON report covering every counter
//! the system produces.
//!
//! Three layers already count things — [`crate::runtime::RuntimeStats`] for
//! the decompressor, [`squash_vm::ICacheStats`] for the instruction-cache
//! model, [`crate::stages::StageStats`] for the compile pipeline. This
//! module unifies them behind one [`Telemetry`] report with a stable JSON
//! schema ([`SCHEMA_VERSION`], emitted by `--metrics-json`), and adds the
//! piece none of them have: **attribution** — which region each
//! service-charged cycle belongs to.
//!
//! Attribution works by bracketing. The runtime emits a
//! [`TraceEvent::ServiceTrap`] at trap entry, *before* charging, and exactly
//! one terminal event (`DecompressEnd`, `CacheHit`, `StubCreate`, `StubHit`)
//! *after* charging, so the cycle-stamp delta between the two is precisely
//! the trap's service charge. The [`Attribution`] sink folds those deltas
//! into per-region and per-call-site tables as events arrive; since every
//! charge in the runtime is bracketed this way, attribution covers 100% of
//! charged cycles (the acceptance bar is ≥ 99%; any remainder is reported
//! as *untracked*, never silently dropped).
//!
//! Tracing observes and never charges: the report is computed entirely from
//! the event stream, and simulated cycles are byte-for-byte identical with
//! and without a sink attached (asserted by `tests/differential.rs`).
//!
//! No external JSON crate exists in this workspace, so [`json`] provides the
//! tiny value type, emitter and parser the schema needs — the same
//! hand-rolled approach `squash_bench::report` already uses.

use std::collections::BTreeMap;

use squash_vm::{ICacheStats, JsonlRing, TraceEvent, TraceSink, TrapKind};

use crate::runtime::RuntimeStats;
use crate::stages::StageStats;

/// Version stamped into every [`Telemetry`] JSON document as `"schema"`.
/// Consumers reject documents with a larger major version; fields may be
/// added within a version (all structs behind the schema are
/// `#[non_exhaustive]` or crate-local for exactly this reason).
///
/// History: 1 = PR4 (runtime/attribution sections, integrity counters added
/// in PR5 without a bump — absent keys parse as zero); 2 = fleet merging
/// ([`Telemetry::merge`], the `"docs"` document count). Version-1 documents
/// still parse.
pub const SCHEMA_VERSION: u32 = 2;

pub mod json {
    //! A minimal JSON value: emit, parse, and accessors.
    //!
    //! Integers are kept exact ([`Json::Int`], `i64`) rather than routed
    //! through `f64`, so 64-bit cycle counters round-trip byte-for-byte.

    use std::fmt;

    /// One JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// An integer (emitted without a decimal point).
        Int(i64),
        /// A non-integer number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object; insertion order is preserved on emission.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field lookup (`None` for non-objects and missing keys).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => {
                    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        /// The value as an `i64`, if it is an integer.
        pub fn as_i64(&self) -> Option<i64> {
            match *self {
                Json::Int(n) => Some(n),
                _ => None,
            }
        }

        /// The value as a `u64`, if it is a non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            self.as_i64().and_then(|n| u64::try_from(n).ok())
        }

        /// The value as an `f64` (integers widen).
        pub fn as_f64(&self) -> Option<f64> {
            match *self {
                Json::Int(n) => Some(n as f64),
                Json::Num(n) => Some(n),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// Whether the value is `null`.
        pub fn is_null(&self) -> bool {
            matches!(self, Json::Null)
        }
    }

    impl fmt::Display for Json {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Int(n) => write!(f, "{n}"),
                Json::Num(n) if n.is_finite() => {
                    // Keep a syntactic marker so the parser reads it back as
                    // Num, preserving the Int/Num distinction.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        write!(f, "{n:.1}")
                    } else {
                        write!(f, "{n}")
                    }
                }
                Json::Num(_) => f.write_str("null"), // NaN/inf have no JSON form
                Json::Str(s) => {
                    f.write_str("\"")?;
                    for c in s.chars() {
                        match c {
                            '"' => f.write_str("\\\"")?,
                            '\\' => f.write_str("\\\\")?,
                            '\n' => f.write_str("\\n")?,
                            '\t' => f.write_str("\\t")?,
                            '\r' => f.write_str("\\r")?,
                            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                            c => write!(f, "{c}")?,
                        }
                    }
                    f.write_str("\"")
                }
                Json::Arr(items) => {
                    f.write_str("[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{v}")?;
                    }
                    f.write_str("]")
                }
                Json::Obj(fields) => {
                    f.write_str("{")?;
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}:{v}", Json::Str(k.clone()))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.b
                .get(self.i)
                .copied()
                .ok_or_else(|| "unexpected end of input".into())
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }

        fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek()? {
                b'n' => self.lit("null", Json::Null),
                b't' => self.lit("true", Json::Bool(true)),
                b'f' => self.lit("false", Json::Bool(false)),
                b'"' => self.string().map(Json::Str),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    if self.peek()? == b']' {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        match self.peek()? {
                            b',' => self.i += 1,
                            b']' => {
                                self.i += 1;
                                return Ok(Json::Arr(items));
                            }
                            _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                        }
                    }
                }
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    if self.peek()? == b'}' {
                        self.i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.peek()?;
                        let key = self.string()?;
                        self.expect(b':')?;
                        fields.push((key, self.value()?));
                        match self.peek()? {
                            b',' => self.i += 1,
                            b'}' => {
                                self.i += 1;
                                return Ok(Json::Obj(fields));
                            }
                            _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                        }
                    }
                }
                b'-' | b'0'..=b'9' => self.number(),
                c => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut s = String::new();
            loop {
                let c = *self
                    .b
                    .get(self.i)
                    .ok_or("unterminated string")?;
                self.i += 1;
                match c {
                    b'"' => return Ok(s),
                    b'\\' => {
                        let e = *self.b.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match e {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'u' => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                self.i += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                            _ => return Err(format!("bad escape at byte {}", self.i)),
                        }
                    }
                    c => {
                        // Re-assemble multi-byte UTF-8 sequences.
                        let start = self.i - 1;
                        let len = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => 1,
                        };
                        self.i = start + len;
                        let chunk = self
                            .b
                            .get(start..self.i)
                            .and_then(|b| std::str::from_utf8(b).ok())
                            .ok_or("invalid UTF-8 in string")?;
                        s.push_str(chunk);
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            if self.b[self.i] == b'-' {
                self.i += 1;
            }
            let mut float = false;
            while let Some(&c) = self.b.get(self.i) {
                match c {
                    b'0'..=b'9' => self.i += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        float = true;
                        self.i += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.b[start..self.i])
                .expect("number scanner only accepts ASCII bytes");
            if !float {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }

    /// Shorthand for building an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for an integer value from any unsigned counter.
    pub fn int(n: u64) -> Json {
        Json::Int(n as i64)
    }
}

use json::{int, obj, Json};

/// Checked narrowing for integers parsed out of untrusted JSON documents: a
/// value that does not fit the target counter type is a typed parse error,
/// never a silent `as` truncation (the retune path feeds these documents
/// straight into indexing, so a truncated region id would alias another
/// region's counters).
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("telemetry: \"{what}\" out of range ({v})"))
}

/// Attribution totals for one region: what its decompressions, cache hits
/// and restore-stub traffic cost, and how long it stayed resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RegionRow {
    /// The region index.
    pub region: u16,
    /// Decompressions of this region.
    pub decompressions: u64,
    /// Region-cache hits on this region.
    pub hits: u64,
    /// Times this region was evicted from the cache.
    pub evictions: u64,
    /// Service cycles spent decompressing this region (trap to
    /// `DecompressEnd`).
    pub decomp_cycles: u64,
    /// Service cycles spent on cache hits for this region.
    pub hit_cycles: u64,
    /// Service cycles spent on `CreateStub` traps from this region's call
    /// sites.
    pub stub_cycles: u64,
    /// Total simulated cycles the region spent resident in the cache.
    pub residency_cycles: u64,
    /// Distinct residency intervals (decompression to eviction / end).
    pub residency_intervals: u64,
}

impl RegionRow {
    /// Total service cycles attributed to this region.
    pub fn total_cycles(&self) -> u64 {
        self.decomp_cycles + self.hit_cycles + self.stub_cycles
    }
}

/// Attribution totals for one call site (the stub tag word
/// `(region << 16) | return_offset`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SiteRow {
    /// The call site's tag word.
    pub site: u32,
    /// `CreateStub` traps that allocated a stub for this site.
    pub creates: u64,
    /// `CreateStub` traps that reused this site's live stub.
    pub reuses: u64,
    /// Times this site's stub was freed (usage count reached zero).
    pub frees: u64,
    /// Service cycles charged to this site's `CreateStub` traps.
    pub cycles: u64,
}

impl SiteRow {
    /// The region this call site lives in (high half of the tag word).
    pub fn region(&self) -> u16 {
        (self.site >> 16) as u16
    }
}

/// Totals per [`TrapKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TrapCounts {
    /// `CreateStub` traps.
    pub create_stub: u64,
    /// Entry-stub traps.
    pub entry: u64,
    /// Restore-stub traps.
    pub restore: u64,
}

impl TrapCounts {
    /// All traps.
    pub fn total(&self) -> u64 {
        self.create_stub + self.entry + self.restore
    }
}

/// The per-region cycle-attribution sink.
///
/// Feed it the runtime's trace events (it implements [`TraceSink`]) and call
/// [`Attribution::finish`] when the run ends; the resulting
/// [`AttributionReport`] carries the per-region and per-site tables and the
/// trap inter-arrival histogram.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    regions: BTreeMap<u16, RegionRow>,
    sites: BTreeMap<u32, SiteRow>,
    /// Log₂ histogram of cycles between consecutive service traps: bucket 0
    /// counts zero deltas, bucket i ≥ 1 counts deltas in `[2^(i-1), 2^i)`.
    interarrival: Vec<u64>,
    traps: TrapCounts,
    /// Stamp of the trap currently being serviced (taken by its terminal
    /// event).
    open_trap: Option<u64>,
    /// Stamp of the previous trap, for the inter-arrival histogram.
    prev_trap: Option<u64>,
    /// Regions currently resident: region → cycle residency began.
    resident_since: BTreeMap<u16, u64>,
    /// Sum of all attributed deltas.
    attributed: u64,
    /// Highest cycle stamp seen.
    last_cycle: u64,
}

impl Attribution {
    /// An empty attribution sink.
    pub fn new() -> Attribution {
        Attribution::default()
    }

    fn region(&mut self, region: u16) -> &mut RegionRow {
        self.regions.entry(region).or_insert_with(|| RegionRow {
            region,
            ..RegionRow::default()
        })
    }

    fn site(&mut self, site: u32) -> &mut SiteRow {
        self.sites.entry(site).or_insert_with(|| SiteRow {
            site,
            ..SiteRow::default()
        })
    }

    /// The service charge bracketed by the open trap and this terminal
    /// event's stamp (0 when the emitter was driven without a trap, as unit
    /// tests do).
    fn close_trap(&mut self, cycle: u64) -> u64 {
        let delta = cycle - self.open_trap.take().unwrap_or(cycle);
        self.attributed += delta;
        delta
    }

    fn close_residency(&mut self, region: u16, cycle: u64) {
        if let Some(since) = self.resident_since.remove(&region) {
            let row = self.region(region);
            row.residency_cycles += cycle - since;
            row.residency_intervals += 1;
        }
    }

    /// Consumes the sink and closes open state — residency intervals for
    /// still-resident regions and the open trap, if any — at `end_cycle`
    /// (clamped up to the last stamp seen, so a short `end_cycle` cannot
    /// truncate intervals).
    pub fn finish(mut self, end_cycle: u64) -> AttributionReport {
        let end = end_cycle.max(self.last_cycle);
        let open: Vec<u16> = self.resident_since.keys().copied().collect();
        for region in open {
            self.close_residency(region, end);
        }
        while self.interarrival.last() == Some(&0) {
            self.interarrival.pop();
        }
        AttributionReport {
            regions: self.regions.into_values().collect(),
            sites: self.sites.into_values().collect(),
            interarrival: self.interarrival,
            traps: self.traps,
            attributed_cycles: self.attributed,
            end_cycle: end,
        }
    }
}

/// Histogram bucket for an inter-arrival delta: 0 for zero, else
/// `floor(log2(delta)) + 1` (bucket i covers `[2^(i-1), 2^i)`).
fn bucket_of(delta: u64) -> usize {
    if delta == 0 {
        0
    } else {
        (u64::BITS - delta.leading_zeros()) as usize
    }
}

impl TraceSink for Attribution {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        self.last_cycle = self.last_cycle.max(cycle);
        match *event {
            TraceEvent::ServiceTrap { kind, .. } => {
                match kind {
                    TrapKind::CreateStub => self.traps.create_stub += 1,
                    TrapKind::Entry => self.traps.entry += 1,
                    TrapKind::Restore => self.traps.restore += 1,
                    _ => {}
                }
                if let Some(prev) = self.prev_trap {
                    let b = bucket_of(cycle - prev);
                    if self.interarrival.len() <= b {
                        self.interarrival.resize(b + 1, 0);
                    }
                    self.interarrival[b] += 1;
                }
                self.prev_trap = Some(cycle);
                self.open_trap = Some(cycle);
            }
            TraceEvent::DecompressStart { .. } | TraceEvent::ICacheFlush => {}
            TraceEvent::DecompressEnd { region, evicted, .. } => {
                let delta = self.close_trap(cycle);
                if let Some(e) = evicted {
                    self.close_residency(e, cycle);
                    self.region(e).evictions += 1;
                }
                let row = self.region(region);
                row.decompressions += 1;
                row.decomp_cycles += delta;
                self.resident_since.entry(region).or_insert(cycle);
            }
            TraceEvent::CacheHit { region, .. } => {
                let delta = self.close_trap(cycle);
                let row = self.region(region);
                row.hits += 1;
                row.hit_cycles += delta;
            }
            TraceEvent::StubCreate { site, .. } | TraceEvent::StubHit { site, .. } => {
                let delta = self.close_trap(cycle);
                let row = self.site(site);
                if matches!(event, TraceEvent::StubCreate { .. }) {
                    row.creates += 1;
                } else {
                    row.reuses += 1;
                }
                row.cycles += delta;
                self.region((site >> 16) as u16).stub_cycles += delta;
            }
            TraceEvent::StubFree { site, .. } => {
                self.site(site).frees += 1;
            }
            _ => {}
        }
    }
}

/// The finished attribution tables (see [`Attribution`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionReport {
    /// Per-region totals, ordered by region index.
    pub regions: Vec<RegionRow>,
    /// Per-call-site totals, ordered by tag word.
    pub sites: Vec<SiteRow>,
    /// Trap inter-arrival histogram; see [`Attribution`] for bucket bounds.
    pub interarrival: Vec<u64>,
    /// Trap totals by kind.
    pub traps: TrapCounts,
    /// Service cycles attributed to some region or call site.
    pub attributed_cycles: u64,
    /// The cycle stamp the report was closed at.
    pub end_cycle: u64,
}

impl AttributionReport {
    /// The `top` regions by total attributed cycles, most expensive first.
    pub fn top_regions(&self, top: usize) -> Vec<&RegionRow> {
        let mut rows: Vec<&RegionRow> = self.regions.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse((r.total_cycles(), r.region)));
        rows.truncate(top);
        rows
    }

    fn to_json(&self) -> Json {
        obj(vec![
            (
                "regions",
                Json::Arr(
                    self.regions
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("region", int(r.region as u64)),
                                ("decompressions", int(r.decompressions)),
                                ("hits", int(r.hits)),
                                ("evictions", int(r.evictions)),
                                ("decomp_cycles", int(r.decomp_cycles)),
                                ("hit_cycles", int(r.hit_cycles)),
                                ("stub_cycles", int(r.stub_cycles)),
                                ("residency_cycles", int(r.residency_cycles)),
                                ("residency_intervals", int(r.residency_intervals)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "sites",
                Json::Arr(
                    self.sites
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("site", int(s.site as u64)),
                                ("creates", int(s.creates)),
                                ("reuses", int(s.reuses)),
                                ("frees", int(s.frees)),
                                ("cycles", int(s.cycles)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "trap_interarrival",
                Json::Arr(self.interarrival.iter().map(|&n| int(n)).collect()),
            ),
            (
                "traps",
                obj(vec![
                    ("create_stub", int(self.traps.create_stub)),
                    ("entry", int(self.traps.entry)),
                    ("restore", int(self.traps.restore)),
                ]),
            ),
            ("attributed_cycles", int(self.attributed_cycles)),
            ("end_cycle", int(self.end_cycle)),
        ])
    }

    fn from_json(v: &Json) -> Result<AttributionReport, String> {
        let req = |j: &Json, key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("attribution: missing or bad \"{key}\""))
        };
        let mut report = AttributionReport::default();
        for r in v.get("regions").and_then(Json::as_arr).unwrap_or(&[]) {
            report.regions.push(RegionRow {
                region: narrow(req(r, "region")?, "region")?,
                decompressions: req(r, "decompressions")?,
                hits: req(r, "hits")?,
                evictions: req(r, "evictions")?,
                decomp_cycles: req(r, "decomp_cycles")?,
                hit_cycles: req(r, "hit_cycles")?,
                stub_cycles: req(r, "stub_cycles")?,
                residency_cycles: req(r, "residency_cycles")?,
                residency_intervals: req(r, "residency_intervals")?,
            });
        }
        for s in v.get("sites").and_then(Json::as_arr).unwrap_or(&[]) {
            report.sites.push(SiteRow {
                site: narrow(req(s, "site")?, "site")?,
                creates: req(s, "creates")?,
                reuses: req(s, "reuses")?,
                frees: req(s, "frees")?,
                cycles: req(s, "cycles")?,
            });
        }
        for b in v.get("trap_interarrival").and_then(Json::as_arr).unwrap_or(&[]) {
            report
                .interarrival
                .push(b.as_u64().ok_or("attribution: bad histogram bucket")?);
        }
        if let Some(t) = v.get("traps") {
            report.traps.create_stub = req(t, "create_stub")?;
            report.traps.entry = req(t, "entry")?;
            report.traps.restore = req(t, "restore")?;
        }
        report.attributed_cycles = req(v, "attributed_cycles")?;
        report.end_cycle = req(v, "end_cycle")?;
        Ok(report)
    }
}

/// Every observer one run can carry, fed each runtime event in turn: a
/// JSONL line buffer (`--trace`), [`Attribution`] (`--report` /
/// `--metrics-json`), a hierarchical span builder (`--spans`), and a
/// buffer-slot residency timeline (sample attribution for `--samples`).
///
/// The runtime owns the observers while the image runs, and
/// [`crate::pipeline::run_squashed_with`] hands them back in
/// [`crate::pipeline::Run::observers`].
#[derive(Debug, Clone, Default)]
pub struct Observers {
    /// The JSONL buffer, if line output was requested.
    pub ring: Option<JsonlRing>,
    /// The attribution sink.
    pub attribution: Attribution,
    /// Cycle-domain span building, if span output was requested.
    pub spans: Option<crate::monitor::SpanBuilder>,
    /// Slot-residency tracking, if sample attribution was requested.
    pub timeline: Option<crate::monitor::SlotTimeline>,
}

impl TraceSink for Observers {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        if let Some(ring) = self.ring.as_mut() {
            ring.emit(cycle, event);
        }
        self.attribution.emit(cycle, event);
        if let Some(spans) = self.spans.as_mut() {
            spans.emit(cycle, event);
        }
        if let Some(timeline) = self.timeline.as_mut() {
            timeline.emit(cycle, event);
        }
    }
}

/// One pipeline stage's record in owned, serializable form (the telemetry
/// face of [`StageStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StageRecord {
    /// Stage name.
    pub name: String,
    /// Wall-clock nanoseconds the stage took.
    pub wall_ns: u64,
    /// Items the stage processed.
    pub items: u64,
    /// Size of the stage's primary output, in bytes.
    pub output_bytes: u64,
    /// Unit qualifier for `items` / `output_bytes`.
    pub note: String,
}

impl From<&StageStats> for StageRecord {
    fn from(s: &StageStats) -> StageRecord {
        StageRecord {
            name: s.name.to_string(),
            wall_ns: s.wall.as_nanos() as u64,
            items: s.items as u64,
            output_bytes: s.output_bytes,
            note: s.note.to_string(),
        }
    }
}

/// Per-run metrics of one program execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RunMetrics {
    /// Exit status.
    pub status: i64,
    /// Guest instructions executed.
    pub instructions: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Bytes the program wrote to its output stream.
    pub output_bytes: u64,
}

/// One machine-check fault tally: how many faults of one kind a run (or a
/// fault-injection sweep) observed. `kind` is [`crate::FaultKind::name`]'s
/// snake_case string so the schema does not depend on the Rust enum layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCount {
    /// Fault kind name (`"region_checksum"`, `"truncated_stream"`, ...).
    pub kind: String,
    /// Occurrences.
    pub count: u64,
}

/// The unified telemetry report: everything the system counts, in one
/// document with a stable JSON schema (see `DESIGN.md` §12).
///
/// Every section is optional so one type serves both producers: `squashc
/// --metrics-json` fills `stages`, `squashrun --metrics-json` fills `run` /
/// `runtime` / `icache` and, when tracing, `attribution`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// What was measured (an image path, workload name, ...).
    pub name: String,
    /// Execution metrics, if a program was run.
    pub run: Option<RunMetrics>,
    /// Runtime decompressor counters, if a squashed program was run.
    pub runtime: Option<RuntimeStats>,
    /// Instruction-cache counters, if the model was enabled.
    pub icache: Option<ICacheStats>,
    /// Compile-pipeline stage records, if squashing was observed.
    pub stages: Vec<StageRecord>,
    /// Per-region attribution, if observers were attached.
    pub attribution: Option<AttributionReport>,
    /// Machine-check faults by kind, if any were observed (a faulting
    /// `squashrun` emits exactly one; harnesses may aggregate more).
    pub faults: Vec<FaultCount>,
    /// How many run documents were folded into this one by
    /// [`Telemetry::merge`]. `0` means an ordinary single-run document (the
    /// field is omitted from its JSON form); merged fleets carry the count so
    /// retune provenance can record how much evidence produced an image.
    pub docs: u64,
    /// Trace events the bounded JSONL ring (`--trace-last N`) discarded.
    /// `0` — also what every pre-existing document parses as — means either
    /// "nothing dropped" or "no bounded ring attached"; nonzero warns the
    /// consumer that the trace file is a tail, not the whole run.
    pub trace_drops: u64,
    /// Samples the bounded sampling profiler discarded once its buffer
    /// filled (`squashrun --sample-every` with `--sample-max`). Same
    /// additive-schema contract as `trace_drops`: `0` parses from (and
    /// writes as) an absent field, so old documents are unaffected; nonzero
    /// means the flame data is a prefix, not the whole run. Merge sums, so
    /// a fleet document keeps per-tenant drops attributable when the
    /// per-tenant documents are kept alongside it.
    pub sampler_drops: u64,
}

impl Telemetry {
    /// Cycle coverage: `(attributed, charged, untracked)` service cycles.
    /// `untracked` is whatever part of the runtime's charge the attribution
    /// tables cannot explain — 0 in practice, surfaced rather than hidden.
    pub fn coverage(&self) -> (u64, u64, u64) {
        let charged = self.runtime.map_or(0, |r| r.cycles_charged);
        let attributed = self
            .attribution
            .as_ref()
            .map_or(0, |a| a.attributed_cycles)
            .min(charged);
        (attributed, charged, charged - attributed)
    }

    /// Folds a fleet of run documents into one aggregate document (what
    /// `squashc --retune a.json --retune b.json` feeds the retuner).
    ///
    /// Counters sum (saturating, so forged documents cannot overflow);
    /// high-water marks (`max_live_stubs`, `end_cycle`) and the exit status
    /// take the maximum; attribution rows merge by region index / site tag;
    /// stage records merge by stage name; fault tallies merge by kind; names
    /// are deduplicated, sorted and joined with `+`. Every rule is symmetric,
    /// so the result is independent of document order (asserted by
    /// `tests/determinism.rs`). An empty slice merges to the default
    /// document.
    pub fn merge(docs: &[Telemetry]) -> Telemetry {
        fn sat(acc: &mut u64, n: u64) {
            *acc = acc.saturating_add(n);
        }
        let mut names: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        let mut stages: BTreeMap<String, StageRecord> = BTreeMap::new();
        let mut faults: BTreeMap<String, u64> = BTreeMap::new();
        let mut regions: BTreeMap<u16, RegionRow> = BTreeMap::new();
        let mut sites: BTreeMap<u32, SiteRow> = BTreeMap::new();
        let mut attr: Option<AttributionReport> = None;
        let mut out = Telemetry::default();
        for d in docs {
            if !d.name.is_empty() {
                names.insert(&d.name);
            }
            // A previously-merged input counts for the documents behind it.
            sat(&mut out.docs, d.docs.max(1));
            sat(&mut out.trace_drops, d.trace_drops);
            sat(&mut out.sampler_drops, d.sampler_drops);
            if let Some(run) = d.run {
                match &mut out.run {
                    None => out.run = Some(run),
                    Some(acc) => {
                        acc.status = acc.status.max(run.status);
                        sat(&mut acc.instructions, run.instructions);
                        sat(&mut acc.cycles, run.cycles);
                        sat(&mut acc.output_bytes, run.output_bytes);
                    }
                }
            }
            if let Some(rt) = d.runtime {
                match &mut out.runtime {
                    None => out.runtime = Some(rt),
                    Some(acc) => {
                        sat(&mut acc.decompressions, rt.decompressions);
                        sat(&mut acc.skipped, rt.skipped);
                        sat(&mut acc.stub_hits, rt.stub_hits);
                        sat(&mut acc.stub_allocs, rt.stub_allocs);
                        sat(&mut acc.restores, rt.restores);
                        acc.max_live_stubs = acc.max_live_stubs.max(rt.max_live_stubs);
                        sat(&mut acc.bits_read, rt.bits_read);
                        sat(&mut acc.insts_written, rt.insts_written);
                        sat(&mut acc.cycles_charged, rt.cycles_charged);
                        sat(&mut acc.hits, rt.hits);
                        sat(&mut acc.misses, rt.misses);
                        sat(&mut acc.evictions, rt.evictions);
                        sat(&mut acc.regions_verified, rt.regions_verified);
                        sat(&mut acc.checksum_cycles, rt.checksum_cycles);
                    }
                }
            }
            if let Some(ic) = d.icache {
                match &mut out.icache {
                    None => out.icache = Some(ic),
                    Some(acc) => {
                        sat(&mut acc.hits, ic.hits);
                        sat(&mut acc.misses, ic.misses);
                        sat(&mut acc.flushes, ic.flushes);
                    }
                }
            }
            for s in &d.stages {
                match stages.get_mut(&s.name) {
                    None => {
                        stages.insert(s.name.clone(), s.clone());
                    }
                    Some(acc) => {
                        sat(&mut acc.wall_ns, s.wall_ns);
                        sat(&mut acc.items, s.items);
                        sat(&mut acc.output_bytes, s.output_bytes);
                        // Smallest non-empty note wins: symmetric, so merge
                        // order cannot change the result.
                        if !s.note.is_empty() && (acc.note.is_empty() || s.note < acc.note) {
                            acc.note = s.note.clone();
                        }
                    }
                }
            }
            for f in &d.faults {
                sat(faults.entry(f.kind.clone()).or_insert(0), f.count);
            }
            if let Some(a) = &d.attribution {
                let acc = attr.get_or_insert_with(AttributionReport::default);
                for r in &a.regions {
                    let row = regions
                        .entry(r.region)
                        .or_insert_with(|| RegionRow { region: r.region, ..RegionRow::default() });
                    sat(&mut row.decompressions, r.decompressions);
                    sat(&mut row.hits, r.hits);
                    sat(&mut row.evictions, r.evictions);
                    sat(&mut row.decomp_cycles, r.decomp_cycles);
                    sat(&mut row.hit_cycles, r.hit_cycles);
                    sat(&mut row.stub_cycles, r.stub_cycles);
                    sat(&mut row.residency_cycles, r.residency_cycles);
                    sat(&mut row.residency_intervals, r.residency_intervals);
                }
                for s in &a.sites {
                    let row = sites
                        .entry(s.site)
                        .or_insert_with(|| SiteRow { site: s.site, ..SiteRow::default() });
                    sat(&mut row.creates, s.creates);
                    sat(&mut row.reuses, s.reuses);
                    sat(&mut row.frees, s.frees);
                    sat(&mut row.cycles, s.cycles);
                }
                if acc.interarrival.len() < a.interarrival.len() {
                    acc.interarrival.resize(a.interarrival.len(), 0);
                }
                for (bucket, &n) in a.interarrival.iter().enumerate() {
                    sat(&mut acc.interarrival[bucket], n);
                }
                sat(&mut acc.traps.create_stub, a.traps.create_stub);
                sat(&mut acc.traps.entry, a.traps.entry);
                sat(&mut acc.traps.restore, a.traps.restore);
                sat(&mut acc.attributed_cycles, a.attributed_cycles);
                acc.end_cycle = acc.end_cycle.max(a.end_cycle);
            }
        }
        if let Some(mut a) = attr {
            a.regions = regions.into_values().collect();
            a.sites = sites.into_values().collect();
            out.attribution = Some(a);
        }
        out.stages = stages.into_values().collect();
        out.faults =
            faults.into_iter().map(|(kind, count)| FaultCount { kind, count }).collect();
        out.name = names.into_iter().collect::<Vec<_>>().join("+");
        out
    }

    /// Serializes the report to its stable JSON schema.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", int(SCHEMA_VERSION as u64)),
            ("name", Json::Str(self.name.clone())),
        ];
        if self.docs > 0 {
            fields.push(("docs", int(self.docs)));
        }
        // Additive (schema-compatible) field: omitted when zero, so every
        // pre-drop-count document and byte-for-byte golden test still holds.
        if self.trace_drops > 0 {
            fields.push(("trace_drops", int(self.trace_drops)));
        }
        if self.sampler_drops > 0 {
            fields.push(("sampler_drops", int(self.sampler_drops)));
        }
        if let Some(run) = self.run {
            fields.push((
                "run",
                obj(vec![
                    ("status", Json::Int(run.status)),
                    ("instructions", int(run.instructions)),
                    ("cycles", int(run.cycles)),
                    ("output_bytes", int(run.output_bytes)),
                ]),
            ));
        }
        if let Some(rt) = self.runtime {
            fields.push((
                "runtime",
                obj(vec![
                    ("decompressions", int(rt.decompressions)),
                    ("skipped", int(rt.skipped)),
                    ("stub_hits", int(rt.stub_hits)),
                    ("stub_allocs", int(rt.stub_allocs)),
                    ("restores", int(rt.restores)),
                    ("max_live_stubs", int(rt.max_live_stubs as u64)),
                    ("bits_read", int(rt.bits_read)),
                    ("insts_written", int(rt.insts_written)),
                    ("cycles_charged", int(rt.cycles_charged)),
                    ("hits", int(rt.hits)),
                    ("misses", int(rt.misses)),
                    ("evictions", int(rt.evictions)),
                    ("regions_verified", int(rt.regions_verified)),
                    ("checksum_cycles", int(rt.checksum_cycles)),
                ]),
            ));
        }
        if let Some(ic) = self.icache {
            fields.push((
                "icache",
                obj(vec![
                    ("hits", int(ic.hits)),
                    ("misses", int(ic.misses)),
                    ("flushes", int(ic.flushes)),
                    ("miss_ratio", Json::Num(ic.miss_ratio())),
                ]),
            ));
        }
        if !self.stages.is_empty() {
            fields.push((
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("name", Json::Str(s.name.clone())),
                                ("wall_ns", int(s.wall_ns)),
                                ("items", int(s.items)),
                                ("output_bytes", int(s.output_bytes)),
                                ("note", Json::Str(s.note.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.faults.is_empty() {
            fields.push((
                "faults",
                Json::Arr(
                    self.faults
                        .iter()
                        .map(|f| {
                            obj(vec![
                                ("kind", Json::Str(f.kind.clone())),
                                ("count", int(f.count)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(attr) = &self.attribution {
            fields.push(("attribution", attr.to_json()));
            let (attributed, _, untracked) = self.coverage();
            fields.push((
                "coverage",
                obj(vec![
                    ("attributed_cycles", int(attributed)),
                    ("untracked_cycles", int(untracked)),
                ]),
            ));
        }
        obj(fields)
    }

    /// The JSON document as a string (what `--metrics-json` writes).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Reads a report back from its JSON form.
    ///
    /// # Errors
    ///
    /// Fails on an unknown schema version or missing/mistyped fields.
    pub fn from_json(v: &Json) -> Result<Telemetry, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("telemetry: missing \"schema\"")?;
        if schema > SCHEMA_VERSION as u64 {
            return Err(format!(
                "telemetry: schema {schema} is newer than supported ({SCHEMA_VERSION})"
            ));
        }
        let req = |j: &Json, key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("telemetry: missing or bad \"{key}\""))
        };
        let opt = |j: &Json, key: &str| -> u64 { j.get(key).and_then(Json::as_u64).unwrap_or(0) };
        let mut t = Telemetry {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            // Absent in every pre-merge (schema 1) document and in plain
            // single-run documents: both read back as 0.
            docs: v.get("docs").and_then(Json::as_u64).unwrap_or(0),
            // Additive field: absent in old documents, reads as zero.
            trace_drops: v.get("trace_drops").and_then(Json::as_u64).unwrap_or(0),
            sampler_drops: v.get("sampler_drops").and_then(Json::as_u64).unwrap_or(0),
            ..Telemetry::default()
        };
        if let Some(run) = v.get("run") {
            t.run = Some(RunMetrics {
                status: run
                    .get("status")
                    .and_then(Json::as_i64)
                    .ok_or("telemetry: bad \"status\"")?,
                instructions: req(run, "instructions")?,
                cycles: req(run, "cycles")?,
                output_bytes: req(run, "output_bytes")?,
            });
        }
        if let Some(rt) = v.get("runtime") {
            t.runtime = Some(RuntimeStats {
                decompressions: req(rt, "decompressions")?,
                skipped: req(rt, "skipped")?,
                stub_hits: req(rt, "stub_hits")?,
                stub_allocs: req(rt, "stub_allocs")?,
                restores: req(rt, "restores")?,
                max_live_stubs: narrow(req(rt, "max_live_stubs")?, "max_live_stubs")?,
                bits_read: req(rt, "bits_read")?,
                insts_written: req(rt, "insts_written")?,
                cycles_charged: req(rt, "cycles_charged")?,
                hits: req(rt, "hits")?,
                misses: req(rt, "misses")?,
                evictions: req(rt, "evictions")?,
                // Integrity counters postdate the first schema; absent keys
                // read as zero so old documents still parse. Retired keys
                // in old documents are ignored like any unknown key.
                regions_verified: opt(rt, "regions_verified"),
                checksum_cycles: opt(rt, "checksum_cycles"),
            });
        }
        if let Some(ic) = v.get("icache") {
            let mut stats = ICacheStats::default();
            stats.hits = req(ic, "hits")?;
            stats.misses = req(ic, "misses")?;
            stats.flushes = req(ic, "flushes")?;
            t.icache = Some(stats);
        }
        for s in v.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
            t.stages.push(StageRecord {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("telemetry: stage without a name")?
                    .to_string(),
                wall_ns: req(s, "wall_ns")?,
                items: req(s, "items")?,
                output_bytes: req(s, "output_bytes")?,
                note: s
                    .get("note")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        for f in v.get("faults").and_then(Json::as_arr).unwrap_or(&[]) {
            t.faults.push(FaultCount {
                kind: f
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("telemetry: fault without a kind")?
                    .to_string(),
                count: req(f, "count")?,
            });
        }
        if let Some(attr) = v.get("attribution") {
            t.attribution = Some(AttributionReport::from_json(attr)?);
        }
        Ok(t)
    }

    /// Renders the human-readable attribution report (`squashrun --report`):
    /// the per-region table, the top regions by decompression cost, the trap
    /// inter-arrival histogram, and the coverage line.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.trace_drops > 0 {
            let _ = writeln!(
                out,
                "trace ring dropped {} oldest events (trace is a tail, not the whole run)",
                self.trace_drops
            );
        }
        if self.sampler_drops > 0 {
            let _ = writeln!(
                out,
                "sampler dropped {} samples past its buffer (flame data is a prefix, not the whole run)",
                self.sampler_drops
            );
        }
        let Some(attr) = &self.attribution else {
            out.push_str("no attribution data (run with tracing enabled)\n");
            return out;
        };
        let _ = writeln!(out, "Per-region attribution:");
        let _ = writeln!(
            out,
            "{:>7} {:>8} {:>6} {:>6} {:>12} {:>9} {:>9} {:>13} {:>6}",
            "region",
            "decomps",
            "hits",
            "evict",
            "decomp cyc",
            "hit cyc",
            "stub cyc",
            "resident cyc",
            "spans"
        );
        for r in &attr.regions {
            let _ = writeln!(
                out,
                "{:>7} {:>8} {:>6} {:>6} {:>12} {:>9} {:>9} {:>13} {:>6}",
                r.region,
                r.decompressions,
                r.hits,
                r.evictions,
                r.decomp_cycles,
                r.hit_cycles,
                r.stub_cycles,
                r.residency_cycles,
                r.residency_intervals
            );
        }
        let top = attr.top_regions(10);
        if !top.is_empty() {
            let _ = writeln!(out, "\nTop regions by attributed cycles:");
            for (i, r) in top.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{:>3}. region {:<5} {:>12} cycles ({} decompressions)",
                    i + 1,
                    r.region,
                    r.total_cycles(),
                    r.decompressions
                );
            }
        }
        let _ = writeln!(
            out,
            "\nTraps: {} total ({} create_stub, {} entry, {} restore)",
            attr.traps.total(),
            attr.traps.create_stub,
            attr.traps.entry,
            attr.traps.restore
        );
        if !attr.interarrival.is_empty() {
            let _ = writeln!(out, "Trap inter-arrival (cycles between traps):");
            let max = attr.interarrival.iter().copied().max().unwrap_or(1).max(1);
            for (i, &count) in attr.interarrival.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let label = match i {
                    0 => "0".to_string(),
                    i => format!("[2^{}, 2^{})", i - 1, i),
                };
                // Widened to u128: `count * 40` overflows u64 for the huge
                // counters fleet-merged documents can carry. `count <= max`
                // keeps the quotient in 1..=40; `.min(40)` guards forged
                // documents where it does not.
                let width = (count as u128 * 40).div_ceil(max as u128).min(40) as usize;
                let bar = "#".repeat(width);
                let _ = writeln!(out, "{label:>14} {count:>8} {bar}");
            }
        }
        let (attributed, charged, untracked) = self.coverage();
        let pct = if charged == 0 {
            100.0
        } else {
            100.0 * attributed as f64 / charged as f64
        };
        let _ = writeln!(
            out,
            "\nAttribution coverage: {attributed} / {charged} service cycles ({pct:.2}%), \
             untracked: {untracked}"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_values() {
        let v = obj(vec![
            ("a", Json::Int(-3)),
            ("big", Json::Int(i64::MAX)),
            ("f", Json::Num(1.5)),
            ("whole", Json::Num(2.0)),
            ("s", Json::Str("he said \"hi\"\n\ttab".into())),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Int(0)])),
            ("empty", Json::Arr(vec![])),
            ("nested", obj(vec![("x", Json::Int(1))])),
        ]);
        let text = v.to_string();
        let back = json::parse(&text).expect("parse");
        assert_eq!(back, v, "document: {text}");
        // Int/Num distinction survives: whole-valued floats stay Num.
        assert_eq!(back.get("whole"), Some(&Json::Num(2.0)));
        assert_eq!(back.get("big").and_then(Json::as_i64), Some(i64::MAX));
    }

    #[test]
    fn json_parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "truu", "1 2", "\"unterminated"] {
            assert!(json::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(json::parse(" {\"k\": [1, 2.5, null]} ").is_ok());
    }

    #[test]
    fn bucket_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
    }

    /// Replay a synthetic event stream and check the tables, bracketing
    /// deltas, residency accounting and histogram.
    #[test]
    fn attribution_folds_a_scripted_stream() {
        let mut a = Attribution::new();
        let trap = |kind| TraceEvent::ServiceTrap { kind, pc: 0x8000, ra: 0 };
        // Trap at 100, region 2 decompressed by 1300 (charge 1200).
        a.emit(100, &trap(TrapKind::Entry));
        a.emit(100, &TraceEvent::DecompressStart { region: 2 });
        a.emit(100, &TraceEvent::ICacheFlush);
        a.emit(
            1300,
            &TraceEvent::DecompressEnd { region: 2, bits: 10, insts: 4, slot: 0, evicted: None },
        );
        // Trap at 2000 (inter-arrival 1900 → bucket 11), hit on region 2.
        a.emit(2000, &trap(TrapKind::Entry));
        a.emit(2050, &TraceEvent::CacheHit { region: 2, slot: 0 });
        // CreateStub trap at 3000 from region 2 (site tag 2<<16|8).
        a.emit(3000, &trap(TrapKind::CreateStub));
        a.emit(3030, &TraceEvent::StubCreate { site: (2 << 16) | 8, live: 1 });
        // Restore trap at 4000: stub freed, region 5 replaces region 2.
        a.emit(4000, &trap(TrapKind::Restore));
        a.emit(4000, &TraceEvent::StubFree { site: (2 << 16) | 8, live: 0 });
        a.emit(
            5000,
            &TraceEvent::DecompressEnd {
                region: 5,
                bits: 9,
                insts: 3,
                slot: 0,
                evicted: Some(2),
            },
        );
        let report = a.finish(6000);

        assert_eq!(report.traps.total(), 4);
        assert_eq!(
            (report.traps.entry, report.traps.create_stub, report.traps.restore),
            (2, 1, 1)
        );
        assert_eq!(report.attributed_cycles, 1200 + 50 + 30 + 1000);

        let r2 = report.regions.iter().find(|r| r.region == 2).unwrap();
        assert_eq!(r2.decompressions, 1);
        assert_eq!(r2.hits, 1);
        assert_eq!(r2.evictions, 1);
        assert_eq!(r2.decomp_cycles, 1200);
        assert_eq!(r2.hit_cycles, 50);
        assert_eq!(r2.stub_cycles, 30, "stub charge flows to the owning region");
        assert_eq!(r2.residency_cycles, 5000 - 1300, "resident from end to eviction");
        assert_eq!(r2.residency_intervals, 1);

        let r5 = report.regions.iter().find(|r| r.region == 5).unwrap();
        assert_eq!(r5.residency_cycles, 6000 - 5000, "open interval closed by finish");
        assert_eq!(r5.residency_intervals, 1);

        assert_eq!(report.sites.len(), 1);
        let site = &report.sites[0];
        assert_eq!(site.region(), 2);
        assert_eq!((site.creates, site.reuses, site.frees, site.cycles), (1, 0, 1, 30));

        // Histogram: deltas 1900, 1000, 1000 → buckets 11, 10, 10.
        assert_eq!(report.interarrival[11], 1);
        assert_eq!(report.interarrival[10], 2);
        assert_eq!(report.interarrival.iter().sum::<u64>(), 3);
    }

    #[test]
    fn telemetry_json_round_trips() {
        let runtime = RuntimeStats {
            decompressions: 7,
            cycles_charged: 12345,
            hits: 3,
            misses: 7,
            regions_verified: 7,
            checksum_cycles: 640,
            ..RuntimeStats::default()
        };
        // ICacheStats is #[non_exhaustive] in another crate, so it cannot be
        // built with a struct literal here — assign fields instead.
        #[allow(clippy::field_reassign_with_default)]
        let icache = {
            let mut s = ICacheStats::default();
            s.hits = 900;
            s.misses = 100;
            s.flushes = 7;
            s
        };
        let mut attribution = Attribution::new();
        attribution.emit(
            10,
            &TraceEvent::ServiceTrap { kind: TrapKind::Entry, pc: 0x8000, ra: 0 },
        );
        attribution.emit(
            500,
            &TraceEvent::DecompressEnd { region: 1, bits: 80, insts: 9, slot: 0, evicted: None },
        );
        let t = Telemetry {
            name: "adpcm".into(),
            run: Some(RunMetrics {
                status: 0,
                instructions: 1_000_000,
                cycles: 1_234_567,
                output_bytes: 42,
            }),
            runtime: Some(runtime),
            icache: Some(icache),
            stages: vec![StageRecord {
                name: "encode".into(),
                wall_ns: 1_500_000,
                items: 12,
                output_bytes: 4096,
                note: "regions / blob bytes".into(),
            }],
            attribution: Some(attribution.finish(600)),
            faults: vec![
                FaultCount { kind: "region_checksum".into(), count: 2 },
                FaultCount { kind: "truncated_stream".into(), count: 1 },
            ],
            docs: 0,
            trace_drops: 0,
            sampler_drops: 0,
        };
        let text = t.to_json_string();
        let back = Telemetry::from_json(&json::parse(&text).expect("parse")).expect("from_json");
        assert_eq!(back, t, "document: {text}");
        // Spot-check stable schema keys.
        for key in [
            "\"schema\":2",
            "\"cycles_charged\":12345",
            "\"miss_ratio\":0.1",
            "\"wall_ns\":1500000",
            "\"attributed_cycles\":490",
            "\"regions_verified\"",
            "\"checksum_cycles\"",
            "\"kind\":\"region_checksum\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn runtime_integrity_counters_default_to_zero_in_old_documents() {
        // A schema-1 document written before the integrity counters existed
        // must still parse, with the new counters reading as zero.
        let doc = "{\"schema\":1,\"name\":\"old\",\"runtime\":{\
                   \"decompressions\":1,\"skipped\":0,\"stub_hits\":0,\
                   \"stub_allocs\":0,\"restores\":0,\"max_live_stubs\":0,\
                   \"bits_read\":8,\"insts_written\":1,\"cycles_charged\":9,\
                   \"hits\":0,\"misses\":1,\"evictions\":0}}";
        let t = Telemetry::from_json(&json::parse(doc).unwrap()).unwrap();
        let rt = t.runtime.unwrap();
        assert_eq!(rt.regions_verified, 0);
        assert_eq!(rt.checksum_cycles, 0);
        assert!(t.faults.is_empty());
        // Documents written while the runtime had a reference-decoder
        // fallback carry a retired `ref_fallbacks` counter: ignored, not an
        // error, and not written back.
        let doc = doc.replace("\"evictions\":0", "\"evictions\":0,\"ref_fallbacks\":3");
        let t = Telemetry::from_json(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(t.runtime.unwrap().cycles_charged, 9);
        assert!(!t.to_json_string().contains("ref_fallbacks"));
    }

    /// Narrowed fields (`region: u16`, `site: u32`, `max_live_stubs: usize`)
    /// must reject out-of-range values with a typed error, never truncate —
    /// a forged region id that wrapped would alias another region's counters
    /// once retune indexes by it.
    #[test]
    fn out_of_range_narrow_fields_are_rejected() {
        let attr_doc = |region: u64, site: u64| {
            format!(
                "{{\"schema\":2,\"name\":\"x\",\"attribution\":{{\"regions\":[{{\
                 \"region\":{region},\"decompressions\":1,\"hits\":0,\"evictions\":0,\
                 \"decomp_cycles\":1,\"hit_cycles\":0,\"stub_cycles\":0,\
                 \"residency_cycles\":0,\"residency_intervals\":0}}],\"sites\":[{{\
                 \"site\":{site},\"creates\":1,\"reuses\":0,\"frees\":0,\"cycles\":1}}],\
                 \"attributed_cycles\":1,\"end_cycle\":1}}}}"
            )
        };
        // In range on both axes: parses.
        let ok = Telemetry::from_json(&json::parse(&attr_doc(65535, 4294967295)).unwrap());
        assert!(ok.is_ok(), "{ok:?}");
        // One past each bound: typed errors naming the field.
        let err = Telemetry::from_json(&json::parse(&attr_doc(65536, 0)).unwrap()).unwrap_err();
        assert!(err.contains("\"region\" out of range"), "{err}");
        let err =
            Telemetry::from_json(&json::parse(&attr_doc(0, 4294967296)).unwrap()).unwrap_err();
        assert!(err.contains("\"site\" out of range"), "{err}");
        // max_live_stubs > usize::MAX cannot be represented on 64-bit hosts,
        // but the checked path is the same helper; prove it is wired by
        // round-tripping a legitimate value through it.
        let doc = "{\"schema\":2,\"name\":\"x\",\"runtime\":{\
                   \"decompressions\":0,\"skipped\":0,\"stub_hits\":0,\
                   \"stub_allocs\":0,\"restores\":0,\"max_live_stubs\":77,\
                   \"bits_read\":0,\"insts_written\":0,\"cycles_charged\":0,\
                   \"hits\":0,\"misses\":0,\"evictions\":0}}";
        let t = Telemetry::from_json(&json::parse(doc).unwrap()).unwrap();
        assert_eq!(t.runtime.unwrap().max_live_stubs, 77);
    }

    /// Near-`u64::MAX` histogram counters (a long fleet-merged run) must
    /// render without overflowing the `count * 40` bar arithmetic.
    #[test]
    fn report_histogram_survives_huge_counters() {
        let t = Telemetry {
            name: "fleet".into(),
            runtime: Some(RuntimeStats::default()),
            attribution: Some(AttributionReport {
                interarrival: vec![u64::MAX - 1, u64::MAX, 1],
                ..AttributionReport::default()
            }),
            ..Telemetry::default()
        };
        let rendered = t.report();
        let bars: Vec<&str> = rendered
            .lines()
            .filter(|l| l.trim_start().starts_with('[') || l.trim_start().starts_with("0 "))
            .collect();
        assert!(rendered.contains(&"#".repeat(40)), "full bucket renders 40 marks:\n{rendered}");
        for line in bars {
            let width = line.chars().filter(|&c| c == '#').count();
            assert!((1..=40).contains(&width), "bar width {width} out of range: {line}");
        }
    }

    #[test]
    fn merge_sums_counters_and_is_commutative() {
        let mk = |name: &str, cycles: u64, region: u16, status: i64| {
            let mut attribution = Attribution::new();
            attribution.emit(
                0,
                &TraceEvent::ServiceTrap { kind: TrapKind::Entry, pc: 0, ra: 0 },
            );
            attribution.emit(
                cycles,
                &TraceEvent::DecompressEnd { region, bits: 8, insts: 2, slot: 0, evicted: None },
            );
            Telemetry {
                name: name.into(),
                run: Some(RunMetrics {
                    status,
                    instructions: 100,
                    cycles,
                    output_bytes: 3,
                }),
                runtime: Some(RuntimeStats {
                    decompressions: 1,
                    cycles_charged: cycles,
                    max_live_stubs: (cycles / 100) as usize % 10,
                    ..RuntimeStats::default()
                }),
                stages: vec![StageRecord {
                    name: "encode".into(),
                    wall_ns: 10,
                    items: 2,
                    output_bytes: 64,
                    note: "regions".into(),
                }],
                faults: vec![FaultCount { kind: "region_checksum".into(), count: 1 }],
                attribution: Some(attribution.finish(cycles)),
                ..Telemetry::default()
            }
        };
        let a = mk("a", 500, 1, 0);
        let b = mk("b", 700, 1, 3);
        let c = mk("c", 900, 4, -1);
        let ab_c = Telemetry::merge(&[a.clone(), b.clone(), c.clone()]);
        let c_ba = Telemetry::merge(&[c, b, a]);
        assert_eq!(ab_c, c_ba, "merge must be order-independent");
        assert_eq!(ab_c.docs, 3);
        assert_eq!(ab_c.name, "a+b+c");
        let run = ab_c.run.unwrap();
        assert_eq!(run.cycles, 500 + 700 + 900);
        assert_eq!(run.status, 3, "worst status wins");
        let rt = ab_c.runtime.unwrap();
        assert_eq!(rt.decompressions, 3);
        assert_eq!(rt.max_live_stubs, 9, "high-water mark takes the max");
        let attr = ab_c.attribution.as_ref().unwrap();
        assert_eq!(attr.regions.len(), 2, "rows merged by region index");
        let r1 = attr.regions.iter().find(|r| r.region == 1).unwrap();
        assert_eq!(r1.decompressions, 2);
        assert_eq!(r1.decomp_cycles, 500 + 700);
        assert_eq!(attr.end_cycle, 900, "end_cycle is a high-water mark");
        assert_eq!(ab_c.stages.len(), 1);
        assert_eq!(ab_c.stages[0].items, 6);
        assert_eq!(ab_c.faults, vec![FaultCount { kind: "region_checksum".into(), count: 3 }]);
        // A merged document round-trips its own JSON, docs count included.
        let text = ab_c.to_json_string();
        assert!(text.contains("\"docs\":3"), "{text}");
        let back = Telemetry::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ab_c);
        // Merging a merged document preserves the evidence count.
        let again = Telemetry::merge(&[ab_c, mk("d", 10, 0, 0)]);
        assert_eq!(again.docs, 4);
    }

    #[test]
    fn trace_drops_field_is_additive() {
        // Old documents (no trace_drops) parse as zero, a zero count is
        // omitted on write (so pre-PR9 golden docs stay byte-identical),
        // and a nonzero count round-trips, merges, and shows in the report.
        let old = json::parse("{\"schema\":2,\"name\":\"x\"}").unwrap();
        assert_eq!(Telemetry::from_json(&old).unwrap().trace_drops, 0);
        let zero = Telemetry { name: "x".into(), ..Telemetry::default() };
        assert!(!zero.to_json_string().contains("trace_drops"));
        let some = Telemetry { trace_drops: 7, ..zero.clone() };
        let text = some.to_json_string();
        assert!(text.contains("\"trace_drops\":7"), "{text}");
        let round = Telemetry::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(round.trace_drops, 7);
        let merged = Telemetry::merge(&[some.clone(), some]);
        assert_eq!(merged.trace_drops, 14);
        let report = merged.report();
        assert!(report.contains("trace ring dropped 14"), "{report}");
        assert!(!zero.report().contains("trace ring"), "zero drops must stay quiet");
    }

    #[test]
    fn sampler_drops_field_is_additive() {
        // Same contract as trace_drops: absent parses as zero, zero writes
        // as absent (old golden documents stay byte-identical), nonzero
        // round-trips, merges by saturating sum, and shows in the report.
        let old = json::parse("{\"schema\":2,\"name\":\"x\"}").unwrap();
        assert_eq!(Telemetry::from_json(&old).unwrap().sampler_drops, 0);
        let zero = Telemetry { name: "x".into(), ..Telemetry::default() };
        assert!(!zero.to_json_string().contains("sampler_drops"));
        let some = Telemetry { sampler_drops: 5, ..zero.clone() };
        let text = some.to_json_string();
        assert!(text.contains("\"sampler_drops\":5"), "{text}");
        let round = Telemetry::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(round.sampler_drops, 5);
        let merged = Telemetry::merge(&[some.clone(), some, Telemetry { sampler_drops: u64::MAX, ..Telemetry::default() }]);
        assert_eq!(merged.sampler_drops, u64::MAX, "merge saturates, never wraps");
        assert!(merged.report().contains("sampler dropped"), "{}", merged.report());
        assert!(!zero.report().contains("sampler dropped"), "zero drops must stay quiet");
    }

    #[test]
    fn newer_schema_is_rejected() {
        let doc = format!("{{\"schema\":{},\"name\":\"x\"}}", SCHEMA_VERSION + 1);
        let v = json::parse(&doc).unwrap();
        assert!(Telemetry::from_json(&v).is_err());
    }

    #[test]
    fn coverage_reports_untracked_remainder() {
        let runtime = RuntimeStats { cycles_charged: 1000, ..RuntimeStats::default() };
        let mut attribution = Attribution::new();
        attribution.emit(
            0,
            &TraceEvent::ServiceTrap { kind: TrapKind::Entry, pc: 0, ra: 0 },
        );
        attribution.emit(
            990,
            &TraceEvent::DecompressEnd { region: 0, bits: 1, insts: 1, slot: 0, evicted: None },
        );
        let t = Telemetry {
            name: String::new(),
            runtime: Some(runtime),
            attribution: Some(attribution.finish(990)),
            ..Telemetry::default()
        };
        assert_eq!(t.coverage(), (990, 1000, 10));
        let rendered = t.report();
        assert!(rendered.contains("untracked: 10"), "{rendered}");
        assert!(rendered.contains("99.00%"), "{rendered}");
    }

    #[test]
    fn observers_fan_out_to_ring_and_attribution() {
        let mut observers =
            Observers { ring: Some(JsonlRing::unbounded()), ..Observers::default() };
        observers.emit(5, &TraceEvent::DecompressStart { region: 1 });
        observers.emit(
            90,
            &TraceEvent::DecompressEnd { region: 1, bits: 2, insts: 1, slot: 0, evicted: None },
        );
        assert_eq!(observers.ring.as_ref().map(JsonlRing::len), Some(2));
        let report = observers.attribution.finish(100);
        assert_eq!(report.regions.len(), 1);
        assert_eq!(report.regions[0].decompressions, 1);
    }
}
