//! Event tracing for services and the machine (the `squash-telemetry`
//! layer's foundation).
//!
//! A [`TraceSink`] receives typed [`TraceEvent`]s stamped with the simulated
//! cycle counter at the moment of emission. Emitters hold an optional sink
//! and skip everything when none is attached, so disabled tracing is a
//! no-op: events never charge cycles,
//! and the simulated cycle counts are byte-for-byte identical with and
//! without a sink (asserted by `tests/differential.rs` in the workspace
//! root).
//!
//! The events describe the runtime decompressor's externally visible work —
//! traps, decompressions, cache hits, stub churn, instruction-cache flushes
//! — which is exactly the signal per-region attribution and cold-code
//! placement studies need. Each event renders to one JSON line (JSONL) with
//! a stable schema; see `DESIGN.md` §12.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Why the decompressor service was entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrapKind {
    /// A call is leaving compressed code: find-or-create its restore stub.
    CreateStub,
    /// An entry stub requested decompression of its region.
    Entry,
    /// A restore stub fired: decrement its count and re-decompress.
    Restore,
}

impl TrapKind {
    /// The stable schema name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            TrapKind::CreateStub => "create_stub",
            TrapKind::Entry => "entry",
            TrapKind::Restore => "restore",
        }
    }
}

/// One traced runtime event. Call sites (`site`) are tag words:
/// `(region << 16) | return_offset`, the same encoding restore stubs store
/// in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// The service was entered; `ra` is the return-address register's value.
    ServiceTrap {
        /// Why the service was entered.
        kind: TrapKind,
        /// The trap-window address that was executed.
        pc: u32,
        /// The return address the trap carried.
        ra: u32,
    },
    /// A region decompression is starting.
    DecompressStart {
        /// The region being decompressed.
        region: u16,
    },
    /// A region decompression finished (emitted after its cycles are
    /// charged, so `end.cycle - trap.cycle` is the full service charge).
    DecompressEnd {
        /// The region decompressed.
        region: u16,
        /// Compressed bits consumed.
        bits: u64,
        /// Instructions written into the buffer.
        insts: u64,
        /// The cache slot the region landed in.
        slot: usize,
        /// The region evicted to make room, if any.
        evicted: Option<u16>,
    },
    /// A region request was satisfied by a resident cache slot.
    CacheHit {
        /// The resident region.
        region: u16,
        /// The slot it occupies.
        slot: usize,
    },
    /// `CreateStub` allocated a new restore stub.
    StubCreate {
        /// The call site's tag word.
        site: u32,
        /// Restore stubs live after the allocation.
        live: usize,
    },
    /// `CreateStub` reused an existing stub (bumped its usage count).
    StubHit {
        /// The call site's tag word.
        site: u32,
        /// Restore stubs live (unchanged by the reuse).
        live: usize,
    },
    /// A restore stub's usage count reached zero and it was freed.
    StubFree {
        /// The freed stub's call-site tag word.
        site: u32,
        /// Restore stubs live after the free.
        live: usize,
    },
    /// The instruction cache was invalidated (post-fill flush).
    ICacheFlush,
    /// A compressed region's payload checksum verification is starting
    /// (emitted before the verification cycles are charged).
    VerifyStart {
        /// The region being verified.
        region: u16,
    },
    /// A payload checksum verification passed (emitted after its cycles are
    /// charged, so `end.cycle - start.cycle` is the full verification
    /// charge). A failed verification faults instead of emitting this.
    VerifyEnd {
        /// The region verified.
        region: u16,
        /// Compressed bytes covered by the checksum.
        bytes: u64,
    },
}

impl TraceEvent {
    /// The stable schema name of this event (`"decompress_end"`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ServiceTrap { .. } => "service_trap",
            TraceEvent::DecompressStart { .. } => "decompress_start",
            TraceEvent::DecompressEnd { .. } => "decompress_end",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::StubCreate { .. } => "stub_create",
            TraceEvent::StubHit { .. } => "stub_hit",
            TraceEvent::StubFree { .. } => "stub_free",
            TraceEvent::ICacheFlush => "icache_flush",
            TraceEvent::VerifyStart { .. } => "verify_start",
            TraceEvent::VerifyEnd { .. } => "verify_end",
        }
    }

    /// Renders the event as one JSON line (no trailing newline). Every
    /// field is a number except `kind`; nothing needs escaping.
    pub fn to_jsonl(&self, cycle: u64) -> String {
        let mut s = format!("{{\"cycle\":{cycle},\"kind\":\"{}\"", self.kind());
        match *self {
            TraceEvent::ServiceTrap { kind, pc, ra } => {
                let _ = write!(s, ",\"trap\":\"{}\",\"pc\":{pc},\"ra\":{ra}", kind.name());
            }
            TraceEvent::DecompressStart { region } => {
                let _ = write!(s, ",\"region\":{region}");
            }
            TraceEvent::DecompressEnd { region, bits, insts, slot, evicted } => {
                let _ = write!(
                    s,
                    ",\"region\":{region},\"bits\":{bits},\"insts\":{insts},\"slot\":{slot}"
                );
                match evicted {
                    Some(e) => {
                        let _ = write!(s, ",\"evicted\":{e}");
                    }
                    None => s.push_str(",\"evicted\":null"),
                }
            }
            TraceEvent::CacheHit { region, slot } => {
                let _ = write!(s, ",\"region\":{region},\"slot\":{slot}");
            }
            TraceEvent::StubCreate { site, live }
            | TraceEvent::StubHit { site, live }
            | TraceEvent::StubFree { site, live } => {
                let _ = write!(s, ",\"site\":{site},\"live\":{live}");
            }
            TraceEvent::ICacheFlush => {}
            TraceEvent::VerifyStart { region } => {
                let _ = write!(s, ",\"region\":{region}");
            }
            TraceEvent::VerifyEnd { region, bytes } => {
                let _ = write!(s, ",\"region\":{region},\"bytes\":{bytes}");
            }
        }
        s.push('}');
        s
    }
}

/// Receives cycle-stamped trace events.
///
/// Implementations must not touch the machine: tracing observes, never
/// charges. The zero-overhead guarantee (identical simulated cycles with and
/// without a sink) holds because emitters only read state when a sink is
/// attached and the sink has no way to write any back.
pub trait TraceSink {
    /// Called once per event, stamped with the simulated cycle counter at
    /// the moment of emission. Events arrive in emission order, so `cycle`
    /// is non-decreasing across calls.
    fn emit(&mut self, cycle: u64, event: &TraceEvent);
}

/// A ring buffer of rendered JSONL trace lines.
///
/// With a capacity, the ring keeps the **last** `capacity` lines and counts
/// the rest in [`JsonlRing::dropped`] — bounded memory for arbitrarily long
/// runs, holding the tail that usually matters. Unbounded keeps everything.
#[derive(Debug, Clone, Default)]
pub struct JsonlRing {
    lines: VecDeque<String>,
    capacity: Option<usize>,
    dropped: u64,
}

impl JsonlRing {
    /// A ring that keeps every line.
    pub fn unbounded() -> JsonlRing {
        JsonlRing::default()
    }

    /// A ring that keeps only the last `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (an always-empty ring is a bug).
    pub fn last(capacity: usize) -> JsonlRing {
        assert!(capacity > 0, "ring capacity must be positive");
        JsonlRing {
            lines: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// The buffered lines, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.lines.iter().map(String::as_str)
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Lines evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every buffered line, newline-terminated, to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for line in &self.lines {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }
}

impl TraceSink for JsonlRing {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        if let Some(cap) = self.capacity {
            if self.lines.len() == cap {
                self.lines.pop_front();
                self.dropped += 1;
            }
        }
        self.lines.push_back(event.to_jsonl(cycle));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_stable_jsonl() {
        let cases: Vec<(TraceEvent, &str)> = vec![
            (
                TraceEvent::ServiceTrap { kind: TrapKind::Entry, pc: 0x8004, ra: 0x2000 },
                r#"{"cycle":7,"kind":"service_trap","trap":"entry","pc":32772,"ra":8192}"#,
            ),
            (
                TraceEvent::DecompressStart { region: 3 },
                r#"{"cycle":7,"kind":"decompress_start","region":3}"#,
            ),
            (
                TraceEvent::DecompressEnd {
                    region: 3,
                    bits: 999,
                    insts: 41,
                    slot: 1,
                    evicted: Some(2),
                },
                r#"{"cycle":7,"kind":"decompress_end","region":3,"bits":999,"insts":41,"slot":1,"evicted":2}"#,
            ),
            (
                TraceEvent::DecompressEnd {
                    region: 0,
                    bits: 1,
                    insts: 1,
                    slot: 0,
                    evicted: None,
                },
                r#"{"cycle":7,"kind":"decompress_end","region":0,"bits":1,"insts":1,"slot":0,"evicted":null}"#,
            ),
            (
                TraceEvent::CacheHit { region: 5, slot: 2 },
                r#"{"cycle":7,"kind":"cache_hit","region":5,"slot":2}"#,
            ),
            (
                TraceEvent::StubCreate { site: 0x0003_0010, live: 2 },
                r#"{"cycle":7,"kind":"stub_create","site":196624,"live":2}"#,
            ),
            (
                TraceEvent::StubHit { site: 16, live: 2 },
                r#"{"cycle":7,"kind":"stub_hit","site":16,"live":2}"#,
            ),
            (
                TraceEvent::StubFree { site: 16, live: 1 },
                r#"{"cycle":7,"kind":"stub_free","site":16,"live":1}"#,
            ),
            (TraceEvent::ICacheFlush, r#"{"cycle":7,"kind":"icache_flush"}"#),
            (
                TraceEvent::VerifyStart { region: 4 },
                r#"{"cycle":7,"kind":"verify_start","region":4}"#,
            ),
            (
                TraceEvent::VerifyEnd { region: 4, bytes: 120 },
                r#"{"cycle":7,"kind":"verify_end","region":4,"bytes":120}"#,
            ),
        ];
        for (event, expect) in cases {
            assert_eq!(event.to_jsonl(7), expect);
        }
    }

    #[test]
    fn bounded_ring_keeps_the_tail() {
        let mut ring = JsonlRing::last(2);
        for cycle in 0..5 {
            ring.emit(cycle, &TraceEvent::ICacheFlush);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let lines: Vec<&str> = ring.lines().collect();
        assert!(lines[0].contains("\"cycle\":3"), "{lines:?}");
        assert!(lines[1].contains("\"cycle\":4"), "{lines:?}");
    }

    #[test]
    fn unbounded_ring_keeps_everything() {
        let mut ring = JsonlRing::unbounded();
        assert!(ring.is_empty());
        for cycle in 0..100 {
            ring.emit(cycle, &TraceEvent::DecompressStart { region: 1 });
        }
        assert_eq!(ring.len(), 100);
        assert_eq!(ring.dropped(), 0);
        let mut out = Vec::new();
        ring.write_to(&mut out).unwrap();
        assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), 100);
    }
}
