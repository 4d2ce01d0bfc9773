//! On-disk format for squashed programs (`.sqsh`).
//!
//! The paper's `squash` writes a transformed *executable*; this module is
//! our equivalent: everything [`crate::pipeline::run_squashed`] needs —
//! memory segments, entry point, and the runtime decompressor's
//! configuration (bases, offset table, compressed blob, serialized
//! canonical-Huffman tables) — in one self-contained byte stream, written by
//! `squashc --emit` and executed by `squashrun`.
//!
//! # `SQSH0003` — the integrity-checked format
//!
//! Version 3 wraps the payload in a checksummed sectioned envelope
//! (all integers little-endian, checksums CRC32C — see
//! [`crate::integrity`] and `DESIGN.md` §13):
//!
//! ```text
//! "SQSH0003"                        magic + version        (8 bytes)
//! u32 file_len                      total file length
//! u32 nsections                     5, or 6 with provenance
//! { u32 len, u32 crc }×nsections    section directory:
//!                                   meta, model, blob, offsets, region_crcs
//!                                   [, provenance]
//! u32 header_crc                    CRC32C of bytes [0, 16 + 8·nsections)
//! ...sections, back to back...
//! ```
//!
//! Section contents:
//!
//! ```text
//! meta:        u32 entry
//!              u32 nsegments { u32 base, u32 len, bytes }*
//!              u32×9  decomp_base, decomp_bytes, buffer_base, buffer_bytes,
//!                     cache_slots, stub_base, stub_slots,
//!                     offset_table_addr, regions
//!              u64×6  cost model (per_bit, per_inst, per_call, create_stub,
//!                     cache_hit, per_check_byte)
//!              u8     skip_if_current
//!              u32×9  footprint fields
//!              u32    baseline_bytes
//! model:       StreamModel::serialize bytes
//! blob:        the compressed code blob
//! offsets:     u32 count { u64 bit_offset }*
//! region_crcs: u32 count { u32 crc }*    (per-region payload checksums)
//! provenance:  [`Provenance`] bytes      (optional sixth section: which
//!                                        profile/telemetry tuned the image)
//! ```
//!
//! Images without provenance (every static-profile squash) keep the
//! five-section layout byte for byte, so adding the section changed nothing
//! about existing images; retuned images append it under the same CRC
//! discipline as every other section (verified eagerly at load — it is a
//! few dozen bytes).
//!
//! The loader verifies the header checksum and the `meta`, `model`,
//! `offsets` and `region_crcs` section checksums before trusting a byte of
//! them. The `blob` section checksum is stored but **not** verified at load
//! by default: compressed regions are verified lazily, one region at a
//! time, at trap time ([`crate::runtime`]), so a cold region that is never
//! executed is never checksummed — the same laziness that makes the paper's
//! scheme cheap. [`read_strict`] verifies the blob section eagerly too.
//!
//! Every load failure is a typed [`MachineCheck`] (bad magic, truncation,
//! forged lengths, checksum mismatches, corrupt code tables) carried inside
//! the returned [`SquashError`], never a panic. `SQSH0003` is the only
//! format: any other magic, including the retired checksum-free `SQSH0002`,
//! is a [`FaultKind::BadMagic`] fault.

use squash_compress::StreamModel;

use crate::footprint::Footprint;
use crate::integrity::crc32c;
use crate::layout::{Squashed, SquashStats};
use crate::runtime::RuntimeConfig;
use crate::{CostModel, FaultKind, MachineCheck, SquashError};

const MAGIC_V3: &[u8; 8] = b"SQSH0003";

/// Section order in a `SQSH0003` directory. The first [`BASE_SECTIONS`] are
/// always present; `provenance` is optional and, when present, last.
const SECTION_NAMES: [&str; 6] = ["meta", "model", "blob", "offsets", "region_crcs", "provenance"];
/// Sections every v3 image carries.
const BASE_SECTIONS: usize = 5;
/// Byte length of a v3 header with `nsections` directory entries: magic +
/// file_len + nsections + directory. The u32 header checksum follows,
/// covering exactly these bytes.
const fn header_len(nsections: usize) -> usize {
    8 + 4 + 4 + nsections * 8
}

/// Upper bound on the segment count — a sanity cap, far above anything the
/// pipeline emits, protecting the loader from forged counts.
const MAX_SEGMENTS: usize = 64;
/// Upper bound on `cache_slots` (mirrors the squashc CLI limit).
const MAX_CACHE_SLOTS: usize = 1 << 10;

/// A typed loader fault: a [`SquashError`] carrying a [`MachineCheck`] with
/// no location fields (load-time faults have no pc/cycle).
fn fault(kind: FaultKind, detail: impl Into<String>) -> SquashError {
    SquashError::from(MachineCheck::new(kind, detail.into()))
}

/// The format version of a `.sqsh` byte stream, sniffed from the magic:
/// `Some(3)`, or `None` for anything unrecognized.
pub fn version(bytes: &[u8]) -> Option<u32> {
    bytes.starts_with(MAGIC_V3).then_some(3)
}

/// Layout version of the serialized `provenance` section.
const PROVENANCE_VERSION: u32 = 1;

/// How an image was tuned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenanceKind {
    /// Tuned from the static profile alone (no runtime feedback).
    Static,
    /// Re-tuned from measured runtime telemetry (`squashc --retune`).
    Retuned,
}

/// The provenance record of a tuned image: which profile and how much
/// telemetry evidence produced it, and what the tuner decided. Stored as
/// the optional sixth section of a SQSH0003 image and surfaced by
/// `squashrun --report` / `--stats`, so a fleet operator can always answer
/// "which profile is this image running on?" from the image alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// What produced the image.
    pub kind: ProvenanceKind,
    /// CRC-32C of the serialized [`crate::BlockProfile`] the compressor ran
    /// on (the *original* profile, before the jump-table transformation).
    pub profile_crc: u32,
    /// Run documents merged into the telemetry that drove the retune
    /// (≥ 1 for retuned images, 0 for static ones).
    pub telemetry_docs: u32,
    /// `name` of the (merged) telemetry document, or empty.
    pub source: String,
    /// Measured cycles of the run(s) the telemetry describes.
    pub measured_cycles: u64,
    /// The tuner's cost-model prediction for this image on those runs.
    pub predicted_cycles: u64,
    /// The cold threshold θ the image was built with.
    pub theta: f64,
    /// The region size bound K the image was built with.
    pub buffer_limit: u32,
    /// Baseline regions demoted out of the compressed set as hot-in-practice.
    pub demoted_regions: u32,
    /// Candidate images the tuner scored.
    pub candidates: u32,
    /// Index of the winning candidate (0 = the static configuration).
    pub winner: u32,
}

impl Provenance {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&PROVENANCE_VERSION.to_le_bytes());
        out.push(match self.kind {
            ProvenanceKind::Static => 0,
            ProvenanceKind::Retuned => 1,
        });
        out.extend_from_slice(&self.profile_crc.to_le_bytes());
        out.extend_from_slice(&self.telemetry_docs.to_le_bytes());
        out.extend_from_slice(&self.measured_cycles.to_le_bytes());
        out.extend_from_slice(&self.predicted_cycles.to_le_bytes());
        out.extend_from_slice(&self.theta.to_bits().to_le_bytes());
        out.extend_from_slice(&self.buffer_limit.to_le_bytes());
        out.extend_from_slice(&self.demoted_regions.to_le_bytes());
        out.extend_from_slice(&self.candidates.to_le_bytes());
        out.extend_from_slice(&self.winner.to_le_bytes());
        out.extend_from_slice(&(self.source.len() as u32).to_le_bytes());
        out.extend_from_slice(self.source.as_bytes());
        out
    }

    fn parse(bytes: &[u8]) -> Result<Provenance, SquashError> {
        let mut r = Reader::new(bytes, "provenance section");
        let version = r.u32()?;
        if version != PROVENANCE_VERSION {
            return Err(fault(
                FaultKind::Truncated,
                format!("unsupported provenance version {version} (expected {PROVENANCE_VERSION})"),
            ));
        }
        let kind = match r.u8()? {
            0 => ProvenanceKind::Static,
            1 => ProvenanceKind::Retuned,
            k => {
                return Err(fault(
                    FaultKind::Truncated,
                    format!("unknown provenance kind {k}"),
                ))
            }
        };
        let profile_crc = r.u32()?;
        let telemetry_docs = r.u32()?;
        let measured_cycles = r.u64()?;
        let predicted_cycles = r.u64()?;
        let theta = f64::from_bits(r.u64()?);
        if !theta.is_finite() {
            return Err(fault(
                FaultKind::Truncated,
                format!("provenance θ is not finite ({theta})"),
            ));
        }
        let buffer_limit = r.u32()?;
        let demoted_regions = r.u32()?;
        let candidates = r.u32()?;
        let winner = r.u32()?;
        let source_len = r.u32()? as usize;
        let source = std::str::from_utf8(r.take(source_len)?)
            .map_err(|_| fault(FaultKind::Truncated, "provenance source is not UTF-8"))?
            .to_string();
        r.done()?;
        Ok(Provenance {
            kind,
            profile_crc,
            telemetry_docs,
            source,
            measured_cycles,
            predicted_cycles,
            theta,
            buffer_limit,
            demoted_regions,
            candidates,
            winner,
        })
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ProvenanceKind::Static => {
                writeln!(f, "provenance: static profile (crc32c {:#010x})", self.profile_crc)?;
            }
            ProvenanceKind::Retuned => {
                writeln!(f, "provenance: retuned from measured telemetry")?;
                writeln!(
                    f,
                    "  profile:    crc32c {:#010x}",
                    self.profile_crc
                )?;
                writeln!(
                    f,
                    "  telemetry:  {} ({} document{}, {} measured cycles)",
                    if self.source.is_empty() { "<unnamed>" } else { &self.source },
                    self.telemetry_docs,
                    if self.telemetry_docs == 1 { "" } else { "s" },
                    self.measured_cycles
                )?;
                writeln!(
                    f,
                    "  tuned:      θ={} K={} ({} of {} candidates, {} regions demoted, \
                     {} predicted cycles)",
                    self.theta,
                    self.buffer_limit,
                    self.winner + 1,
                    self.candidates,
                    self.demoted_regions,
                    self.predicted_cycles
                )?;
            }
        }
        Ok(())
    }
}

/// Serializes a squashed program to the current (`SQSH0003`,
/// integrity-checked) `.sqsh` format.
pub fn write(squashed: &Squashed) -> Vec<u8> {
    let rt = &squashed.runtime;
    let mut sections: Vec<Vec<u8>> = vec![
        write_meta(squashed),
        rt.model.serialize(),
        rt.blob.clone(),
        write_offsets(&rt.bit_offsets),
        write_region_crcs(&rt.region_crcs),
    ];
    // Static images stay byte-identical to the pre-provenance format: the
    // sixth section exists only when there is provenance to record.
    if let Some(prov) = &squashed.provenance {
        sections.push(prov.serialize());
    }
    let header_len = header_len(sections.len());
    let file_len = header_len + 4 + sections.iter().map(Vec::len).sum::<usize>();
    let mut out = Vec::with_capacity(file_len);
    out.extend_from_slice(MAGIC_V3);
    out.extend_from_slice(&(file_len as u32).to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for s in &sections {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32c(s).to_le_bytes());
    }
    debug_assert_eq!(out.len(), header_len);
    out.extend_from_slice(&crc32c(&out).to_le_bytes());
    for s in &sections {
        out.extend_from_slice(s);
    }
    debug_assert_eq!(out.len(), file_len);
    out
}

fn write_meta(squashed: &Squashed) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&squashed.entry.to_le_bytes());
    out.extend_from_slice(&(squashed.segments.len() as u32).to_le_bytes());
    for (base, bytes) in &squashed.segments {
        out.extend_from_slice(&base.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    let rt = &squashed.runtime;
    for v in [
        rt.decomp_base,
        rt.decomp_bytes,
        rt.buffer_base,
        rt.buffer_bytes,
        rt.cache_slots as u32,
        rt.stub_base,
        rt.stub_slots as u32,
        rt.offset_table_addr,
        rt.regions as u32,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [
        rt.cost.per_bit,
        rt.cost.per_inst,
        rt.cost.per_call,
        rt.cost.create_stub,
        rt.cost.cache_hit,
        rt.cost.per_check_byte,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(rt.skip_if_current as u8);
    let fp = &squashed.stats.footprint;
    for v in [
        fp.never_compressed,
        fp.entry_stubs,
        fp.static_stubs,
        fp.decompressor,
        fp.model_tables,
        fp.offset_table,
        fp.compressed,
        fp.stub_area,
        fp.buffer,
        squashed.stats.baseline_bytes,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn write_offsets(bit_offsets: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + bit_offsets.len() * 8);
    out.extend_from_slice(&(bit_offsets.len() as u32).to_le_bytes());
    for &off in bit_offsets {
        out.extend_from_slice(&off.to_le_bytes());
    }
    out
}

fn write_region_crcs(crcs: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + crcs.len() * 4);
    out.extend_from_slice(&(crcs.len() as u32).to_le_bytes());
    for &crc in crcs {
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out
}

/// Bounds-checked cursor over untrusted bytes. Every read is checked
/// arithmetic against the slice; a read past the end is a typed
/// [`FaultKind::Truncated`] fault naming the stream, never a panic or an
/// out-of-bounds slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// What is being parsed ("meta section", ".sqsh file", ...) — names the
    /// stream in fault details.
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader { bytes, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SquashError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            fault(
                FaultKind::Truncated,
                format!("{}: length overflows at byte {}", self.what, self.pos),
            )
        })?;
        let s = self.bytes.get(self.pos..end).ok_or_else(|| {
            fault(
                FaultKind::Truncated,
                format!(
                    "{}: truncated ({} bytes needed at byte {}, {} available)",
                    self.what,
                    n,
                    self.pos,
                    self.bytes.len() - self.pos
                ),
            )
        })?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SquashError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SquashError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("take(4) returns 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SquashError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("take(8) returns 8 bytes")))
    }

    /// How many bytes remain — bounds `with_capacity` pre-allocation so a
    /// forged count can never allocate more than the file's own size.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Requires the stream to be fully consumed (no trailing garbage).
    fn done(&self) -> Result<(), SquashError> {
        if self.pos != self.bytes.len() {
            return Err(fault(
                FaultKind::Truncated,
                format!(
                    "{}: {} trailing bytes after the last field",
                    self.what,
                    self.bytes.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

/// Deserializes a `SQSH0003` byte stream back into a runnable [`Squashed`].
///
/// The header checksum and the `meta`, `model`, `offsets` and `region_crcs`
/// section checksums are verified before any content is trusted; the
/// compressed blob is verified lazily per region at trap time.
///
/// Pipeline statistics other than the footprint are not stored and come
/// back zeroed.
///
/// # Errors
///
/// Every failure is a typed machine check (`SquashError::fault` is always
/// populated): bad magic, truncation or forged lengths, checksum
/// mismatches, corrupt embedded tables.
pub fn read(bytes: &[u8]) -> Result<Squashed, SquashError> {
    read_image(bytes, false)
}

/// Like [`read`], but verifies the blob section checksum eagerly at load
/// instead of lazily per region (`squashrun --strict-integrity`).
///
/// # Errors
///
/// As [`read`], plus a [`FaultKind::SectionChecksum`] fault for a corrupt
/// blob section.
pub fn read_strict(bytes: &[u8]) -> Result<Squashed, SquashError> {
    read_image(bytes, true)
}

/// The section directory: one `(offset, len, stored_crc)` entry per
/// section, in [`SECTION_NAMES`] order, validated against the file length.
/// Five or six entries ([`BASE_SECTIONS`], plus `provenance` when present).
fn read_directory(bytes: &[u8]) -> Result<Vec<(usize, usize, u32)>, SquashError> {
    // The header's own length depends on the section count at bytes
    // [12, 16), so that field is read before the checksum can be located.
    // Only two counts are valid; anything else — including a corrupted
    // count byte — is a typed fault here, and a *valid-looking* corrupted
    // count still fails the header checksum below because the checksum was
    // computed over the other header length.
    let Some(count_bytes) = bytes.get(12..16) else {
        return Err(fault(
            FaultKind::Truncated,
            format!(
                ".sqsh header truncated ({} bytes, {} needed)",
                bytes.len(),
                header_len(BASE_SECTIONS) + 4
            ),
        ));
    };
    let nsections =
        u32::from_le_bytes(count_bytes.try_into().expect("slice of 4 bytes")) as usize;
    if nsections != BASE_SECTIONS && nsections != BASE_SECTIONS + 1 {
        return Err(fault(
            FaultKind::Truncated,
            format!(
                "unsupported section count {nsections} (expected {BASE_SECTIONS} or {})",
                BASE_SECTIONS + 1
            ),
        ));
    }
    let header_len = header_len(nsections);
    if bytes.len() < header_len + 4 {
        return Err(fault(
            FaultKind::Truncated,
            format!(".sqsh header truncated ({} bytes, {} needed)", bytes.len(), header_len + 4),
        ));
    }
    // Verify the header checksum before trusting any other header field — a
    // flipped directory length must read as header damage, not whatever
    // downstream inconsistency it happens to cause.
    let stored = u32::from_le_bytes(
        bytes[header_len..header_len + 4]
            .try_into()
            .expect("slice of 4 bytes"),
    );
    let actual = crc32c(&bytes[..header_len]);
    if stored != actual {
        return Err(fault(
            FaultKind::HeaderChecksum,
            format!("header checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
        ));
    }
    let mut r = Reader::new(bytes, ".sqsh header");
    r.take(8)?; // magic, already checked
    let file_len = r.u32()? as usize;
    if file_len != bytes.len() {
        return Err(fault(
            FaultKind::Truncated,
            format!(
                "declared file length {} disagrees with actual {} bytes",
                file_len,
                bytes.len()
            ),
        ));
    }
    r.u32()?; // nsections, already read and validated
    let mut dir = vec![(0usize, 0usize, 0u32); nsections];
    let mut offset = header_len + 4; // sections start after the header CRC
    for (i, entry) in dir.iter_mut().enumerate() {
        let len = r.u32()? as usize;
        let crc = r.u32()?;
        *entry = (offset, len, crc);
        offset = offset.checked_add(len).ok_or_else(|| {
            fault(
                FaultKind::Truncated,
                format!("section {} length {} overflows the file offset", SECTION_NAMES[i], len),
            )
        })?;
        if offset > bytes.len() {
            return Err(fault(
                FaultKind::Truncated,
                format!(
                    "section {} (length {}) extends past the end of the file",
                    SECTION_NAMES[i], len
                ),
            ));
        }
    }
    if offset != bytes.len() {
        return Err(fault(
            FaultKind::Truncated,
            format!("{} trailing bytes after the last section", bytes.len() - offset),
        ));
    }
    Ok(dir)
}

fn read_image(bytes: &[u8], strict: bool) -> Result<Squashed, SquashError> {
    if version(bytes).is_none() {
        return Err(fault(
            FaultKind::BadMagic,
            "not a .sqsh file (bad magic; expected SQSH0003)",
        ));
    }
    let dir = read_directory(bytes)?;
    let section = |i: usize| &bytes[dir[i].0..dir[i].0 + dir[i].1];
    // Verify section checksums before parsing a byte of them. The blob is
    // deliberately lazy (verified per region at trap time) unless strict;
    // provenance is tiny and verified eagerly like the other sections.
    for i in 0..dir.len() {
        if SECTION_NAMES[i] == "blob" && !strict {
            continue;
        }
        let actual = crc32c(section(i));
        if actual != dir[i].2 {
            return Err(fault(
                FaultKind::SectionChecksum,
                format!(
                    "section {} checksum mismatch (stored {:#010x}, computed {actual:#010x})",
                    SECTION_NAMES[i], dir[i].2
                ),
            ));
        }
    }
    let mut r = Reader::new(section(0), "meta section");
    let entry = r.u32()?;
    let segments = parse_segments(&mut r)?;
    let mut fields = [0u32; 9];
    for f in &mut fields {
        *f = r.u32()?;
    }
    let [
        decomp_base,
        decomp_bytes,
        buffer_base,
        buffer_bytes,
        cache_slots,
        stub_base,
        stub_slots,
        offset_table_addr,
        regions,
    ] = fields;
    let (cache_slots, regions) = (cache_slots as usize, regions as usize);
    if cache_slots == 0 || cache_slots > MAX_CACHE_SLOTS {
        return Err(fault(
            FaultKind::Truncated,
            format!("implausible cache slot count {cache_slots}"),
        ));
    }
    let cost = CostModel {
        per_bit: r.u64()?,
        per_inst: r.u64()?,
        per_call: r.u64()?,
        create_stub: r.u64()?,
        cache_hit: r.u64()?,
        per_check_byte: r.u64()?,
    };
    let skip_if_current = r.u8()? != 0;
    let footprint = Footprint {
        never_compressed: r.u32()?,
        entry_stubs: r.u32()?,
        static_stubs: r.u32()?,
        decompressor: r.u32()?,
        model_tables: r.u32()?,
        offset_table: r.u32()?,
        compressed: r.u32()?,
        stub_area: r.u32()?,
        buffer: r.u32()?,
    };
    let baseline_bytes = r.u32()?;
    r.done()?;
    let model = StreamModel::deserialize(section(1))
        .map_err(|e| fault(FaultKind::CodeTableCorrupt, format!("embedded model corrupt: {e}")))?;
    let bit_offsets = parse_offsets(section(3), regions)?;
    let region_crcs = parse_region_crcs(section(4), regions)?;
    let provenance = match dir.len() {
        n if n > BASE_SECTIONS => Some(Provenance::parse(section(BASE_SECTIONS))?),
        _ => None,
    };
    Ok(Squashed {
        segments,
        entry,
        runtime: RuntimeConfig {
            decomp_base,
            decomp_bytes,
            buffer_base,
            buffer_bytes,
            cache_slots,
            stub_base,
            stub_slots: stub_slots as usize,
            offset_table_addr,
            regions,
            model,
            blob: section(2).to_vec(),
            bit_offsets,
            region_crcs,
            cost,
            skip_if_current,
        },
        stats: SquashStats { footprint, baseline_bytes, regions, ..SquashStats::default() },
        provenance,
    })
}

fn parse_segments(r: &mut Reader<'_>) -> Result<Vec<(u32, Vec<u8>)>, SquashError> {
    let nsegs = r.u32()? as usize;
    if nsegs > MAX_SEGMENTS {
        return Err(fault(
            FaultKind::Truncated,
            format!("implausible segment count {nsegs} (limit {MAX_SEGMENTS})"),
        ));
    }
    let mut segments = Vec::with_capacity(nsegs.min(r.remaining() / 8));
    for _ in 0..nsegs {
        let base = r.u32()?;
        let len = r.u32()? as usize;
        segments.push((base, r.take(len)?.to_vec()));
    }
    Ok(segments)
}

fn parse_offsets(bytes: &[u8], regions: usize) -> Result<Vec<u64>, SquashError> {
    let mut r = Reader::new(bytes, "offsets section");
    let noffsets = r.u32()? as usize;
    if noffsets != regions {
        return Err(fault(
            FaultKind::Truncated,
            format!("offset table count {noffsets} disagrees with region count {regions}"),
        ));
    }
    let mut bit_offsets = Vec::with_capacity(noffsets.min(r.remaining() / 8));
    for _ in 0..noffsets {
        bit_offsets.push(r.u64()?);
    }
    r.done()?;
    Ok(bit_offsets)
}

fn parse_region_crcs(bytes: &[u8], regions: usize) -> Result<Vec<u32>, SquashError> {
    let mut r = Reader::new(bytes, "region_crcs section");
    let ncrcs = r.u32()? as usize;
    if ncrcs != regions {
        return Err(fault(
            FaultKind::Truncated,
            format!("region checksum count {ncrcs} disagrees with region count {regions}"),
        ));
    }
    let mut crcs = Vec::with_capacity(ncrcs.min(r.remaining() / 4));
    for _ in 0..ncrcs {
        crcs.push(r.u32()?);
    }
    r.done()?;
    Ok(crcs)
}

/// The interesting truncation boundaries of a serialized image: every
/// header-field edge, every directory entry edge, the header CRC edge and
/// every section edge. Fault-injection tests cut the file at each of these
/// (and at ±1) and require a typed fault, never a panic.
pub fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut cuts = vec![0usize, 8, 12, 16];
    // The section count comes from the (untrusted) header; clamp it to the
    // valid range so forged counts still yield sane cuts.
    let n = bytes
        .get(12..16)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
        .unwrap_or(BASE_SECTIONS)
        .clamp(BASE_SECTIONS, BASE_SECTIONS + 1);
    for i in 0..n {
        cuts.push(16 + i * 8);
    }
    cuts.push(header_len(n));
    cuts.push(header_len(n) + 4);
    if let Ok(dir) = read_directory(bytes) {
        for (off, len, _) in dir {
            cuts.push(off);
            cuts.push(off + len);
        }
    }
    cuts.push(bytes.len().saturating_sub(1));
    cuts.retain(|&c| c <= bytes.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;
    use crate::{SquashOptions, Squasher};

    fn squash_sample() -> Squashed {
        let program = minicc::build_program(&[r#"
            int rare(int x) { return x * 13 % 77; }
            int main() {
                int c = getb();
                if (c == '!') return rare(c);
                return c & 7;
            }
        "#])
        .unwrap();
        let profile = pipeline::profile(&program, &[b"a".to_vec()]).unwrap();
        Squasher::new(&program, &profile, &SquashOptions::default())
            .unwrap()
            .finish()
            .unwrap()
    }

    fn kind_of(e: &SquashError) -> FaultKind {
        e.fault.as_ref().expect("loader errors carry a machine check").kind
    }

    #[test]
    fn round_trip_preserves_everything_needed_to_run() {
        let squashed = squash_sample();
        let bytes = write(&squashed);
        assert_eq!(version(&bytes), Some(3));
        let restored = read(&bytes).expect("read back");
        assert_eq!(restored.entry, squashed.entry);
        assert_eq!(restored.segments, squashed.segments);
        assert_eq!(restored.stats.footprint, squashed.stats.footprint);
        assert_eq!(restored.runtime.region_crcs, squashed.runtime.region_crcs);
        assert_eq!(restored.runtime.cost, squashed.runtime.cost);
        // Behaviour through the restored image matches the live one.
        for input in [&b"x"[..], &b"!"[..]] {
            let live = pipeline::run_squashed(&squashed, input).unwrap();
            let loaded = pipeline::run_squashed(&restored, input).unwrap();
            assert_eq!(live.status, loaded.status);
            assert_eq!(live.output, loaded.output);
        }
        // Strict mode accepts an uncorrupted image.
        read_strict(&bytes).expect("strict read");
    }

    #[test]
    fn bad_magic_is_a_typed_fault() {
        let squashed = squash_sample();
        let mut bytes = write(&squashed);
        bytes[0] = b'X';
        assert_eq!(kind_of(&read(&bytes).unwrap_err()), FaultKind::BadMagic);
        // The retired checksum-free SQSH0002 format loads as bad magic, in
        // both load modes.
        bytes[..8].copy_from_slice(b"SQSH0002");
        assert_eq!(version(&bytes), None);
        assert_eq!(kind_of(&read(&bytes).unwrap_err()), FaultKind::BadMagic);
        assert_eq!(kind_of(&read_strict(&bytes).unwrap_err()), FaultKind::BadMagic);
        assert_eq!(kind_of(&read(b"").unwrap_err()), FaultKind::BadMagic);
        assert_eq!(kind_of(&read(b"SQSH").unwrap_err()), FaultKind::BadMagic);
        // Version 1 never existed in this codebase; reject by magic.
        assert_eq!(kind_of(&read(b"SQSH0001rest").unwrap_err()), FaultKind::BadMagic);
    }

    #[test]
    fn header_damage_is_a_header_checksum_fault() {
        let squashed = squash_sample();
        let mut bytes = write(&squashed);
        // Flip a bit in the declared length of the model section: the
        // header checksum catches it before any length is trusted.
        bytes[16 + 8] ^= 1;
        let err = read(&bytes).unwrap_err();
        assert_eq!(kind_of(&err), FaultKind::HeaderChecksum);
    }

    #[test]
    fn section_damage_is_a_section_checksum_fault() {
        let squashed = squash_sample();
        let clean = write(&squashed);
        let dir = read_directory(&clean).expect("directory");
        for (i, name) in SECTION_NAMES.iter().take(dir.len()).enumerate() {
            if *name == "blob" {
                continue; // lazy: verified per region at trap time
            }
            let (off, len, _) = dir[i];
            if len == 0 {
                continue;
            }
            let mut bytes = clean.clone();
            bytes[off + len / 2] ^= 0x40;
            let err = read(&bytes).unwrap_err();
            assert_eq!(kind_of(&err), FaultKind::SectionChecksum, "section {name}");
            assert!(err.message.contains(name), "fault should name {name}: {}", err.message);
        }
    }

    #[test]
    fn blob_damage_loads_lazily_but_strict_mode_catches_it() {
        let squashed = squash_sample();
        let clean = write(&squashed);
        let dir = read_directory(&clean).expect("directory");
        let (off, len, _) = dir[2]; // blob
        assert!(len > 0);
        let mut bytes = clean;
        bytes[off + len / 2] ^= 0x01;
        // Default load succeeds — region verification happens at trap time.
        read(&bytes).expect("lazy load tolerates blob damage until a trap");
        let err = read_strict(&bytes).unwrap_err();
        assert_eq!(kind_of(&err), FaultKind::SectionChecksum);
        assert!(err.message.contains("blob"), "{}", err.message);
    }

    #[test]
    fn truncation_at_every_boundary_is_a_typed_fault() {
        let bytes = write(&squash_sample());
        for cut in boundaries(&bytes) {
            if cut == bytes.len() {
                continue;
            }
            let err = read(&bytes[..cut]).expect_err("truncated image accepted");
            let kind = kind_of(&err);
            assert!(
                matches!(kind, FaultKind::Truncated | FaultKind::BadMagic),
                "cut at {cut}: unexpected kind {kind:?}"
            );
        }
    }

    #[test]
    fn forged_huge_lengths_fault_without_overallocating() {
        // A forged section length is caught by the header checksum; a
        // forged in-section length by the meta parser. The meta section
        // starts entry(4), nsegments(4), then the first segment's base(4)
        // and length(4): forge each length to u32::MAX and fix up the
        // section and header checksums so the parser itself must reject.
        let bytes = write(&squash_sample());
        let dir = read_directory(&bytes).expect("directory");
        let (meta_off, meta_len, _) = dir[0];
        for field_off in [4usize, 12] {
            let mut forged = bytes.clone();
            let at = meta_off + field_off;
            forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let crc = crc32c(&forged[meta_off..meta_off + meta_len]);
            forged[16 + 4..16 + 8].copy_from_slice(&crc.to_le_bytes());
            let hlen = header_len(BASE_SECTIONS);
            let hcrc = crc32c(&forged[..hlen]);
            forged[hlen..hlen + 4].copy_from_slice(&hcrc.to_le_bytes());
            let err = read(&forged).expect_err("forged length accepted");
            assert_eq!(kind_of(&err), FaultKind::Truncated, "forge at meta byte {field_off}");
        }
    }

    fn sample_provenance() -> Provenance {
        Provenance {
            kind: ProvenanceKind::Retuned,
            profile_crc: 0xDEAD_BEEF,
            telemetry_docs: 3,
            source: "adpcm+gsm".into(),
            measured_cycles: 123_456_789,
            predicted_cycles: 98_765_432,
            theta: 2e-3,
            buffer_limit: 1024,
            demoted_regions: 4,
            candidates: 9,
            winner: 5,
        }
    }

    /// A provenance-carrying image round-trips as a six-section file; the
    /// same image without provenance keeps the historical five-section
    /// bytes, so static images are unchanged by the format extension.
    #[test]
    fn provenance_round_trips_and_absence_keeps_old_bytes() {
        let mut squashed = squash_sample();
        let static_bytes = write(&squashed);
        squashed.provenance = Some(sample_provenance());
        let bytes = write(&squashed);
        assert_ne!(static_bytes.len(), bytes.len());
        assert_eq!(u32::from_le_bytes(static_bytes[12..16].try_into().unwrap()), 5);
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 6);
        let restored = read(&bytes).expect("read back");
        assert_eq!(restored.provenance, Some(sample_provenance()));
        assert_eq!(restored.segments, squashed.segments);
        read_strict(&bytes).expect("strict accepts provenance images");
        // Behaviour is identical through either form.
        let a = pipeline::run_squashed(&read(&static_bytes).unwrap(), b"!").unwrap();
        let b = pipeline::run_squashed(&restored, b"!").unwrap();
        assert_eq!((a.status, a.output, a.cycles), (b.status, b.output, b.cycles));
    }

    /// Provenance lives under the same CRC discipline as every section:
    /// damage is a section-checksum fault at load, and truncation at every
    /// boundary of the six-section layout stays a typed fault.
    #[test]
    fn provenance_damage_and_truncation_are_typed_faults() {
        let mut squashed = squash_sample();
        squashed.provenance = Some(sample_provenance());
        let clean = write(&squashed);
        let dir = read_directory(&clean).expect("directory");
        let (off, len, _) = dir[BASE_SECTIONS];
        assert!(len > 0);
        let mut bytes = clean.clone();
        bytes[off + len / 2] ^= 0x10;
        let err = read(&bytes).unwrap_err();
        assert_eq!(kind_of(&err), FaultKind::SectionChecksum);
        assert!(err.message.contains("provenance"), "{}", err.message);
        for cut in boundaries(&clean) {
            if cut == clean.len() {
                continue;
            }
            let err = read(&clean[..cut]).expect_err("truncated image accepted");
            let kind = kind_of(&err);
            assert!(
                matches!(kind, FaultKind::Truncated | FaultKind::BadMagic),
                "cut at {cut}: unexpected kind {kind:?}"
            );
        }
        // A forged section count (5 → 6 with no sixth section, or an
        // implausible count) is typed, never a panic.
        let five = write(&squash_sample());
        for forged_count in [4u32, 6, 7, u32::MAX] {
            let mut forged = five.clone();
            forged[12..16].copy_from_slice(&forged_count.to_le_bytes());
            let err = read(&forged).expect_err("forged section count accepted");
            assert!(
                matches!(
                    kind_of(&err),
                    FaultKind::Truncated | FaultKind::HeaderChecksum | FaultKind::BadMagic
                ),
                "count {forged_count}: {:?}",
                kind_of(&err)
            );
        }
    }

    #[test]
    fn file_length_field_must_match() {
        let squashed = squash_sample();
        let mut bytes = write(&squashed);
        // Append trailing garbage: file_len no longer matches.
        bytes.push(0);
        let err = read(&bytes).unwrap_err();
        assert_eq!(kind_of(&err), FaultKind::Truncated);
    }
}
