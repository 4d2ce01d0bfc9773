//! The runtime decompressor (paper §2.2–§2.3).
//!
//! Implemented as a [`Service`]: a 128-byte trap window whose 32 entry
//! points correspond to the 32 possible return-address registers, exactly
//! like the paper's decompressor ("multiple entry points, one per possible
//! return address register"). Executing `DECOMP + 4·r` means "the return
//! address is in register r".
//!
//! One service plays both roles, distinguished — as in the paper — by where
//! the return address points:
//!
//! * **CreateStub** (return address inside the runtime buffer): a call is
//!   about to leave compressed code; find or create the call site's restore
//!   stub, bump its usage count, redirect the return-address register at the
//!   stub, and resume at the branch that performs the call.
//! * **Decompress** (return address at an entry stub or restore stub): read
//!   the `(region, offset)` tag word, decrement the stub's usage count if it
//!   is a restore stub (freeing it at zero — the reference-count GC of
//!   §2.2), decompress the region into the buffer, and jump to
//!   `buffer + offset`.
//!
//! The restore stubs are real instructions materialised in simulated memory;
//! only the decompressor's own instruction sequence is host code, with its
//! time charged through the [`crate::CostModel`] and its space through the
//! footprint accounting (see `DESIGN.md`).
//!
//! The runtime buffer generalises the paper's single buffer into an N-slot
//! **decompressed-region cache** with least-recently-used eviction
//! (`cache_slots` in [`crate::SquashOptions`]). A request for a resident
//! region is a *hit*: no decompression, no instruction-cache flush, and only
//! [`crate::CostModel::cache_hit`] cycles. With one slot (the default) the
//! behaviour — and with the default cost model, the cycle count — is
//! exactly the paper's. Region images are emitted against slot 0's
//! addresses, so placement in a higher slot rewrites the external branch
//! displacements on the way into the buffer (see
//! `SquashRuntime::relocate_for_slot`).

use std::collections::HashMap;
use std::ops::Range;

use squash_compress::{CompressError, HuffmanError, StreamModel};
use squash_isa::{BraOp, Inst, Reg};
use squash_vm::{FaultKind, MachineCheck, Service, TraceEvent, TraceSink, TrapKind, Vm, VmError};

use crate::telemetry::Observers;
use crate::CostModel;

/// The [`FaultKind`] a trap-time decode failure maps to.
fn decode_fault_kind(e: &CompressError) -> FaultKind {
    match e {
        CompressError::Huffman(HuffmanError::UnexpectedEof) => FaultKind::TruncatedStream,
        CompressError::Huffman(_) => FaultKind::CodeTableCorrupt,
        CompressError::BadOpcode { .. } | CompressError::OpcodeOutOfRange { .. } => {
            FaultKind::BadOpcode
        }
        // Sentinel errors only arise when compressing; anything else a
        // decoder reports means its tables and the stream disagree.
        _ => FaultKind::CodeTableCorrupt,
    }
}

/// One region decode through the two-tier table decoder. A decoder error
/// becomes a typed fault at the trap ([`decode_fault_kind`]), whether the
/// payload was corrupt or passed its checksum. A free function over the
/// config so the fleet's shared cache can run it outside the service's
/// mutable borrow.
fn decode_region_uncached(
    cfg: &RuntimeConfig,
    bit_off: u64,
) -> Result<crate::fleet::cache::Decoded, CompressError> {
    let (insts, bits) = cfg.model.decompress_region(&cfg.blob, bit_off)?;
    Ok(crate::fleet::cache::Decoded { insts, bits })
}

/// Everything the runtime service needs, produced by layout.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Base of the 128-byte trap window.
    pub decomp_base: u32,
    /// Total bytes reserved for the decompressor area (trap window + body).
    pub decomp_bytes: u32,
    /// Base of the runtime buffer area (slot 0 of the region cache).
    pub buffer_base: u32,
    /// Size of one buffer slot in bytes.
    pub buffer_bytes: u32,
    /// Number of buffer slots in the decompressed-region cache (≥ 1). The
    /// slots are contiguous: slot `k` starts at `buffer_base +
    /// k·buffer_bytes`.
    pub cache_slots: usize,
    /// Base of the restore-stub area.
    pub stub_base: u32,
    /// Restore-stub slots available.
    pub stub_slots: usize,
    /// Address of the function offset table (also present in simulated
    /// memory; the service reads its host copy for speed).
    pub offset_table_addr: u32,
    /// Number of regions.
    pub regions: usize,
    /// The trained stream model (the decompressor's tables).
    pub model: StreamModel,
    /// Host copy of the compressed blob (identical bytes live in simulated
    /// memory and are counted in the footprint).
    pub blob: Vec<u8>,
    /// Bit offset of each region within the blob (the offset table).
    pub bit_offsets: Vec<u64>,
    /// CRC32C of each region's byte span in the blob, verified before every
    /// decode ([`crate::integrity`]). When empty, nothing is verified and
    /// nothing is charged for verification.
    pub region_crcs: Vec<u32>,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Skip decompression when the requested region is already resident.
    pub skip_if_current: bool,
}

/// Counters describing what the runtime did during execution.
///
/// Counter naming follows the workspace convention shared with
/// [`squash_vm::ICacheStats`]: plain `hits` / `misses` / `evictions` for the
/// region cache, no ad-hoc prefixes. `#[non_exhaustive]` so counters (and
/// the telemetry JSON schema built from them, `DESIGN.md` §12) can grow
/// without breaking consumers; construct one with `RuntimeStats::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RuntimeStats {
    /// Region decompressions performed.
    pub decompressions: u64,
    /// Decompressions skipped because the region was already resident.
    pub skipped: u64,
    /// `CreateStub` invocations that found an existing stub.
    pub stub_hits: u64,
    /// `CreateStub` invocations that allocated a new stub.
    pub stub_allocs: u64,
    /// Restore-stub returns processed.
    pub restores: u64,
    /// Maximum restore stubs live at once (the paper reports 9 at θ=0.01).
    pub max_live_stubs: usize,
    /// Compressed bits read.
    pub bits_read: u64,
    /// Instructions written into the buffer.
    pub insts_written: u64,
    /// Total cycles charged to the cost model.
    pub cycles_charged: u64,
    /// Region requests satisfied by a resident slot (no decompression).
    pub hits: u64,
    /// Region requests that had to decompress into a slot.
    pub misses: u64,
    /// Resident regions evicted to make room for another region.
    pub evictions: u64,
    /// Region payloads checksum-verified before decode (one per miss when
    /// the image carries integrity metadata; zero otherwise).
    pub regions_verified: u64,
    /// Cycles charged for payload checksum verification
    /// ([`CostModel::per_check_byte`] × span bytes), included in
    /// `cycles_charged`.
    pub checksum_cycles: u64,
}

/// One slot of the decompressed-region cache.
#[derive(Debug, Clone, Copy, Default)]
struct CacheSlot {
    /// The region resident in this slot, if any.
    region: Option<u16>,
    /// Logical time of the slot's last use (for LRU eviction).
    last_use: u64,
}

/// The decompressor service.
#[derive(Debug)]
pub struct SquashRuntime {
    cfg: RuntimeConfig,
    /// Live stubs: call-site key `(region, return_offset)` → slot.
    stubs: HashMap<(u16, u16), usize>,
    /// Reverse map for freeing.
    slot_key: Vec<Option<(u16, u16)>>,
    free_slots: Vec<usize>,
    /// The region-cache slots (`cache_slots` of them, at least one).
    cache: Vec<CacheSlot>,
    /// Logical clock advanced on every region request.
    tick: u64,
    /// Most recently used cache slot.
    mru: Option<usize>,
    stats: RuntimeStats,
    /// Observers fed every runtime event, if attached (`--trace` /
    /// `--report`). Observers only observe: they never charge cycles or
    /// touch simulated memory, so cycle counts are identical with and
    /// without them.
    pub(crate) observers: Option<Observers>,
    /// Fleet-shared decode cache, if attached. Region decodes consult it
    /// before running the decoder, and successful decodes populate it
    /// (subject to the handle's tenant quota). Sharing saves *host* decode
    /// work only: the simulated charge is a pure function of the cached
    /// `(bits, insts)`, so cycles are identical with and without the cache
    /// (asserted by `tests/fleet.rs`).
    pub(crate) decode_cache: Option<crate::fleet::cache::CacheHandle>,
}

impl SquashRuntime {
    /// Creates the service for a squashed image.
    pub fn new(cfg: RuntimeConfig) -> SquashRuntime {
        let slots = cfg.stub_slots;
        let cache_slots = cfg.cache_slots.max(1);
        SquashRuntime {
            cfg,
            stubs: HashMap::new(),
            slot_key: vec![None; slots],
            free_slots: (0..slots).rev().collect(),
            cache: vec![CacheSlot::default(); cache_slots],
            tick: 0,
            mru: None,
            stats: RuntimeStats::default(),
            observers: None,
            decode_cache: None,
        }
    }

    /// Emits `event` into the attached observers, stamped with the current
    /// simulated cycle count. No-op without observers.
    fn trace(&mut self, vm: &Vm, event: TraceEvent) {
        if let Some(o) = self.observers.as_mut() {
            o.emit(vm.cycles(), &event);
        }
    }

    /// Runtime statistics so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The most recently used resident region, if any.
    pub fn current_region(&self) -> Option<u16> {
        self.mru.and_then(|k| self.cache[k].region)
    }

    /// The regions resident in the cache, in slot order (`None` = empty
    /// slot).
    pub fn resident_regions(&self) -> Vec<Option<u16>> {
        self.cache.iter().map(|s| s.region).collect()
    }

    /// Restore stubs currently live.
    pub fn live_stubs(&self) -> usize {
        self.stubs.len()
    }

    fn buffer_range(&self) -> Range<u32> {
        self.cfg.buffer_base
            ..self.cfg.buffer_base + self.cfg.buffer_bytes * self.cache.len() as u32
    }

    fn slot_base(&self, k: usize) -> u32 {
        self.cfg.buffer_base + self.cfg.buffer_bytes * k as u32
    }

    /// The cache slot whose address range contains `addr` (which must lie in
    /// [`SquashRuntime::buffer_range`]).
    fn slot_of(&self, addr: u32) -> usize {
        ((addr - self.cfg.buffer_base) / self.cfg.buffer_bytes) as usize
    }

    fn stub_range(&self) -> Range<u32> {
        self.cfg.stub_base
            ..self.cfg.stub_base + crate::layout::STUB_SLOT_BYTES * self.cfg.stub_slots as u32
    }

    fn stub_addr(&self, slot: usize) -> u32 {
        self.cfg.stub_base + crate::layout::STUB_SLOT_BYTES * slot as u32
    }

    fn charge(&mut self, vm: &mut Vm, cycles: u64) {
        vm.charge_cycles(cycles);
        self.stats.cycles_charged += cycles;
    }

    fn create_stub(&mut self, vm: &mut Vm, reg: Reg, retaddr: u32) -> Result<(), VmError> {
        let pc = vm.pc();
        // The calling region is whichever cache slot the return address
        // points into.
        let cache_slot = self.slot_of(retaddr);
        let Some(region) = self.cache[cache_slot].region else {
            return Err(VmError::MachineCheck(MachineCheck {
                pc: Some(pc),
                cycle: Some(vm.cycles()),
                ..MachineCheck::new(FaultKind::ServiceState, "CreateStub with empty buffer")
            }));
        };
        // The call pair is [bsr @ X][branch @ X+4]; the return address the
        // program expects is X+8. Offsets are relative to the owning slot's
        // base, so the stub key survives the region moving between slots.
        let ret_off = retaddr + 4 - self.slot_base(cache_slot);
        let key = (region, ret_off as u16);
        let site = ((region as u32) << 16) | (ret_off & 0xFFFF);
        let created = !self.stubs.contains_key(&key);
        let slot = if let Some(&slot) = self.stubs.get(&key) {
            self.stats.stub_hits += 1;
            let count_addr = self.stub_addr(slot) + 8;
            // The count lives in guest memory, so the guest can set it to
            // anything: a full count is a typed fault, not an overflow.
            let count = vm.read_word(count_addr).checked_add(1).ok_or_else(|| {
                VmError::MachineCheck(MachineCheck {
                    pc: Some(pc),
                    cycle: Some(vm.cycles()),
                    region: Some(region as u32),
                    site: Some(site),
                    ..MachineCheck::new(
                        FaultKind::ServiceState,
                        format!("restore-stub usage count at {count_addr:#010x} overflows"),
                    )
                })
            })?;
            vm.write_bytes(count_addr, &count.to_le_bytes());
            slot
        } else {
            self.stats.stub_allocs += 1;
            let slot = self.free_slots.pop().ok_or_else(|| {
                VmError::MachineCheck(MachineCheck {
                    pc: Some(pc),
                    cycle: Some(vm.cycles()),
                    region: Some(region as u32),
                    site: Some(site),
                    ..MachineCheck::new(
                        FaultKind::StubExhausted,
                        format!("restore-stub area exhausted ({} slots)", self.cfg.stub_slots),
                    )
                })
            })?;
            self.stubs.insert(key, slot);
            self.slot_key[slot] = Some(key);
            self.stats.max_live_stubs = self.stats.max_live_stubs.max(self.stubs.len());
            let stub_addr = self.stub_addr(slot);
            // word 0: bsr reg, DECOMP entry for `reg`.
            let target = self.cfg.decomp_base + 4 * reg.number() as u32;
            let disp = ((target as i64 - (stub_addr as i64 + 4)) / 4) as i32;
            let w0 = Inst::Bra {
                op: BraOp::Bsr,
                ra: reg,
                disp,
            }
            .encode();
            let w1 = ((region as u32) << 16) | (ret_off & 0xFFFF);
            vm.write_bytes(stub_addr, &w0.to_le_bytes());
            vm.write_bytes(stub_addr + 4, &w1.to_le_bytes());
            vm.write_bytes(stub_addr + 8, &1u32.to_le_bytes());
            slot
        };
        vm.set_reg(reg, self.stub_addr(slot) as i64);
        vm.set_pc(retaddr);
        let cycles = self.cfg.cost.create_stub;
        self.charge(vm, cycles);
        // Post-charge, so the stamp delta from the ServiceTrap event is the
        // trap's full service charge (per-region attribution relies on it).
        let live = self.stubs.len();
        self.trace(
            vm,
            if created {
                TraceEvent::StubCreate { site, live }
            } else {
                TraceEvent::StubHit { site, live }
            },
        );
        Ok(())
    }

    /// Rewrites PC-relative branch displacements for residency in slot `k`.
    ///
    /// Region images are emitted with displacements resolved against slot 0
    /// (`buffer_base`). Moving the image down by `k·buffer_bytes` leaves
    /// intra-region branches correct (source and target shift together) but
    /// shifts every external target, so those displacements shrink by the
    /// slot offset. A target is intra-region exactly when its canonical
    /// (slot-0) address falls inside the image; everything a region may
    /// legitimately branch to outside itself — never-compressed code, entry
    /// stubs, the decompressor's trap window — lies below `buffer_base`.
    fn relocate_for_slot(
        &self,
        insts: &mut [Inst],
        k: usize,
        region: u16,
        pc: u32,
    ) -> Result<(), VmError> {
        let delta_words = (self.cfg.buffer_bytes / 4) as i64 * k as i64;
        if delta_words == 0 {
            return Ok(());
        }
        let base = self.cfg.buffer_base as i64;
        let image_end = base + 4 * insts.len() as i64;
        for (i, inst) in insts.iter_mut().enumerate() {
            if let Inst::Bra { op, ra, disp } = *inst {
                let target = base + 4 * (i as i64 + 1) + 4 * disp as i64;
                if target >= base && target < image_end {
                    continue; // intra-region: displacement unchanged
                }
                let new_disp = disp as i64 - delta_words;
                if !(-(1 << 20)..1 << 20).contains(&new_disp) {
                    return Err(VmError::MachineCheck(MachineCheck {
                        pc: Some(pc),
                        region: Some(region as u32),
                        ..MachineCheck::new(
                            FaultKind::ServiceState,
                            format!(
                                "region {region}: branch displacement overflows \
                                 relocating into cache slot {k}"
                            ),
                        )
                    }));
                }
                *inst = Inst::Bra {
                    op,
                    ra,
                    disp: new_disp as i32,
                };
            }
        }
        Ok(())
    }

    fn decompress_to(&mut self, vm: &mut Vm, region: u16, offset: u32) -> Result<(), VmError> {
        let pc = vm.pc();
        self.tick += 1;
        // Hit: the region is already resident. With a single slot this path
        // is taken only under `skip_if_current`, reproducing the paper's
        // single-buffer behaviour exactly; with more slots residency is the
        // cache's whole point and is always honoured.
        let resident = self.cache.iter().position(|s| s.region == Some(region));
        if let Some(k) = resident {
            if self.cache.len() > 1 || self.cfg.skip_if_current {
                self.cache[k].last_use = self.tick;
                self.mru = Some(k);
                self.stats.hits += 1;
                if self.cfg.skip_if_current {
                    self.stats.skipped += 1;
                }
                let cycles = self.cfg.cost.cache_hit;
                self.charge(vm, cycles);
                self.trace(vm, TraceEvent::CacheHit { region, slot: k });
                vm.set_pc(self.slot_base(k) + offset);
                return Ok(());
            }
        }
        // Miss: pick a victim slot — first free slot, else least recently
        // used — and decompress into it.
        let k = match self.cache.iter().position(|s| s.region.is_none()) {
            Some(free) => free,
            None => {
                let k = self
                    .cache
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_use)
                    .map(|(k, _)| k)
                    .expect("cache has at least one slot");
                // Evicting a region never touches its restore stubs: stubs
                // are keyed `(region, offset)` independent of slots, and a
                // later restore re-decompresses the region wherever there is
                // room. Overwriting a slot with the same region (the
                // single-buffer always-decompress path) displaces nothing.
                if self.cache[k].region != Some(region) {
                    self.stats.evictions += 1;
                }
                k
            }
        };
        // The region (if any) this decompression displaces; overwriting a
        // slot with the same region displaces nothing.
        let evicted = self.cache[k].region.filter(|&r| r != region);
        self.trace(vm, TraceEvent::DecompressStart { region });
        let fault = |vm: &Vm, kind: FaultKind, detail: String| {
            VmError::MachineCheck(MachineCheck {
                pc: Some(pc),
                cycle: Some(vm.cycles()),
                region: Some(region as u32),
                site: Some(((region as u32) << 16) | (offset & 0xFFFF)),
                ..MachineCheck::new(kind, detail)
            })
        };
        let bit_off = *self.cfg.bit_offsets.get(region as usize).ok_or_else(|| {
            fault(
                vm,
                FaultKind::RegionOutOfRange,
                format!(
                    "region index {region} beyond the offset table ({} regions)",
                    self.cfg.bit_offsets.len()
                ),
            )
        })?;
        // Verify the compressed payload before decoding, when the image
        // carries integrity metadata. The work is charged through the cost
        // model (`per_check_byte` × span bytes) so the verification cost is
        // explicitly modeled and telemetry-visible, and the charge lands
        // between `ServiceTrap` and `DecompressEnd` so per-region
        // attribution still explains every cycle.
        if let Some(&want) = self.cfg.region_crcs.get(region as usize) {
            let span = crate::integrity::region_byte_span(
                &self.cfg.bit_offsets,
                region as usize,
                self.cfg.blob.len(),
            );
            let span_bytes = span.len() as u64;
            let cycles = span_bytes * self.cfg.cost.per_check_byte;
            self.trace(vm, TraceEvent::VerifyStart { region });
            self.stats.regions_verified += 1;
            self.stats.checksum_cycles += cycles;
            self.charge(vm, cycles);
            let got = crate::integrity::crc32c(&self.cfg.blob[span]);
            if got != want {
                return Err(fault(
                    vm,
                    FaultKind::RegionChecksum,
                    format!(
                        "region {region} payload checksum mismatch \
                         (stored {want:#010x}, computed {got:#010x})"
                    ),
                ));
            }
            // Post-charge, so the VerifyStart→VerifyEnd stamp delta is the
            // full verification charge (span tracing brackets rely on it).
            self.trace(vm, TraceEvent::VerifyEnd { region, bytes: span_bytes });
        }
        // Decode, consulting the fleet-shared cache first when one is
        // attached (decode errors are never cached, so they surface fresh
        // from the decoder either way).
        let decoded = {
            let cfg = &self.cfg;
            match &self.decode_cache {
                Some(handle) => handle
                    .get_or_decode(region, || decode_region_uncached(cfg, bit_off))
                    .map(|r| (*r).clone()),
                None => decode_region_uncached(cfg, bit_off),
            }
        };
        let crate::fleet::cache::Decoded { mut insts, bits } = decoded.map_err(|e| {
            fault(
                vm,
                decode_fault_kind(&e),
                format!("region {region} decompression failed: {e}"),
            )
        })?;
        if insts.len() as u32 * 4 > self.cfg.buffer_bytes {
            return Err(fault(
                vm,
                FaultKind::BufferOverflow,
                format!(
                    "region {region} ({} words) overflows the {}-byte buffer slot",
                    insts.len(),
                    self.cfg.buffer_bytes
                ),
            ));
        }
        self.relocate_for_slot(&mut insts, k, region, pc)?;
        let mut addr = self.slot_base(k);
        for inst in &insts {
            vm.write_bytes(addr, &inst.encode().to_le_bytes());
            addr += 4;
        }
        vm.flush_icache();
        self.trace(vm, TraceEvent::ICacheFlush);
        self.cache[k] = CacheSlot {
            region: Some(region),
            last_use: self.tick,
        };
        self.mru = Some(k);
        self.stats.decompressions += 1;
        self.stats.misses += 1;
        self.stats.bits_read += bits;
        self.stats.insts_written += insts.len() as u64;
        // The simulated charge is a pure function of the stream: the bit
        // count and instruction count a *correct* decoder observes. The
        // two-tier table decoder and the bit-by-bit reference consume
        // identical bits on every stream (asserted differentially), so the
        // cycles charged here are decoder-independent.
        let cost = self.cfg.cost.per_call
            + bits * self.cfg.cost.per_bit
            + insts.len() as u64 * self.cfg.cost.per_inst;
        self.charge(vm, cost);
        // Post-charge: the stamp delta from the ServiceTrap event is the
        // trap's full service charge.
        self.trace(
            vm,
            TraceEvent::DecompressEnd {
                region,
                bits,
                insts: insts.len() as u64,
                slot: k,
                evicted,
            },
        );
        vm.set_pc(self.slot_base(k) + offset);
        Ok(())
    }
}

impl Service for SquashRuntime {
    fn range(&self) -> Range<u32> {
        self.cfg.decomp_base..self.cfg.decomp_base + 128
    }

    fn invoke(&mut self, vm: &mut Vm) -> Result<(), VmError> {
        let pc = vm.pc();
        let reg = Reg::new(((pc - self.cfg.decomp_base) / 4) as u8);
        let retaddr = vm.reg(reg) as u32;
        let is_restore = self.stub_range().contains(&retaddr);
        if self.buffer_range().contains(&retaddr) {
            self.trace(
                vm,
                TraceEvent::ServiceTrap { kind: TrapKind::CreateStub, pc, ra: retaddr },
            );
            return self.create_stub(vm, reg, retaddr);
        }
        let kind = if is_restore { TrapKind::Restore } else { TrapKind::Entry };
        self.trace(vm, TraceEvent::ServiceTrap { kind, pc, ra: retaddr });
        // Entry stub or restore stub: the tag word sits at the return
        // address, which the guest controls and may point outside memory.
        let tag = vm.try_read_word(retaddr).ok_or_else(|| {
            VmError::MachineCheck(MachineCheck {
                pc: Some(pc),
                cycle: Some(vm.cycles()),
                ..MachineCheck::new(
                    FaultKind::StubTargetOutOfRange,
                    format!("return address {retaddr:#010x} has no tag word in memory"),
                )
            })
        })?;
        let region = (tag >> 16) as u16;
        let offset = tag & 0xFFFF;
        if is_restore {
            // Restore stub: decrement its usage count; free at zero. The
            // return address must point at a stub's tag word (slot base + 4);
            // anything else in the stub area is a corrupt or forged address,
            // surfaced as a typed fault instead of indexing out of bounds.
            self.stats.restores += 1;
            let stub_fault = |vm: &Vm, kind: FaultKind, detail: String| {
                VmError::MachineCheck(MachineCheck {
                    pc: Some(pc),
                    cycle: Some(vm.cycles()),
                    region: Some(region as u32),
                    site: Some(tag),
                    ..MachineCheck::new(kind, detail)
                })
            };
            let stub_off = retaddr
                .checked_sub(4)
                .and_then(|a| a.checked_sub(self.cfg.stub_base))
                .ok_or_else(|| {
                    stub_fault(
                        vm,
                        FaultKind::StubTargetOutOfRange,
                        format!("restore return address {retaddr:#010x} below the stub area"),
                    )
                })?;
            let slot = (stub_off / crate::layout::STUB_SLOT_BYTES) as usize;
            if stub_off % crate::layout::STUB_SLOT_BYTES != 0 || slot >= self.cfg.stub_slots {
                return Err(stub_fault(
                    vm,
                    FaultKind::StubTargetOutOfRange,
                    format!(
                        "restore return address {retaddr:#010x} maps to no stub slot \
                         ({} slots of {} bytes at {:#010x})",
                        self.cfg.stub_slots,
                        crate::layout::STUB_SLOT_BYTES,
                        self.cfg.stub_base
                    ),
                ));
            }
            let stub_addr = retaddr - 4;
            let count_addr = stub_addr + 8;
            let count = vm.read_word(count_addr);
            if count == 0 {
                return Err(stub_fault(
                    vm,
                    FaultKind::ServiceState,
                    "restore stub fired with zero usage count".into(),
                ));
            }
            let count = count - 1;
            vm.write_bytes(count_addr, &count.to_le_bytes());
            if count == 0 {
                if let Some(key) = self.slot_key[slot].take() {
                    self.stubs.remove(&key);
                    self.trace(
                        vm,
                        TraceEvent::StubFree {
                            site: ((key.0 as u32) << 16) | key.1 as u32,
                            live: self.stubs.len(),
                        },
                    );
                }
                self.free_slots.push(slot);
            }
        }
        self.decompress_to(vm, region, offset)
    }
}

#[cfg(test)]
mod tests {
    // The runtime is exercised end-to-end by `crate::pipeline` tests and the
    // integration suite; unit tests here cover the bookkeeping that is hard
    // to reach deterministically from whole programs.
    use super::*;
    use crate::CostModel;

    fn dummy_config() -> RuntimeConfig {
        RuntimeConfig {
            decomp_base: 0x8000,
            decomp_bytes: 2048,
            buffer_base: 0x9000,
            buffer_bytes: 256,
            cache_slots: 1,
            stub_base: 0x8800,
            stub_slots: 2,
            offset_table_addr: 0x8700,
            regions: 1,
            model: StreamModel::train(&[&[][..]]),
            blob: Vec::new(),
            bit_offsets: vec![0],
            region_crcs: Vec::new(),
            cost: CostModel::default(),
            skip_if_current: false,
        }
    }

    #[test]
    fn stub_slots_recycle() {
        let rt = SquashRuntime::new(dummy_config());
        assert_eq!(rt.live_stubs(), 0);
        assert_eq!(rt.free_slots.len(), 2);
    }

    #[test]
    fn service_range_covers_all_register_entries() {
        let rt = SquashRuntime::new(dummy_config());
        let range = rt.range();
        assert_eq!(range.len(), 128);
        for r in 0..32u32 {
            assert!(range.contains(&(0x8000 + 4 * r)));
        }
    }

    #[test]
    fn create_stub_requires_resident_region() {
        let mut rt = SquashRuntime::new(dummy_config());
        let mut vm = squash_vm::Vm::new(1 << 16);
        // Return address inside the buffer, but nothing was decompressed.
        vm.set_reg(Reg::RA, 0x9004);
        vm.set_pc(0x8000 + 4 * Reg::RA.number() as u32);
        let err = rt.invoke(&mut vm).unwrap_err();
        match err {
            VmError::MachineCheck(mc) => {
                assert_eq!(mc.kind, FaultKind::ServiceState);
                assert!(mc.detail.contains("empty buffer"), "{}", mc.detail);
                assert!(mc.pc.is_some());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    use squash_isa::AluOp;

    /// A config with `nregions` real (compressed) regions of straight-line
    /// code and `cache_slots` buffer slots, against which `decompress_to`
    /// can be driven directly.
    fn cached_config(nregions: usize, cache_slots: usize) -> RuntimeConfig {
        // Distinct bodies so each region compresses to distinct bits.
        let regions: Vec<Vec<Inst>> = (0..nregions)
            .map(|r| {
                vec![
                    Inst::Imm {
                        func: AluOp::Add,
                        ra: Reg::new(1),
                        lit: r as u8,
                        rc: Reg::new(2),
                    },
                    Inst::Jmp {
                        ra: Reg::ZERO,
                        rb: Reg::RA,
                        hint: 0,
                    },
                ]
            })
            .collect();
        let refs: Vec<&[Inst]> = regions.iter().map(|v| v.as_slice()).collect();
        let model = StreamModel::train(&refs);
        let mut w = squash_compress::BitWriter::new();
        let mut bit_offsets = Vec::new();
        for r in &regions {
            bit_offsets.push(w.bit_len());
            model.compress_region_into(r, &mut w).unwrap();
        }
        RuntimeConfig {
            decomp_base: 0x8000,
            decomp_bytes: 2048,
            buffer_base: 0x9000,
            buffer_bytes: 256,
            cache_slots,
            stub_base: 0x8800,
            stub_slots: 4,
            offset_table_addr: 0x8700,
            regions: nregions,
            model,
            blob: w.into_bytes(),
            bit_offsets,
            // No integrity metadata: the scripted tests below exercise the
            // seed behaviour; the `integrity` tests add checksums.
            region_crcs: Vec::new(),
            cost: CostModel::default(),
            skip_if_current: false,
        }
    }

    /// [`cached_config`] with per-region checksums, as a loaded `SQSH0003`
    /// image (or a freshly squashed artifact) would carry.
    fn checked_config(nregions: usize, cache_slots: usize) -> RuntimeConfig {
        let mut cfg = cached_config(nregions, cache_slots);
        cfg.region_crcs = crate::integrity::region_crcs(&cfg.blob, &cfg.bit_offsets);
        cfg
    }

    #[test]
    fn lru_evicts_least_recently_used_slot() {
        let mut rt = SquashRuntime::new(cached_config(3, 2));
        let mut vm = squash_vm::Vm::new(1 << 16);
        rt.decompress_to(&mut vm, 0, 0).unwrap(); // slot 0 ← r0
        rt.decompress_to(&mut vm, 1, 0).unwrap(); // slot 1 ← r1
        assert_eq!(rt.resident_regions(), vec![Some(0), Some(1)]);
        rt.decompress_to(&mut vm, 0, 0).unwrap(); // hit: r0 becomes MRU
        assert_eq!(rt.stats.hits, 1);
        rt.decompress_to(&mut vm, 2, 0).unwrap(); // must evict r1, not r0
        assert_eq!(rt.resident_regions(), vec![Some(0), Some(2)]);
        assert_eq!(rt.stats.evictions, 1);
        assert_eq!(rt.stats.misses, 3);
        // And r1 is a miss again.
        rt.decompress_to(&mut vm, 1, 0).unwrap();
        assert_eq!(rt.stats.misses, 4);
        assert_eq!(rt.resident_regions(), vec![Some(1), Some(2)]);
    }

    #[test]
    fn single_slot_matches_seed_single_buffer_semantics() {
        // With one slot and skip_if_current off (the defaults), every
        // request decompresses — the paper's behaviour — and the cycle
        // charge is exactly the seed's per-call/per-bit/per-inst formula.
        let mut rt = SquashRuntime::new(cached_config(2, 1));
        let mut vm = squash_vm::Vm::new(1 << 16);
        for region in [0u16, 0, 1, 0, 1, 1] {
            rt.decompress_to(&mut vm, region, 0).unwrap();
        }
        let s = rt.stats;
        assert_eq!(s.decompressions, 6);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 6);
        assert_eq!(s.skipped, 0);
        // Re-decompressing the resident region displaces nothing; only the
        // four genuine region switches evict.
        assert_eq!(s.evictions, 3);
        let cost = rt.cfg.cost;
        assert_eq!(
            s.cycles_charged,
            6 * cost.per_call + s.bits_read * cost.per_bit + s.insts_written * cost.per_inst
        );
    }

    #[test]
    fn single_slot_skip_if_current_reuses_and_counts_both_ways() {
        let mut cfg = cached_config(2, 1);
        cfg.skip_if_current = true;
        let mut rt = SquashRuntime::new(cfg);
        let mut vm = squash_vm::Vm::new(1 << 16);
        for region in [0u16, 0, 1, 1, 1] {
            rt.decompress_to(&mut vm, region, 0).unwrap();
        }
        let s = rt.stats;
        assert_eq!(s.decompressions, 2);
        assert_eq!(s.skipped, 3, "seed counter still advances under skip_if_current");
        assert_eq!(s.hits, 3, "every skip is a one-slot cache hit");
    }

    #[test]
    fn hit_jumps_into_the_owning_slot_without_flushing() {
        let mut rt = SquashRuntime::new(cached_config(2, 2));
        let mut vm = squash_vm::Vm::new(1 << 16);
        rt.decompress_to(&mut vm, 0, 0).unwrap();
        rt.decompress_to(&mut vm, 1, 4).unwrap();
        assert_eq!(vm.pc(), 0x9100 + 4, "slot 1 base plus offset");
        // Hit on region 0 returns to slot 0's copy.
        rt.decompress_to(&mut vm, 0, 4).unwrap();
        assert_eq!(vm.pc(), 0x9000 + 4);
        assert_eq!(rt.stats.decompressions, 2, "the hit decompressed nothing");
    }

    /// A region whose image ends with an external branch (its canonical
    /// target below `buffer_base`) plus an intra-region branch; placing it
    /// in slot 1 must rewrite only the external displacement.
    #[test]
    fn relocation_adjusts_external_branches_only() {
        let region = vec![
            // i = 0: intra-region branch to i = 2 (disp 1).
            Inst::Bra { op: BraOp::Beq, ra: Reg::new(3), disp: 1 },
            // i = 1: external bsr to the decompressor window, far below the
            // buffer: target = base + 4·2 + 4·disp.
            Inst::Bra { op: BraOp::Bsr, ra: Reg::RA, disp: -1100 },
            // i = 2: filler.
            Inst::Imm { func: AluOp::Add, ra: Reg::new(1), lit: 7, rc: Reg::new(1) },
            Inst::Jmp { ra: Reg::ZERO, rb: Reg::RA, hint: 0 },
        ];
        let refs: Vec<&[Inst]> = vec![&region];
        let model = StreamModel::train(&refs);
        let mut w = squash_compress::BitWriter::new();
        model.compress_region_into(&region, &mut w).unwrap();
        let mut cfg = cached_config(1, 2);
        cfg.model = model;
        cfg.blob = w.into_bytes();
        cfg.bit_offsets = vec![0];
        let buffer_base = cfg.buffer_base;
        let slot_words = cfg.buffer_bytes / 4; // 64
        let mut rt = SquashRuntime::new(cfg);
        let mut vm = squash_vm::Vm::new(1 << 16);
        // Fill slot 0 with a dummy so region 0 lands in slot 1... except
        // region 0 IS the only region; decompress it twice via distinct
        // slots by marking slot 0 busy manually.
        rt.cache[0].region = Some(99);
        rt.cache[0].last_use = 1;
        rt.decompress_to(&mut vm, 0, 0).unwrap();
        assert_eq!(rt.resident_regions(), vec![Some(99), Some(0)]);
        let slot1 = buffer_base + 4 * slot_words;
        let word_at = |vm: &squash_vm::Vm, a: u32| Inst::decode(vm.read_word(a)).unwrap();
        // Intra-region branch unchanged.
        match word_at(&vm, slot1) {
            Inst::Bra { disp, .. } => assert_eq!(disp, 1),
            other => panic!("expected branch, got {other:?}"),
        }
        // External branch shifted back by the slot offset (64 words).
        match word_at(&vm, slot1 + 4) {
            Inst::Bra { disp, .. } => assert_eq!(disp, -1100 - slot_words as i32),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    /// The reference-count GC across eviction: a restore stub created while
    /// its region was resident must survive the region's eviction, and its
    /// firing must re-decompress the region into a (possibly different)
    /// slot.
    #[test]
    fn restore_stub_survives_eviction_of_its_region() {
        let mut rt = SquashRuntime::new(cached_config(3, 1));
        let mut vm = squash_vm::Vm::new(1 << 16);
        let decomp_base = rt.cfg.decomp_base;
        let stub_base = rt.cfg.stub_base;
        let buffer_base = rt.cfg.buffer_base;

        // Region 0 resident; a call at buffer offset 0 invokes CreateStub
        // with the return-address register pointing at the bsr (offset 0).
        rt.decompress_to(&mut vm, 0, 0).unwrap();
        vm.set_reg(Reg::RA, buffer_base as i64);
        vm.set_pc(decomp_base + 4 * Reg::RA.number() as u32);
        rt.invoke(&mut vm).unwrap();
        assert_eq!(rt.live_stubs(), 1);
        assert_eq!(rt.stats.stub_allocs, 1);
        let stub_addr = stub_base; // first slot
        assert_eq!(vm.reg(Reg::RA) as u32, stub_addr);
        assert_eq!(vm.read_word(stub_addr + 8), 1, "usage count");

        // Evict region 0 by decompressing others through the single slot.
        rt.decompress_to(&mut vm, 1, 0).unwrap();
        rt.decompress_to(&mut vm, 2, 0).unwrap();
        assert_eq!(rt.resident_regions(), vec![Some(2)]);
        assert_eq!(rt.live_stubs(), 1, "eviction must not free the stub");
        assert_eq!(vm.read_word(stub_addr + 8), 1, "count untouched by eviction");

        // The callee returns through the stub: its bsr leaves the tag-word
        // address in RA.
        let decomps_before = rt.stats.decompressions;
        vm.set_reg(Reg::RA, (stub_addr + 4) as i64);
        vm.set_pc(decomp_base + 4 * Reg::RA.number() as u32);
        rt.invoke(&mut vm).unwrap();
        assert_eq!(rt.stats.restores, 1);
        assert_eq!(rt.stats.decompressions, decomps_before + 1);
        assert_eq!(rt.resident_regions(), vec![Some(0)], "region re-materialised");
        // ret_off was 4 (bsr at offset 0 returns past the following branch).
        assert_eq!(vm.pc(), buffer_base + 4);
        // Count reached zero: stub freed and slot recyclable.
        assert_eq!(rt.live_stubs(), 0);
        assert_eq!(rt.free_slots.len(), rt.cfg.stub_slots);
    }

    /// Reference LRU model for the scripted-sequence test: returns
    /// `(hits, misses, evictions)` for `seq` at cache depth `n` under the
    /// runtime's semantics (one slot without `skip_if_current` always
    /// decompresses; same-region overwrite evicts nothing).
    fn reference_lru(seq: &[u16], n: usize) -> (u64, u64, u64) {
        let mut resident: Vec<u16> = Vec::new(); // MRU-first
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for &r in seq {
            if let Some(i) = resident.iter().position(|&x| x == r) {
                if n > 1 {
                    hits += 1;
                    let x = resident.remove(i);
                    resident.insert(0, x);
                    continue;
                }
                // One-slot always-decompress: a miss displacing nothing.
                misses += 1;
                continue;
            }
            misses += 1;
            if resident.len() == n {
                resident.pop();
                evictions += 1;
            }
            resident.insert(0, r);
        }
        (hits, misses, evictions)
    }

    /// The scripted trap sequence of the telemetry issue: fixed region
    /// request order, counters checked against an independent LRU model at
    /// cache depths 1, 2 and 4.
    #[test]
    fn scripted_sequence_counters_at_depths_1_2_4() {
        let seq: [u16; 12] = [0, 1, 2, 0, 0, 3, 1, 4, 2, 0, 4, 4];
        for n in [1usize, 2, 4] {
            let mut rt = SquashRuntime::new(cached_config(5, n));
            let mut vm = squash_vm::Vm::new(1 << 16);
            for &r in &seq {
                rt.decompress_to(&mut vm, r, 0).unwrap();
            }
            let (hits, misses, evictions) = reference_lru(&seq, n);
            let s = rt.stats;
            assert_eq!(s.hits, hits, "hits at depth {n}");
            assert_eq!(s.misses, misses, "misses at depth {n}");
            assert_eq!(s.evictions, evictions, "evictions at depth {n}");
            assert_eq!(s.decompressions, misses, "every miss decompresses");
            assert_eq!(s.hits + s.misses, seq.len() as u64, "requests conserved at {n}");
            assert_eq!(
                s.cycles_charged,
                s.decompressions * rt.cfg.cost.per_call
                    + s.bits_read * rt.cfg.cost.per_bit
                    + s.insts_written * rt.cfg.cost.per_inst
                    + s.hits * rt.cfg.cost.cache_hit,
                "cost model at depth {n}"
            );
        }
    }

    /// Stub counters across a scripted CreateStub/restore sequence: two
    /// sites allocate, a repeat reuses, each restore frees at count zero.
    #[test]
    fn scripted_stub_sequence_counters() {
        let mut rt = SquashRuntime::new(cached_config(2, 1));
        let mut vm = squash_vm::Vm::new(1 << 16);
        let decomp_base = rt.cfg.decomp_base;
        let buffer_base = rt.cfg.buffer_base;
        rt.decompress_to(&mut vm, 0, 0).unwrap();
        let create = |rt: &mut SquashRuntime, vm: &mut squash_vm::Vm, off: u32| {
            vm.set_reg(Reg::RA, (buffer_base + off) as i64);
            vm.set_pc(decomp_base + 4 * Reg::RA.number() as u32);
            rt.invoke(vm).unwrap();
            vm.reg(Reg::RA) as u32 // stub address the call will return through
        };
        let stub_a = create(&mut rt, &mut vm, 0);
        let _stub_b = create(&mut rt, &mut vm, 8);
        let stub_a2 = create(&mut rt, &mut vm, 0); // same site: reuse
        assert_eq!(stub_a, stub_a2);
        assert_eq!(rt.stats.stub_allocs, 2);
        assert_eq!(rt.stats.stub_hits, 1);
        assert_eq!(rt.stats.max_live_stubs, 2);
        assert_eq!(rt.live_stubs(), 2);
        // Return through stub A twice (count 2 → 0): freed at zero.
        for expected_live in [2, 1] {
            vm.set_reg(Reg::RA, (stub_a + 4) as i64);
            vm.set_pc(decomp_base + 4 * Reg::RA.number() as u32);
            rt.invoke(&mut vm).unwrap();
            assert_eq!(rt.live_stubs(), expected_live);
        }
        assert_eq!(rt.stats.restores, 2);
    }

    /// Tracing is observational: the same scripted sequence charges exactly
    /// the same cycles with and without observers, and the traced run emits
    /// the expected event sequence with non-decreasing stamps.
    #[test]
    fn tracing_is_cycle_invariant_and_ordered() {
        let seq: [u16; 6] = [0, 1, 0, 2, 1, 1];
        let run = |observers: Option<Observers>| {
            let mut rt = SquashRuntime::new(cached_config(3, 2));
            rt.observers = observers;
            let mut vm = squash_vm::Vm::new(1 << 16);
            for &r in &seq {
                rt.decompress_to(&mut vm, r, 0).unwrap();
            }
            ((rt.stats.cycles_charged, vm.cycles()), rt.observers)
        };
        let (untraced, _) = run(None);
        let ring = squash_vm::JsonlRing::unbounded();
        let (traced, observers) = run(Some(Observers { ring: Some(ring), ..Observers::default() }));
        assert_eq!(untraced, traced, "observers must not perturb cycles");

        // Event order: misses bracket DecompressStart/ICacheFlush/End, hits
        // emit CacheHit.
        use squash_obs::json::{self, Json};
        let ring = observers.and_then(|o| o.ring).expect("ring returned");
        let events: Vec<Json> = ring.lines().map(|l| json::parse(l).unwrap()).collect();
        let stamps: Vec<u64> = events.iter().filter_map(|e| e.get("cycle")?.as_u64()).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "stamps must be non-decreasing");
        let kinds: Vec<&str> = events.iter().filter_map(|e| e.get("kind")?.as_str()).collect();
        assert_eq!(
            kinds,
            vec![
                "decompress_start", "icache_flush", "decompress_end", // 0 miss
                "decompress_start", "icache_flush", "decompress_end", // 1 miss
                "cache_hit",                                          // 0 hit
                "decompress_start", "icache_flush", "decompress_end", // 2 evicts 1
                "decompress_start", "icache_flush", "decompress_end", // 1 again
                "cache_hit",                                          // 1 hit
            ]
        );
    }

    /// With integrity metadata, every miss verifies the region's payload and
    /// charges exactly `per_check_byte` × span bytes on top of the seed cost
    /// model; hits verify nothing. The total equals the run without
    /// checksums plus the reported `checksum_cycles`.
    #[test]
    fn verification_charges_exactly_the_modeled_cost() {
        let seq: [u16; 6] = [0, 1, 0, 2, 1, 1];
        let drive = |cfg: RuntimeConfig| {
            let mut rt = SquashRuntime::new(cfg);
            let mut vm = squash_vm::Vm::new(1 << 16);
            for &r in &seq {
                rt.decompress_to(&mut vm, r, 0).unwrap();
            }
            rt.stats
        };
        let plain = drive(cached_config(3, 2));
        let checked = drive(checked_config(3, 2));
        assert_eq!(plain.regions_verified, 0);
        assert_eq!(plain.checksum_cycles, 0);
        assert_eq!(checked.regions_verified, checked.misses);
        assert_eq!(
            (checked.hits, checked.misses, checked.evictions, checked.bits_read),
            (plain.hits, plain.misses, plain.evictions, plain.bits_read),
            "verification must not change cache behaviour"
        );
        // The charge is the independently computed span sum.
        let cfg = checked_config(3, 2);
        let mut expected = 0u64;
        let mut rt2 = SquashRuntime::new(cached_config(3, 2));
        let mut vm2 = squash_vm::Vm::new(1 << 16);
        for &r in &seq {
            let was_miss_before = rt2.stats.misses;
            rt2.decompress_to(&mut vm2, r, 0).unwrap();
            if rt2.stats.misses > was_miss_before {
                let span = crate::integrity::region_byte_span(
                    &cfg.bit_offsets,
                    r as usize,
                    cfg.blob.len(),
                );
                expected += span.len() as u64 * cfg.cost.per_check_byte;
            }
        }
        assert_eq!(checked.checksum_cycles, expected);
        assert_eq!(
            checked.cycles_charged,
            plain.cycles_charged + checked.checksum_cycles,
            "verification is the only cycle difference"
        );
    }

    /// A corrupted region faults with a typed `RegionChecksum` machine check
    /// naming the region — and the rest of the image stays runnable: other
    /// regions still decompress, and the service state is not poisoned.
    #[test]
    fn corrupt_region_faults_typed_and_leaves_others_runnable() {
        let mut cfg = checked_config(3, 2);
        // Flip a bit squarely inside region 1's span (regions 0 and 2 may
        // share boundary bytes with it, so corrupt a middle byte).
        let span = crate::integrity::region_byte_span(&cfg.bit_offsets, 1, cfg.blob.len());
        let mid = (span.start + span.end) / 2;
        cfg.blob[mid] ^= 0x10;
        // Keep region 0's and 2's checksums valid if the flipped byte is
        // theirs too: recompute which regions the byte belongs to.
        let hit: Vec<usize> = (0..3)
            .filter(|&i| {
                crate::integrity::region_byte_span(&cfg.bit_offsets, i, cfg.blob.len())
                    .contains(&mid)
            })
            .collect();
        let mut rt = SquashRuntime::new(cfg);
        let mut vm = squash_vm::Vm::new(1 << 16);
        for r in 0..3u16 {
            let result = rt.decompress_to(&mut vm, r, 0);
            if hit.contains(&(r as usize)) {
                let err = result.expect_err("corrupt region must fault");
                let mc = match err {
                    VmError::MachineCheck(mc) => mc,
                    other => panic!("untyped error {other:?}"),
                };
                assert_eq!(mc.kind, FaultKind::RegionChecksum);
                assert_eq!(mc.region, Some(r as u32));
                assert!(mc.cycle.is_some() && mc.site.is_some());
            } else {
                result.expect("uncorrupted region must stay runnable");
            }
        }
        assert!(hit.contains(&1), "the flipped byte belongs to region 1");
        assert!(
            rt.stats.decompressions >= 1,
            "at least one clean region decompressed after the fault"
        );
    }

    /// A request beyond the offset table is a typed `RegionOutOfRange`
    /// fault, not a panic.
    #[test]
    fn region_index_out_of_range_is_typed() {
        let mut rt = SquashRuntime::new(cached_config(2, 1));
        let mut vm = squash_vm::Vm::new(1 << 16);
        let err = rt.decompress_to(&mut vm, 7, 0).unwrap_err();
        match err {
            VmError::MachineCheck(mc) => {
                assert_eq!(mc.kind, FaultKind::RegionOutOfRange);
                assert_eq!(mc.region, Some(7));
            }
            other => panic!("untyped error {other:?}"),
        }
    }

    /// A restore trap whose return address points into the stub area but at
    /// no valid stub tag word (misaligned, or below the first tag) faults
    /// with `StubTargetOutOfRange` instead of indexing out of bounds.
    #[test]
    fn forged_restore_address_is_typed_not_a_panic() {
        let mut rt = SquashRuntime::new(cached_config(2, 1));
        let mut vm = squash_vm::Vm::new(1 << 16);
        rt.decompress_to(&mut vm, 0, 0).unwrap();
        let decomp_base = rt.cfg.decomp_base;
        // stub_base itself points at slot 0's *first* word, not its tag.
        for bad in [rt.cfg.stub_base, rt.cfg.stub_base + 6] {
            vm.set_reg(Reg::RA, bad as i64);
            vm.set_pc(decomp_base + 4 * Reg::RA.number() as u32);
            let err = rt.invoke(&mut vm).unwrap_err();
            match err {
                VmError::MachineCheck(mc) => {
                    assert_eq!(mc.kind, FaultKind::StubTargetOutOfRange, "ra {bad:#x}");
                }
                other => panic!("untyped error {other:?} for ra {bad:#x}"),
            }
        }
    }

    /// An entry trap whose return address lies outside memory has no tag
    /// word to read: a typed `StubTargetOutOfRange`, not a panic.
    #[test]
    fn trap_with_return_address_outside_memory_is_typed() {
        let mut rt = SquashRuntime::new(cached_config(2, 1));
        let mut vm = squash_vm::Vm::new(1 << 16);
        let decomp_base = rt.cfg.decomp_base;
        for bad in [0xFFFF_FFF0u32, 1 << 16, (1 << 16) - 2] {
            vm.set_reg(Reg::T0, bad as i64);
            vm.set_pc(decomp_base + 4 * Reg::T0.number() as u32);
            match rt.invoke(&mut vm).unwrap_err() {
                VmError::MachineCheck(mc) => {
                    assert_eq!(mc.kind, FaultKind::StubTargetOutOfRange, "ra {bad:#x}");
                    assert!(mc.pc.is_some() && mc.cycle.is_some());
                }
                other => panic!("untyped error {other:?} for ra {bad:#x}"),
            }
        }
        assert_eq!(rt.stats.decompressions, 0);
    }

    /// The guest can write a restore stub's usage count; a `CreateStub` hit
    /// on a count of `u32::MAX` is a typed `ServiceState` fault, and the
    /// count is left as it was.
    #[test]
    fn full_usage_count_is_typed_not_an_overflow() {
        let mut rt = SquashRuntime::new(cached_config(1, 1));
        let mut vm = squash_vm::Vm::new(1 << 16);
        let decomp_base = rt.cfg.decomp_base;
        let buffer_base = rt.cfg.buffer_base;
        rt.decompress_to(&mut vm, 0, 0).unwrap();
        let create = |rt: &mut SquashRuntime, vm: &mut squash_vm::Vm| {
            vm.set_reg(Reg::RA, buffer_base as i64);
            vm.set_pc(decomp_base + 4 * Reg::RA.number() as u32);
            rt.invoke(vm)
        };
        create(&mut rt, &mut vm).unwrap();
        let count_addr = rt.stub_addr(0) + 8;
        vm.write_bytes(count_addr, &u32::MAX.to_le_bytes());
        match create(&mut rt, &mut vm).unwrap_err() {
            VmError::MachineCheck(mc) => {
                assert_eq!(mc.kind, FaultKind::ServiceState);
                assert_eq!(mc.region, Some(0));
                assert!(mc.detail.contains("overflows"), "{}", mc.detail);
            }
            other => panic!("untyped error {other:?}"),
        }
        assert_eq!(vm.read_word(count_addr), u32::MAX);
    }
}
