//! The SRA interpreter.

use squash_isa::{AluOp, BraOp, Inst, MemOp, PalOp, Reg};

use crate::error::{FaultKind, MachineCheck, VmError};
use crate::icache::{ICache, ICacheConfig, ICacheStats};
use crate::profile::Profile;
use crate::sample::Sampler;
use crate::service::{NoService, Service};

/// Default cap on executed instructions before a run aborts with
/// [`VmError::StepLimit`]. Generous enough for every workload's timing input.
pub const DEFAULT_STEP_LIMIT: u64 = 20_000_000_000;

/// The result of a completed run (the program executed `exit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The exit status (`a0` at the `exit` call).
    pub status: i64,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles consumed: one per instruction plus any service charges. This
    /// is the quantity the paper's execution-time comparisons map to.
    pub cycles: u64,
}

/// The zero register's slot in the register file. The slot is real storage
/// that always holds 0: every register write stores, then re-zeroes it, so
/// reads need no branch.
const ZERO: usize = 31;

/// The decode table grows in exact steps of this many entries (16 KiB of
/// guest text). Letting the `Vec` double instead left freed halves and
/// spare capacity in every worker thread's heap: +7% peak RSS on the
/// ledger's fleet workload, against +1% with these steps.
const TABLE_STEP: usize = 4096;

/// A simulated SRA machine: registers, flat memory, byte-stream I/O, and
/// instruction/cycle counters.
///
/// Fetch goes through a predecoded-instruction table: `decoded[i]` caches
/// the decode of the word at byte address `4·i`. The table is only a cache
/// of memory. A word is decoded the first time it is fetched, every memory
/// write (host [`Vm::write_bytes`] or guest store) clears the entries of the
/// words it covers, and the table grows only to the highest word executed
/// (rounded up to a `TABLE_STEP`). Counters and faults are the same as
/// decoding on every fetch.
#[derive(Debug, Clone)]
pub struct Vm {
    regs: [i64; 32],
    pc: u32,
    mem: Vec<u8>,
    decoded: Vec<Option<Inst>>,
    input: Vec<u8>,
    input_pos: usize,
    output: Vec<u8>,
    instructions: u64,
    cycles: u64,
    step_limit: u64,
    deadline: Option<u64>,
    profile: Option<Profile>,
    icache: Option<ICache>,
    sampler: Option<Sampler>,
}

impl Vm {
    /// Creates a machine with `mem_size` bytes of zeroed memory. The stack
    /// pointer is initialised to 16 bytes below the top of memory.
    pub fn new(mem_size: usize) -> Vm {
        let mut regs = [0i64; 32];
        regs[Reg::SP.number() as usize] = (mem_size as i64) - 16;
        Vm {
            regs,
            pc: 0,
            mem: vec![0; mem_size],
            decoded: Vec::new(),
            input: Vec::new(),
            input_pos: 0,
            output: Vec::new(),
            instructions: 0,
            cycles: 0,
            step_limit: DEFAULT_STEP_LIMIT,
            deadline: None,
            profile: None,
            icache: None,
            sampler: None,
        }
    }

    /// The size of simulated memory in bytes.
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }

    /// Sets the byte stream the program reads with `readb`.
    pub fn set_input(&mut self, input: impl Into<Vec<u8>>) {
        self.input = input.into();
        self.input_pos = 0;
    }

    /// The bytes the program has written with `writeb` so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Takes ownership of the output written so far, leaving it empty.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.output)
    }

    /// Sets the maximum number of instructions a run may execute.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Arms (or with `None` disarms) a **cycle-budget deadline**: once the
    /// simulated cycle counter reaches `budget`, the next instruction
    /// boundary raises a typed [`FaultKind::DeadlineExceeded`] machine check
    /// instead of fetching. Multi-tenant schedulers use this to bound a
    /// runaway instance — the guest surfaces as a diagnosable fault carrying
    /// pc and cycle, never a hang.
    ///
    /// The check only *reads* the cycle counter: a run that finishes under
    /// budget is instruction- and cycle-identical to one with no deadline
    /// armed (the same zero-perturbation contract as tracing and sampling).
    pub fn set_deadline(&mut self, budget: Option<u64>) {
        self.deadline = budget;
    }

    /// The armed cycle-budget deadline, if any.
    pub fn deadline(&self) -> Option<u64> {
        self.deadline
    }

    /// The deadline fault for the current machine state, if the budget has
    /// expired. Checked at every instruction boundary (and before every
    /// service trap, so a service that never returns control to guest code
    /// cannot dodge it).
    fn deadline_check(&self) -> Result<(), VmError> {
        match self.deadline {
            Some(budget) if self.cycles >= budget => {
                Err(VmError::MachineCheck(MachineCheck {
                    pc: Some(self.pc),
                    cycle: Some(self.cycles),
                    ..MachineCheck::new(
                        FaultKind::DeadlineExceeded,
                        format!(
                            "cycle budget of {budget} exhausted ({} cycles consumed)",
                            self.cycles
                        ),
                    )
                }))
            }
            _ => Ok(()),
        }
    }

    /// The step-limit and deadline checks of an instruction boundary.
    fn check_limits(&self) -> Result<(), VmError> {
        if self.instructions >= self.step_limit {
            return Err(VmError::StepLimit {
                limit: self.step_limit,
            });
        }
        self.deadline_check()
    }

    /// A cycle count below which [`Vm::check_limits`] cannot fail while only
    /// guest instructions run. Each one adds one instruction and at least
    /// one cycle, so fewer cycles than the steps left to the limit cannot
    /// have used those steps up.
    fn limits_bound(&self) -> u64 {
        let steps_left = self.step_limit.saturating_sub(self.instructions);
        let bound = self.cycles.saturating_add(steps_left);
        self.deadline.map_or(bound, |budget| bound.min(budget))
    }

    /// Starts recording a per-PC execution profile over `words` instruction
    /// slots at byte address `base`.
    pub fn enable_profile(&mut self, base: u32, words: usize) {
        self.profile = Some(Profile::new(base, words));
    }

    /// Takes the recorded profile, if profiling was enabled.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.profile.take()
    }

    /// Starts deterministic pc sampling: the pc is recorded at every
    /// `period`-cycle tick of the simulated clock (see [`Sampler`]).
    /// Sampling never perturbs the run — instruction and cycle counts are
    /// identical with and without it.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable_sampling(&mut self, period: u64) {
        self.sampler = Some(Sampler::new(period));
    }

    /// Takes the recorded samples, if sampling was enabled.
    pub fn take_samples(&mut self) -> Option<Sampler> {
        self.sampler.take()
    }

    /// Enables the instruction-cache model (see [`ICacheConfig`]); every
    /// fetch is looked up and misses charge extra cycles.
    pub fn enable_icache(&mut self, config: ICacheConfig) {
        self.icache = Some(ICache::new(config));
    }

    /// Invalidates the instruction cache, as the paper's decompressor does
    /// after filling the runtime buffer. No-op when the model is disabled.
    pub fn flush_icache(&mut self) {
        if let Some(c) = self.icache.as_mut() {
            c.flush();
        }
    }

    /// Instruction-cache statistics, if the model is enabled.
    pub fn icache_stats(&self) -> Option<ICacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// Reads register `r` (the zero register always reads 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> i64 {
        // A `Reg` is below 32; the mask only lets the compiler drop the
        // bounds check.
        self.regs[(r.number() & 31) as usize]
    }

    /// Writes register `r` (writes to the zero register are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        self.regs[(r.number() & 31) as usize] = value;
        self.regs[ZERO] = 0;
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycles consumed so far (instructions + service charges).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Adds `n` cycles to the cycle counter. Services use this to account
    /// for the time their simulated equivalent would take (e.g. the
    /// decompressor's per-bit decode cost).
    pub fn charge_cycles(&mut self, n: u64) {
        self.cycles += n;
        // A multi-cycle charge can cover several sample ticks; they all
        // record at the current pc (inside a service, the trap-window pc),
        // so charged time weighs proportionally in sampling profiles.
        let pc = self.pc;
        if let Some(s) = self.sampler.as_mut() {
            s.record(self.cycles, pc);
        }
    }

    /// Copies `bytes` into memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside memory (loader misuse, not a guest
    /// fault).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let start = addr as usize;
        let end = start + bytes.len();
        self.mem[start..end].copy_from_slice(bytes);
        self.invalidate(start, end);
    }

    /// Reads `len` bytes of memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside memory.
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    /// Writes a sequence of 32-bit instruction words at `addr`
    /// (little-endian), e.g. to load a text segment.
    pub fn load_words(&mut self, addr: u32, words: impl IntoIterator<Item = u32>) {
        let mut a = addr;
        for w in words {
            self.write_bytes(a, &w.to_le_bytes());
            a += 4;
        }
    }

    /// Reads the 32-bit word at `addr` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside memory.
    pub fn read_word(&self, addr: u32) -> u32 {
        self.try_read_word(addr)
            .unwrap_or_else(|| panic!("word at {addr:#010x} lies outside memory"))
    }

    /// Reads the 32-bit word at `addr` (little-endian), or `None` if any of
    /// its bytes lie outside memory. Services reading an address the guest
    /// controls use this and raise a typed fault on `None`.
    pub fn try_read_word(&self, addr: u32) -> Option<u32> {
        let bytes = self.mem.get(addr as usize..)?.first_chunk::<4>()?;
        Some(u32::from_le_bytes(*bytes))
    }

    /// Clears the table entries of every word overlapping bytes
    /// `start..end`, so their next fetch decodes memory again.
    #[inline]
    fn invalidate(&mut self, start: usize, end: usize) {
        let first = start / 4;
        if first < self.decoded.len() {
            let last = end.div_ceil(4).min(self.decoded.len());
            self.decoded[first..last].fill(None);
        }
    }

    /// The `N` bytes at `addr`, or a memory fault at `pc`.
    #[inline]
    fn load<const N: usize>(&self, addr: u32, pc: u32) -> Result<[u8; N], VmError> {
        self.mem
            .get(addr as usize..)
            .and_then(<[u8]>::first_chunk::<N>)
            .copied()
            .ok_or(VmError::MemFault { addr, pc })
    }

    /// Stores the low `N` bytes of `value` at `addr` (little-endian), or
    /// faults at `pc`.
    #[inline]
    fn store<const N: usize>(&mut self, addr: u32, value: i64, pc: u32) -> Result<(), VmError> {
        let start = addr as usize;
        let slot = self
            .mem
            .get_mut(start..)
            .and_then(<[u8]>::first_chunk_mut::<N>)
            .ok_or(VmError::MemFault { addr, pc })?;
        slot.copy_from_slice(&value.to_le_bytes()[..N]);
        self.invalidate(start, start + N);
        Ok(())
    }

    /// The instruction at `pc`: from the table when it holds the word,
    /// else decoded from memory.
    #[inline]
    fn fetch(&mut self, pc: u32) -> Result<Inst, VmError> {
        if pc.is_multiple_of(4) {
            if let Some(&Some(inst)) = self.decoded.get((pc / 4) as usize) {
                return Ok(inst);
            }
        }
        self.decode_at(pc)
    }

    /// Decodes the word at `pc` into the table. A misaligned pc or one whose
    /// word is not wholly in memory is `BadPc`, and an invalid word is
    /// `IllegalInstruction` and stays out of the table, so a table entry
    /// always stands for a fetchable, valid word.
    #[cold]
    fn decode_at(&mut self, pc: u32) -> Result<Inst, VmError> {
        if !pc.is_multiple_of(4) || (pc as usize) + 4 > self.mem.len() {
            return Err(VmError::BadPc { pc });
        }
        let word = self.read_word(pc);
        let inst = Inst::decode(word).map_err(|_| VmError::IllegalInstruction { pc, word })?;
        let index = (pc / 4) as usize;
        if index >= self.decoded.len() {
            let len = (index + 1).next_multiple_of(TABLE_STEP);
            self.decoded.reserve_exact(len - self.decoded.len());
            self.decoded.resize(len, None);
        }
        self.decoded[index] = Some(inst);
        Ok(inst)
    }

    /// Runs until `exit`, with no host service mapped.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] fault aborts the run.
    pub fn run(&mut self) -> Result<RunOutcome, VmError> {
        self.run_with(&mut NoService)
    }

    /// Runs until `exit`, trapping to `service` whenever the PC enters its
    /// range.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] fault aborts the run; service errors are passed
    /// through.
    pub fn run_with(&mut self, service: &mut dyn Service) -> Result<RunOutcome, VmError> {
        let range = service.range();
        // One compare against this bound stands in for the step-limit and
        // deadline checks; it is recomputed whenever it is reached and after
        // every service call, which may charge cycles or re-arm a limit.
        let mut bound = self.limits_bound();
        loop {
            if range.contains(&self.pc) {
                // The deadline is also enforced here: a service sets the pc
                // before returning, so a trap loop that never reaches guest
                // code still terminates with the typed fault.
                self.deadline_check()?;
                service.invoke(self)?;
                bound = self.limits_bound();
                continue;
            }
            if self.cycles >= bound {
                self.check_limits()?;
                bound = self.limits_bound();
            }
            if let Some(status) = self.execute()? {
                return Ok(RunOutcome {
                    status,
                    instructions: self.instructions,
                    cycles: self.cycles,
                });
            }
        }
    }

    /// Executes a single instruction. Returns `Some(status)` when the
    /// program exits.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any machine fault.
    pub fn step(&mut self) -> Result<Option<i64>, VmError> {
        self.check_limits()?;
        self.execute()
    }

    /// Fetches, counts and executes the instruction at the pc: one step
    /// past the limit checks. Forced inline, as is `alu`: on the paper
    /// programs that is about a sixth less host time per instruction than
    /// the compiler's own choice.
    #[inline(always)]
    fn execute(&mut self) -> Result<Option<i64>, VmError> {
        let pc = self.pc;
        let inst = self.fetch(pc)?;
        self.instructions += 1;
        self.cycles += 1;
        if let Some(c) = self.icache.as_mut() {
            self.cycles += c.fetch(pc);
        }
        if let Some(p) = self.profile.as_mut() {
            p.record(pc);
        }
        if let Some(s) = self.sampler.as_mut() {
            s.record(self.cycles, pc);
        }
        let mut next = pc.wrapping_add(4);
        match inst {
            Inst::Mem { op, ra, rb, disp } => {
                let ea = self.reg(rb).wrapping_add(disp as i64);
                let addr = ea as u32;
                match op {
                    MemOp::Lda => self.set_reg(ra, ea),
                    MemOp::Ldah => self.set_reg(
                        ra,
                        self.reg(rb).wrapping_add((disp as i64) * 65536),
                    ),
                    MemOp::Ldb => {
                        let [b] = self.load(addr, pc)?;
                        self.set_reg(ra, b as i8 as i64);
                    }
                    MemOp::Ldbu => {
                        let [b] = self.load(addr, pc)?;
                        self.set_reg(ra, b as i64);
                    }
                    MemOp::Ldl => {
                        let v = i32::from_le_bytes(self.load(addr, pc)?);
                        self.set_reg(ra, v as i64);
                    }
                    MemOp::Ldq => {
                        let v = i64::from_le_bytes(self.load(addr, pc)?);
                        self.set_reg(ra, v);
                    }
                    MemOp::Stb => self.store::<1>(addr, self.reg(ra), pc)?,
                    MemOp::Stl => self.store::<4>(addr, self.reg(ra), pc)?,
                    MemOp::Stq => self.store::<8>(addr, self.reg(ra), pc)?,
                }
            }
            Inst::Bra { op, ra, disp } => {
                let target = next.wrapping_add((disp as u32).wrapping_mul(4));
                let taken = match op {
                    BraOp::Br | BraOp::Bsr => {
                        self.set_reg(ra, next as i64);
                        true
                    }
                    BraOp::Beq => self.reg(ra) == 0,
                    BraOp::Bne => self.reg(ra) != 0,
                    BraOp::Blt => self.reg(ra) < 0,
                    BraOp::Ble => self.reg(ra) <= 0,
                    BraOp::Bgt => self.reg(ra) > 0,
                    BraOp::Bge => self.reg(ra) >= 0,
                    BraOp::Blbc => self.reg(ra) & 1 == 0,
                    BraOp::Blbs => self.reg(ra) & 1 == 1,
                };
                if taken {
                    next = target;
                }
            }
            Inst::Opr { func, ra, rb, rc } => {
                let v = self.alu(func, self.reg(ra), self.reg(rb), pc)?;
                self.set_reg(rc, v);
            }
            Inst::Imm { func, ra, lit, rc } => {
                let v = self.alu(func, self.reg(ra), lit as i64, pc)?;
                self.set_reg(rc, v);
            }
            Inst::Jmp { ra, rb, .. } => {
                let target = (self.reg(rb) as u32) & !3;
                self.set_reg(ra, next as i64);
                next = target;
            }
            Inst::Pal { func } => match func {
                PalOp::Halt => return Err(VmError::Halted { pc }),
                PalOp::Exit => {
                    self.pc = next;
                    return Ok(Some(self.reg(Reg::A0)));
                }
                PalOp::ReadB => {
                    let v = match self.input.get(self.input_pos) {
                        Some(&b) => {
                            self.input_pos += 1;
                            b as i64
                        }
                        None => -1,
                    };
                    self.set_reg(Reg::V0, v);
                }
                PalOp::WriteB => {
                    let b = self.reg(Reg::A0) as u8;
                    self.output.push(b);
                }
                PalOp::ICount => {
                    self.set_reg(Reg::V0, self.instructions as i64);
                }
            },
            Inst::Illegal => {
                // Only the all-zero-payload sentinel word decodes to
                // `Illegal`, so re-encoding gives back the fetched word.
                return Err(VmError::IllegalInstruction {
                    pc,
                    word: inst.encode(),
                });
            }
        }
        self.pc = next;
        Ok(None)
    }

    #[inline(always)]
    fn alu(&self, func: AluOp, a: i64, b: i64, pc: u32) -> Result<i64, VmError> {
        let sh = (b & 63) as u32;
        Ok(match func {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return Err(VmError::DivideByZero { pc });
                }
                a.wrapping_div(b)
            }
            AluOp::Rem => {
                if b == 0 {
                    return Err(VmError::DivideByZero { pc });
                }
                a.wrapping_rem(b)
            }
            AluOp::Udiv => {
                if b == 0 {
                    return Err(VmError::DivideByZero { pc });
                }
                ((a as u64) / (b as u64)) as i64
            }
            AluOp::Urem => {
                if b == 0 {
                    return Err(VmError::DivideByZero { pc });
                }
                ((a as u64) % (b as u64)) as i64
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Bic => a & !b,
            AluOp::Sll => ((a as u64) << sh) as i64,
            AluOp::Srl => ((a as u64) >> sh) as i64,
            AluOp::Sra => a >> sh,
            AluOp::Cmpeq => (a == b) as i64,
            AluOp::Cmpne => (a != b) as i64,
            AluOp::Cmplt => (a < b) as i64,
            AluOp::Cmple => (a <= b) as i64,
            AluOp::Cmpult => ((a as u64) < (b as u64)) as i64,
            AluOp::Cmpule => ((a as u64) <= (b as u64)) as i64,
            AluOp::Sextb => a as i8 as i64,
            AluOp::Sextl => a as i32 as i64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squash_testkit::{cases, Rng};

    fn run_program(insts: &[Inst], input: &[u8]) -> (RunOutcome, Vec<u8>) {
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, insts.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        vm.set_input(input.to_vec());
        let out = vm.run().expect("program faulted");
        let bytes = vm.take_output();
        (out, bytes)
    }

    fn lda(ra: Reg, disp: i16, rb: Reg) -> Inst {
        Inst::Mem { op: MemOp::Lda, ra, rb, disp }
    }

    fn exit() -> Inst {
        Inst::Pal { func: PalOp::Exit }
    }

    #[test]
    fn exit_status_is_a0() {
        let (out, _) = run_program(&[lda(Reg::A0, 42, Reg::ZERO), exit()], &[]);
        assert_eq!(out.status, 42);
        assert_eq!(out.instructions, 2);
        assert_eq!(out.cycles, 2);
    }

    #[test]
    fn io_echo() {
        // loop: readb; blt v0, done; mov v0->a0; writeb; br loop; done: exit 0
        let prog = [
            Inst::Pal { func: PalOp::ReadB },
            Inst::Bra { op: BraOp::Blt, ra: Reg::V0, disp: 3 },
            Inst::Opr { func: AluOp::Or, ra: Reg::V0, rb: Reg::ZERO, rc: Reg::A0 },
            Inst::Pal { func: PalOp::WriteB },
            Inst::Bra { op: BraOp::Br, ra: Reg::ZERO, disp: -5 },
            lda(Reg::A0, 0, Reg::ZERO),
            exit(),
        ];
        let (out, bytes) = run_program(&prog, b"hello");
        assert_eq!(out.status, 0);
        assert_eq!(bytes, b"hello");
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let prog = [
            lda(Reg::T0, 0x2000, Reg::ZERO),
            lda(Reg::T1, -1234, Reg::ZERO),
            Inst::Mem { op: MemOp::Stq, ra: Reg::T1, rb: Reg::T0, disp: 8 },
            Inst::Mem { op: MemOp::Ldq, ra: Reg::T2, rb: Reg::T0, disp: 8 },
            Inst::Opr { func: AluOp::Or, ra: Reg::T2, rb: Reg::ZERO, rc: Reg::A0 },
            exit(),
        ];
        let (out, _) = run_program(&prog, &[]);
        assert_eq!(out.status, -1234);
    }

    #[test]
    fn byte_and_long_widths() {
        let prog = [
            lda(Reg::T0, 0x2000, Reg::ZERO),
            lda(Reg::T1, -1, Reg::ZERO), // 0xFF...FF
            Inst::Mem { op: MemOp::Stb, ra: Reg::T1, rb: Reg::T0, disp: 0 },
            Inst::Mem { op: MemOp::Ldbu, ra: Reg::T2, rb: Reg::T0, disp: 0 },
            Inst::Mem { op: MemOp::Ldb, ra: Reg::T3, rb: Reg::T0, disp: 0 },
            // a0 = t2 + t3  (255 + -1 = 254)
            Inst::Opr { func: AluOp::Add, ra: Reg::T2, rb: Reg::T3, rc: Reg::A0 },
            exit(),
        ];
        let (out, _) = run_program(&prog, &[]);
        assert_eq!(out.status, 254);
    }

    #[test]
    fn ldl_sign_extends() {
        let prog = [
            lda(Reg::T0, 0x2000, Reg::ZERO),
            lda(Reg::T1, -1, Reg::ZERO),
            Inst::Mem { op: MemOp::Stl, ra: Reg::T1, rb: Reg::T0, disp: 0 },
            // Clobber the upper half of the quad to prove ldl ignores it.
            Inst::Mem { op: MemOp::Stl, ra: Reg::ZERO, rb: Reg::T0, disp: 4 },
            Inst::Mem { op: MemOp::Ldl, ra: Reg::A0, rb: Reg::T0, disp: 0 },
            exit(),
        ];
        let (out, _) = run_program(&prog, &[]);
        assert_eq!(out.status, -1);
    }

    #[test]
    fn bsr_links_and_ret_returns() {
        // main: bsr ra,f ; a0 = v0 ; exit     f: v0 = 9 ; ret
        let prog = [
            Inst::Bra { op: BraOp::Bsr, ra: Reg::RA, disp: 2 },
            Inst::Opr { func: AluOp::Or, ra: Reg::V0, rb: Reg::ZERO, rc: Reg::A0 },
            exit(),
            lda(Reg::V0, 9, Reg::ZERO),
            Inst::Jmp { ra: Reg::ZERO, rb: Reg::RA, hint: 0 },
        ];
        let (out, _) = run_program(&prog, &[]);
        assert_eq!(out.status, 9);
    }

    #[test]
    fn zero_register_is_immutable() {
        let prog = [
            lda(Reg::ZERO, 55, Reg::ZERO),
            Inst::Opr { func: AluOp::Or, ra: Reg::ZERO, rb: Reg::ZERO, rc: Reg::A0 },
            exit(),
        ];
        let (out, _) = run_program(&prog, &[]);
        assert_eq!(out.status, 0);
    }

    #[test]
    fn divide_by_zero_faults() {
        let prog = [
            Inst::Opr { func: AluOp::Div, ra: Reg::T0, rb: Reg::ZERO, rc: Reg::T0 },
            exit(),
        ];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        assert_eq!(vm.run(), Err(VmError::DivideByZero { pc: 0x1000 }));
    }

    #[test]
    fn sentinel_faults_as_illegal() {
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, [Inst::Illegal.encode()]);
        vm.set_pc(0x1000);
        assert_eq!(
            vm.run(),
            Err(VmError::IllegalInstruction { pc: 0x1000, word: Inst::Illegal.encode() })
        );
    }

    #[test]
    fn mem_fault_reports_address() {
        let prog = [Inst::Mem { op: MemOp::Ldq, ra: Reg::T0, rb: Reg::ZERO, disp: -8 }];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        match vm.run() {
            Err(VmError::MemFault { pc, .. }) => assert_eq!(pc, 0x1000),
            other => panic!("expected mem fault, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_enforced() {
        // Infinite loop.
        let prog = [Inst::Bra { op: BraOp::Br, ra: Reg::ZERO, disp: -1 }];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        vm.set_step_limit(1000);
        assert_eq!(vm.run(), Err(VmError::StepLimit { limit: 1000 }));
        assert_eq!(vm.instructions(), 1000);
    }

    #[test]
    fn deadline_fires_as_typed_machine_check() {
        // Infinite loop: without a deadline this would run to the step
        // limit; with one it must surface as a typed fault carrying the
        // cycle the budget expired at.
        let prog = [Inst::Bra { op: BraOp::Br, ra: Reg::ZERO, disp: -1 }];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        vm.set_deadline(Some(100));
        match vm.run() {
            Err(VmError::MachineCheck(mc)) => {
                assert_eq!(mc.kind, crate::FaultKind::DeadlineExceeded);
                assert_eq!(mc.cycle, Some(100));
                assert_eq!(mc.pc, Some(0x1000));
            }
            other => panic!("expected deadline machine check, got {other:?}"),
        }
    }

    #[test]
    fn unexpired_deadline_is_zero_perturbation() {
        // t0 = 50; loop: t0 -= 1; bne t0, loop; exit
        let prog = [
            lda(Reg::T0, 50, Reg::ZERO),
            Inst::Imm { func: AluOp::Sub, ra: Reg::T0, lit: 1, rc: Reg::T0 },
            Inst::Bra { op: BraOp::Bne, ra: Reg::T0, disp: -2 },
            lda(Reg::A0, 3, Reg::ZERO),
            exit(),
        ];
        let run = |deadline: Option<u64>| {
            let mut vm = Vm::new(1 << 16);
            vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
            vm.set_pc(0x1000);
            vm.set_deadline(deadline);
            vm.run().unwrap()
        };
        let plain = run(None);
        // A budget of exactly the run's cycles never fires: the check uses
        // `>=` at the *next* fetch, and the program exits first.
        assert_eq!(run(Some(plain.cycles)), plain);
        assert_eq!(run(Some(u64::MAX)), plain);
        // One cycle short fails — and deterministically at the same spot.
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        vm.set_deadline(Some(plain.cycles - 1));
        let e1 = vm.run().unwrap_err();
        assert!(matches!(&e1, VmError::MachineCheck(mc)
            if mc.kind == crate::FaultKind::DeadlineExceeded));
    }

    #[test]
    fn profile_counts_loop_iterations() {
        // t0 = 5; loop: t0 -= 1; bne t0, loop; exit
        let prog = [
            lda(Reg::T0, 5, Reg::ZERO),
            Inst::Imm { func: AluOp::Sub, ra: Reg::T0, lit: 1, rc: Reg::T0 },
            Inst::Bra { op: BraOp::Bne, ra: Reg::T0, disp: -2 },
            lda(Reg::A0, 0, Reg::ZERO),
            exit(),
        ];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        vm.enable_profile(0x1000, prog.len());
        vm.run().unwrap();
        let p = vm.take_profile().unwrap();
        assert_eq!(p.count_at(0x1000), 1);
        assert_eq!(p.count_at(0x1004), 5);
        assert_eq!(p.count_at(0x1008), 5);
        assert_eq!(p.count_at(0x100C), 1);
    }

    #[test]
    fn sampling_is_deterministic_and_free() {
        // t0 = 500; loop: t0 -= 1; bne t0, loop; exit
        let prog = [
            lda(Reg::T0, 500, Reg::ZERO),
            Inst::Imm { func: AluOp::Sub, ra: Reg::T0, lit: 1, rc: Reg::T0 },
            Inst::Bra { op: BraOp::Bne, ra: Reg::T0, disp: -2 },
            lda(Reg::A0, 0, Reg::ZERO),
            exit(),
        ];
        let run = |period: Option<u64>| {
            let mut vm = Vm::new(1 << 16);
            vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
            vm.set_pc(0x1000);
            if let Some(p) = period {
                vm.enable_sampling(p);
            }
            let out = vm.run().unwrap();
            (out, vm.take_samples())
        };
        let (plain, none) = run(None);
        let (sampled, samples) = run(Some(7));
        assert!(none.is_none());
        // Zero perturbation: identical counters with and without sampling.
        assert_eq!(plain, sampled);
        let s = samples.unwrap();
        assert_eq!(s.ticks(), plain.cycles / 7);
        assert_eq!(s.dropped(), 0);
        // Deterministic: a second run records the identical sample set.
        let (_, again) = run(Some(7));
        assert_eq!(s.samples(), again.unwrap().samples());
        // Every tick is a period multiple and pcs are in-program.
        for x in s.samples() {
            assert_eq!(x.cycle % 7, 0);
            assert!((0x1000..0x1000 + 4 * prog.len() as u32).contains(&x.pc));
        }
    }

    #[test]
    fn charged_cycles_sample_at_the_trap_pc() {
        struct Charge;
        impl Service for Charge {
            fn range(&self) -> std::ops::Range<u32> {
                0x8000..0x8010
            }
            fn invoke(&mut self, vm: &mut Vm) -> Result<(), VmError> {
                vm.charge_cycles(100);
                let ra = vm.reg(Reg::RA) as u32;
                vm.set_pc(ra);
                Ok(())
            }
        }
        let prog = [
            Inst::Bra { op: BraOp::Bsr, ra: Reg::RA, disp: ((0x8000 - 0x1004) / 4) },
            lda(Reg::A0, 0, Reg::ZERO),
            exit(),
        ];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        vm.enable_sampling(10);
        vm.run_with(&mut Charge).unwrap();
        let s = vm.take_samples().unwrap();
        // The 100-cycle charge covers ten ticks, all at the trap-window pc.
        let in_trap = s.samples().iter().filter(|x| x.pc == 0x8000).count();
        assert_eq!(in_trap, 10, "{:?}", s.samples());
    }

    #[test]
    fn service_trap_invoked() {
        struct Bump;
        impl Service for Bump {
            fn range(&self) -> std::ops::Range<u32> {
                0x8000..0x8010
            }
            fn invoke(&mut self, vm: &mut Vm) -> Result<(), VmError> {
                vm.set_reg(Reg::V0, 123);
                vm.charge_cycles(50);
                let ra = vm.reg(Reg::RA) as u32;
                vm.set_pc(ra);
                Ok(())
            }
        }
        // bsr ra, <service>; a0 = v0; exit — the service returns to ra.
        let prog = [
            Inst::Bra { op: BraOp::Bsr, ra: Reg::RA, disp: ((0x8000 - 0x1004) / 4) },
            Inst::Opr { func: AluOp::Or, ra: Reg::V0, rb: Reg::ZERO, rc: Reg::A0 },
            exit(),
        ];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        let out = vm.run_with(&mut Bump).unwrap();
        assert_eq!(out.status, 123);
        assert_eq!(out.cycles, out.instructions + 50);
    }

    /// A service charge carries the cycle counter past a deadline the guest
    /// alone would not reach: the folded limit check must see it at the
    /// next instruction boundary, exactly as a per-step check does.
    #[test]
    fn deadline_crossed_by_a_service_charge_fires_at_the_next_boundary() {
        struct Charge;
        impl Service for Charge {
            fn range(&self) -> std::ops::Range<u32> {
                0x8000..0x8010
            }
            fn invoke(&mut self, vm: &mut Vm) -> Result<(), VmError> {
                vm.charge_cycles(1000);
                let ra = vm.reg(Reg::RA) as u32;
                vm.set_pc(ra);
                Ok(())
            }
        }
        let prog = [
            Inst::Bra { op: BraOp::Bsr, ra: Reg::RA, disp: ((0x8000 - 0x1004) / 4) },
            lda(Reg::A0, 0, Reg::ZERO),
            exit(),
        ];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_pc(0x1000);
        vm.set_deadline(Some(500));
        match vm.run_with(&mut Charge) {
            Err(VmError::MachineCheck(mc)) => {
                assert_eq!(mc.kind, crate::FaultKind::DeadlineExceeded);
                assert_eq!((mc.pc, mc.cycle), (Some(0x1004), Some(1001)));
            }
            other => panic!("expected deadline machine check, got {other:?}"),
        }
        assert_eq!(vm.instructions(), 1, "nothing ran after the charge");
    }

    #[test]
    fn icount_reads_instruction_counter() {
        let prog = [
            Inst::NOP,
            Inst::Pal { func: PalOp::ICount },
            Inst::Opr { func: AluOp::Or, ra: Reg::V0, rb: Reg::ZERO, rc: Reg::A0 },
            exit(),
        ];
        let (out, _) = run_program(&prog, &[]);
        assert_eq!(out.status, 2); // nop + icount itself
    }

    #[test]
    fn readb_returns_minus_one_on_eof() {
        let prog = [
            Inst::Pal { func: PalOp::ReadB },
            Inst::Opr { func: AluOp::Or, ra: Reg::V0, rb: Reg::ZERO, rc: Reg::A0 },
            exit(),
        ];
        let (out, _) = run_program(&prog, &[]);
        assert_eq!(out.status, -1);
    }

    #[test]
    fn try_read_word_is_none_outside_memory() {
        let mut vm = Vm::new(0x1006);
        vm.write_bytes(0x1000, &0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(vm.try_read_word(0x1000), Some(0xDEAD_BEEF));
        assert_eq!(vm.try_read_word(0x1003), None, "straddles the end");
        assert_eq!(vm.try_read_word(0x1006), None);
        assert_eq!(vm.try_read_word(0xFFFF_FFF0), None);
    }

    // The predecoded-instruction table against memory: every write is seen
    // by the next fetch, and `BadPc` keeps its exact conditions.

    /// A word no instruction decodes from (unknown primary opcode).
    const BAD_WORD: u32 = (0x0A << 26) | (0x3F << 20);

    /// Runs a loop whose second pass executes `0x1004` after the guest
    /// overwrote it with the word stored at `0x2000`:
    ///
    /// ```text
    /// 0x1000: lda t2, 0(zero)
    /// 0x1004: lda a0, 1(zero)     ; rewritten by the stl below
    /// 0x1008: bne t2, 0x101c
    /// 0x100c: ldl t1, 0x2000(zero)
    /// 0x1010: stl t1, 0x1004(zero)
    /// 0x1014: lda t2, 1(zero)
    /// 0x1018: br  0x1004
    /// 0x101c: exit
    /// ```
    fn run_self_storing(new_word: u32) -> Result<RunOutcome, VmError> {
        let prog = [
            lda(Reg::T2, 0, Reg::ZERO),
            lda(Reg::A0, 1, Reg::ZERO),
            Inst::Bra { op: BraOp::Bne, ra: Reg::T2, disp: 4 },
            Inst::Mem { op: MemOp::Ldl, ra: Reg::T1, rb: Reg::ZERO, disp: 0x2000 },
            Inst::Mem { op: MemOp::Stl, ra: Reg::T1, rb: Reg::ZERO, disp: 0x1004 },
            lda(Reg::T2, 1, Reg::ZERO),
            Inst::Bra { op: BraOp::Br, ra: Reg::ZERO, disp: -6 },
            exit(),
        ];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.write_bytes(0x2000, &new_word.to_le_bytes());
        vm.set_pc(0x1000);
        vm.run()
    }

    #[test]
    fn guest_store_into_text_runs_the_new_instruction() {
        let out = run_self_storing(lda(Reg::A0, 2, Reg::ZERO).encode()).unwrap();
        assert_eq!(out.status, 2, "the second pass ran the stored instruction");
        assert_eq!(out.instructions, 10);
    }

    #[test]
    fn guest_store_of_an_invalid_word_faults_with_that_word() {
        assert_eq!(
            run_self_storing(BAD_WORD),
            Err(VmError::IllegalInstruction { pc: 0x1004, word: BAD_WORD })
        );
    }

    #[test]
    fn byte_store_into_a_decoded_word_is_seen() {
        // Pass 1 runs `lda a0, 1(zero)`, then `stb` rewrites that word's
        // low byte (its displacement) to 7; pass 2 runs the patched word.
        let prog = [
            lda(Reg::A0, 1, Reg::ZERO),
            Inst::Bra { op: BraOp::Bne, ra: Reg::T2, disp: 3 },
            Inst::Mem { op: MemOp::Stb, ra: Reg::T0, rb: Reg::ZERO, disp: 0x1000 },
            lda(Reg::T2, 1, Reg::ZERO),
            Inst::Bra { op: BraOp::Br, ra: Reg::ZERO, disp: -5 },
            exit(),
        ];
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, prog.iter().map(|i| i.encode()));
        vm.set_reg(Reg::T0, 7);
        vm.set_pc(0x1000);
        assert_eq!(vm.run().unwrap().status, 7);
    }

    #[test]
    fn host_write_over_an_executed_word_is_decoded_again() {
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, [lda(Reg::A0, 1, Reg::ZERO).encode(), exit().encode()]);
        vm.set_pc(0x1000);
        assert_eq!(vm.run().unwrap().status, 1);
        vm.load_words(0x1000, [lda(Reg::A0, 5, Reg::ZERO).encode()]);
        vm.set_pc(0x1000);
        assert_eq!(vm.run().unwrap().status, 5);
        // An invalid word written over a decoded one faults with that word.
        vm.write_bytes(0x1000, &BAD_WORD.to_le_bytes());
        vm.set_pc(0x1000);
        assert_eq!(vm.run(), Err(VmError::IllegalInstruction { pc: 0x1000, word: BAD_WORD }));
    }

    #[test]
    fn misaligned_pc_is_bad_even_next_to_a_decoded_word() {
        let mut vm = Vm::new(1 << 16);
        vm.load_words(0x1000, [lda(Reg::A0, 1, Reg::ZERO).encode(), exit().encode()]);
        vm.set_pc(0x1000);
        vm.run().unwrap();
        for pc in [0x1001, 0x1002, 0x1003] {
            vm.set_pc(pc);
            assert_eq!(vm.run(), Err(VmError::BadPc { pc }));
            assert_eq!(vm.step(), Err(VmError::BadPc { pc }));
        }
    }

    #[test]
    fn pc_past_the_end_of_an_odd_sized_memory_is_bad() {
        // 0x1006 bytes: the last full word is 0x1000..0x1004; the word at
        // 0x1004 has only two of its bytes in memory.
        let mut vm = Vm::new(0x1006);
        vm.load_words(0x0FFC, [lda(Reg::A0, 3, Reg::ZERO).encode(), exit().encode()]);
        vm.set_pc(0x0FFC);
        assert_eq!(vm.run().unwrap().status, 3, "the last full word fetches");
        vm.load_words(0x1000, [Inst::NOP.encode()]);
        vm.set_pc(0x0FFC);
        assert_eq!(vm.run(), Err(VmError::BadPc { pc: 0x1004 }));
        for pc in [0x1004, 0x1008, 0xFFFF_FFFC] {
            vm.set_pc(pc);
            assert_eq!(vm.step(), Err(VmError::BadPc { pc }));
        }
    }

    const TEXT: u32 = 0x1000;
    const WORDS: u32 = 24;
    const REGS: [Reg; 7] = [Reg::V0, Reg::T0, Reg::T1, Reg::T2, Reg::A0, Reg::S0, Reg::ZERO];

    fn arb_reg(rng: &mut Rng) -> Reg {
        *rng.pick(&REGS)
    }

    /// An instruction of a small random program. Loads and stores address
    /// the text through `s0` (which starts at its base), so programs copy,
    /// patch and run their own words.
    fn arb_inst(rng: &mut Rng) -> Inst {
        match rng.below(10) {
            0..=2 => Inst::Mem {
                op: *rng.pick(&[MemOp::Stb, MemOp::Stl, MemOp::Stq, MemOp::Ldl, MemOp::Ldq]),
                ra: arb_reg(rng),
                rb: Reg::S0,
                disp: rng.below(4 * WORDS as u64) as i16,
            },
            3 => Inst::Mem {
                op: *rng.pick(&[MemOp::Lda, MemOp::Ldah]),
                ra: arb_reg(rng),
                rb: arb_reg(rng),
                disp: rng.i16(),
            },
            4 | 5 => Inst::Bra {
                op: *rng.pick(&BraOp::ALL),
                ra: arb_reg(rng),
                disp: rng.range(-8, 8) as i32,
            },
            6 => Inst::Opr {
                func: *rng.pick(&AluOp::ALL),
                ra: arb_reg(rng),
                rb: arb_reg(rng),
                rc: arb_reg(rng),
            },
            7 => Inst::Imm {
                func: *rng.pick(&AluOp::ALL),
                ra: arb_reg(rng),
                lit: rng.u8(),
                rc: arb_reg(rng),
            },
            8 => Inst::Pal {
                func: *rng.pick(&[PalOp::ReadB, PalOp::WriteB, PalOp::ICount, PalOp::Exit]),
            },
            _ => Inst::Jmp { ra: arb_reg(rng), rb: arb_reg(rng), hint: 0 },
        }
    }

    fn arb_machine(rng: &mut Rng) -> Vm {
        let mut vm = Vm::new(1 << 14);
        let text: Vec<u32> = (0..WORDS).map(|_| arb_inst(rng).encode()).collect();
        vm.load_words(TEXT, text);
        vm.set_pc(TEXT);
        for r in &REGS[..5] {
            // About half the registers hold an instruction word to store.
            let v = if rng.bool() { arb_inst(rng).encode() as i64 } else { rng.u64() as i64 };
            vm.set_reg(*r, v);
        }
        vm.set_reg(Reg::S0, TEXT as i64);
        vm.set_input(b"squash".to_vec());
        vm.set_step_limit(rng.range(20, 400) as u64);
        if rng.bool() {
            vm.set_deadline(Some(rng.range(20, 800) as u64));
        }
        if rng.bool() {
            vm.enable_icache(ICacheConfig { size_bytes: 128, line_bytes: 16, ways: 1, miss_cycles: 3 });
        }
        vm
    }

    /// `run()` with the table gives what stepping with the table cleared
    /// before every step (decoding every fetch) gives: the same counters,
    /// output, registers, memory and fault, over random programs that store
    /// into their own text.
    #[test]
    fn prop_predecoded_run_matches_decoding_every_fetch() {
        let mut patched_runs = 0;
        cases(0x5E1F_C0DE, 1024, |rng| {
            let start = arb_machine(rng);
            let original: Vec<u32> = (0..WORDS).map(|i| start.read_word(TEXT + 4 * i)).collect();
            let mut fast = start.clone();
            let got = fast.run();
            let mut slow = start;
            let mut ran_patched_word = false;
            let want = loop {
                slow.decoded.clear();
                let pc = slow.pc;
                let index = (pc.wrapping_sub(TEXT) / 4) as usize;
                if pc.is_multiple_of(4)
                    && index < original.len()
                    && slow.try_read_word(pc) != Some(original[index])
                {
                    ran_patched_word = true;
                }
                match slow.step() {
                    Ok(None) => {}
                    Ok(Some(status)) => {
                        break Ok(RunOutcome {
                            status,
                            instructions: slow.instructions,
                            cycles: slow.cycles,
                        })
                    }
                    Err(e) => break Err(e),
                }
            };
            patched_runs += ran_patched_word as u32;
            assert_eq!(got, want);
            assert_eq!(fast.output(), slow.output());
            assert_eq!((fast.pc, fast.regs), (slow.pc, slow.regs));
            assert_eq!((fast.instructions, fast.cycles), (slow.instructions, slow.cycles));
            assert!(fast.mem == slow.mem, "memory diverged");
            assert_eq!(fast.icache_stats(), slow.icache_stats());
        });
        // The property says something only if programs run words they
        // patched; the seed is fixed, so this count is too.
        assert!(patched_runs >= 100, "only {patched_runs} runs executed a patched word");
    }
}

#[cfg(test)]
mod alu_semantics {
    use super::*;

    /// Runs `func a, b -> a0; exit` and returns the status.
    fn alu(func: AluOp, a: i64, b: i64) -> Result<i64, VmError> {
        let mut vm = Vm::new(1 << 16);
        vm.set_reg(Reg::T0, a);
        vm.set_reg(Reg::T1, b);
        vm.load_words(
            0x1000,
            [
                Inst::Opr { func, ra: Reg::T0, rb: Reg::T1, rc: Reg::A0 }.encode(),
                Inst::Pal { func: PalOp::Exit }.encode(),
            ],
        );
        vm.set_pc(0x1000);
        vm.run().map(|o| o.status)
    }

    #[test]
    fn arithmetic_matches_rust_semantics() {
        let cases: &[(AluOp, i64, i64, i64)] = &[
            (AluOp::Add, i64::MAX, 1, i64::MIN), // wrapping
            (AluOp::Sub, i64::MIN, 1, i64::MAX),
            (AluOp::Mul, 1 << 40, 1 << 40, 0),   // wraps to 2^80 mod 2^64 = 0
            (AluOp::Div, 7, 2, 3),
            (AluOp::Div, -7, 2, -3), // truncated division
            (AluOp::Rem, -7, 2, -1),
            (AluOp::Udiv, -1, 2, i64::MAX), // unsigned view of -1
            (AluOp::Urem, -1, 2, 1),
            (AluOp::And, 0b1100, 0b1010, 0b1000),
            (AluOp::Or, 0b1100, 0b1010, 0b1110),
            (AluOp::Xor, 0b1100, 0b1010, 0b0110),
            (AluOp::Bic, 0b1100, 0b1010, 0b0100),
            (AluOp::Sll, 1, 63, i64::MIN),
            (AluOp::Sll, 1, 64, 1),           // shift count masked to 6 bits
            (AluOp::Srl, -1, 1, i64::MAX),    // logical shift
            (AluOp::Sra, -8, 2, -2),          // arithmetic shift
            (AluOp::Cmpeq, 5, 5, 1),
            (AluOp::Cmpne, 5, 5, 0),
            (AluOp::Cmplt, -1, 0, 1),
            (AluOp::Cmple, 0, 0, 1),
            (AluOp::Cmpult, -1, 0, 0), // unsigned: 2^64-1 not < 0
            (AluOp::Cmpule, 0, -1, 1),
            (AluOp::Sextb, 0x1FF, 0, -1),
            (AluOp::Sextl, 0x1_FFFF_FFFF, 0, -1),
        ];
        for &(func, a, b, expect) in cases {
            assert_eq!(alu(func, a, b), Ok(expect), "{func:?} {a} {b}");
        }
    }

    #[test]
    fn division_faults_are_precise() {
        for func in [AluOp::Div, AluOp::Rem, AluOp::Udiv, AluOp::Urem] {
            assert_eq!(alu(func, 1, 0), Err(VmError::DivideByZero { pc: 0x1000 }));
        }
    }

    #[test]
    fn jmp_masks_low_address_bits() {
        // jmp (t0) with a misaligned target must land on the aligned word.
        let mut vm = Vm::new(1 << 16);
        vm.load_words(
            0x1000,
            [
                Inst::Jmp { ra: Reg::ZERO, rb: Reg::T0, hint: 0 }.encode(),
                Inst::Pal { func: PalOp::Exit }.encode(), // 0x1004: a0 = 0
            ],
        );
        vm.set_reg(Reg::T0, 0x1007); // misaligned pointer to 0x1004
        vm.set_pc(0x1000);
        assert_eq!(vm.run().unwrap().status, 0);
        assert_eq!(vm.pc(), 0x1008);
    }

    #[test]
    fn ldah_scales_by_65536() {
        let mut vm = Vm::new(1 << 16);
        vm.load_words(
            0x1000,
            [
                Inst::Mem { op: MemOp::Ldah, ra: Reg::A0, rb: Reg::ZERO, disp: -2 }.encode(),
                Inst::Pal { func: PalOp::Exit }.encode(),
            ],
        );
        vm.set_pc(0x1000);
        assert_eq!(vm.run().unwrap().status, -131072);
    }
}
