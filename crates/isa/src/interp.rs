//! Architectural reference interpreter.
//!
//! Executes programs one instruction at a time with no timing model. The
//! detailed pipeline simulator is validated against this interpreter: both
//! must commit the identical sequence of architectural register and memory
//! updates (co-simulation).

use crate::exec;
use crate::inst::Inst;
use crate::mem::{Memory, PagedMemory};
use crate::program::Program;
use crate::reg::{ArchReg, RegClass, NUM_FP_REGS, NUM_INT_REGS};
use std::fmt;

/// Why the interpreter stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction was executed.
    Halted,
    /// The instruction budget given to [`Interpreter::run`] was exhausted.
    BudgetExhausted,
}

/// Errors during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The word at `pc` does not decode to a valid instruction.
    InvalidInstruction {
        /// Faulting program counter.
        pc: u32,
        /// The undecodable word.
        word: u32,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::InvalidInstruction { pc, word } => {
                write!(f, "invalid instruction {word:#010x} at pc {pc:#010x}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// A memory access performed by one interpreted instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u32,
    /// Access width in bytes (1, 4 or 8).
    pub width: u32,
    /// True for stores.
    pub is_store: bool,
}

/// What one [`Interpreter::step`] did (used for cache warm-up and tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// PC of the executed instruction.
    pub pc: u32,
    /// Memory access performed, if the instruction was a load or store.
    pub mem: Option<MemAccess>,
}

/// An instruction with the register operands `step` reads and writes.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    inst: Inst,
    sources: [Option<ArchReg>; 2],
    dest: Option<ArchReg>,
}

impl Decoded {
    /// Decode `word`; `None` if it is not an instruction.
    fn new(word: u32) -> Option<Decoded> {
        Inst::decode(word).map(|inst| Decoded {
            inst,
            sources: inst.sources(),
            dest: inst.dest(),
        })
    }
}

/// The architectural state and stepping engine.
///
/// The code image is decoded once, when the interpreter is built: `step`
/// reads a PC inside the image from that table instead of reading and
/// decoding the word in memory. A store that writes into the image
/// decodes the words it touched again, so the table always equals the
/// decoding of memory. PCs outside the image read memory and decode.
#[derive(Debug, Clone)]
pub struct Interpreter {
    pc: u32,
    int_regs: [u32; NUM_INT_REGS],
    fp_regs: [f64; NUM_FP_REGS],
    mem: PagedMemory,
    halted: bool,
    retired: u64,
    /// Address of the first word of the code image.
    code_base: u32,
    /// The decoding of every code-image word (`None`: does not decode).
    decoded: Vec<Option<Decoded>>,
    /// Words decoded so far: the image at construction, image words
    /// re-decoded after a store, and every fetch from outside the image.
    decodes: u64,
}

impl Interpreter {
    /// Load `program` into a fresh memory, decode its code image and set
    /// the PC to its entry.
    pub fn new(program: &Program) -> Interpreter {
        let mut mem = PagedMemory::new();
        program.load_into(&mut mem);
        // Decode the loaded words, so a data segment over the code wins here
        // as it does in memory.
        let decoded = (0..program.code.len() as u32)
            .map(|i| Decoded::new(mem.read_u32(program.code_base.wrapping_add(4 * i))))
            .collect();
        Interpreter {
            pc: program.entry,
            int_regs: [0; NUM_INT_REGS],
            fp_regs: [0.0; NUM_FP_REGS],
            mem,
            halted: false,
            retired: 0,
            code_base: program.code_base,
            decoded,
            decodes: program.code.len() as u64,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// True once a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far (`halt` included).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Read an integer register.
    ///
    /// # Panics
    /// Panics if `r` is not an integer register.
    pub fn int_reg(&self, r: ArchReg) -> u32 {
        assert_eq!(r.class(), RegClass::Int);
        self.int_regs[r.index() as usize]
    }

    /// Read a floating-point register.
    ///
    /// # Panics
    /// Panics if `r` is not a floating-point register.
    pub fn fp_reg(&self, r: ArchReg) -> f64 {
        assert_eq!(r.class(), RegClass::Fp);
        self.fp_regs[r.index() as usize]
    }

    /// Raw bits of any architectural register (used by co-simulation).
    pub fn reg_bits(&self, r: ArchReg) -> u64 {
        match r.class() {
            RegClass::Int => self.int_regs[r.index() as usize] as u64,
            RegClass::Fp => self.fp_regs[r.index() as usize].to_bits(),
        }
    }

    /// Instruction words decoded so far (see [`Interpreter`]).
    pub fn decodes(&self) -> u64 {
        self.decodes
    }

    /// The backing memory.
    pub fn memory(&self) -> &PagedMemory {
        &self.mem
    }

    fn read_src(&self, r: Option<ArchReg>) -> u64 {
        match r {
            Some(r) => self.reg_bits(r),
            None => 0,
        }
    }

    fn write_dest(&mut self, r: ArchReg, bits: u64) {
        match r.class() {
            RegClass::Int => self.int_regs[r.index() as usize] = bits as u32,
            RegClass::Fp => self.fp_regs[r.index() as usize] = f64::from_bits(bits),
        }
    }

    /// The instruction at `pc`: from the decoded image when `pc` is one of
    /// its words, else read from memory and decoded.
    fn fetch(&mut self, pc: u32) -> Result<Decoded, InterpError> {
        let off = pc.wrapping_sub(self.code_base);
        let slot = if off % 4 == 0 {
            self.decoded.get((off / 4) as usize)
        } else {
            None
        };
        let inst = match slot {
            Some(&inst) => inst,
            None => {
                self.decodes += 1;
                Decoded::new(self.mem.read_u32(pc))
            }
        };
        inst.ok_or_else(|| InterpError::InvalidInstruction {
            pc,
            word: self.mem.read_u32(pc),
        })
    }

    /// Decode again every code-image word that a `width`-byte store at
    /// `addr` wrote to.
    fn redecode_stored(&mut self, addr: u32, width: u32) {
        let off = addr.wrapping_sub(self.code_base);
        let image_bytes = 4 * self.decoded.len() as u64;
        // The store's last byte wraps past 2^32 iff `off + width - 1`
        // overflows; only then can an offset above the image reach it.
        if u64::from(off) >= image_bytes && off.checked_add(width - 1).is_some() {
            return;
        }
        let mut last = None;
        for byte in 0..width {
            let o = u64::from(off.wrapping_add(byte));
            let word = o / 4;
            if o < image_bytes && last != Some(word) {
                last = Some(word);
                let bits = self
                    .mem
                    .read_u32(self.code_base.wrapping_add(4 * word as u32));
                self.decoded[word as usize] = Decoded::new(bits);
                self.decodes += 1;
            }
        }
    }

    /// Execute one instruction and report what it did.
    ///
    /// Does nothing once halted (and reports no memory access).
    ///
    /// # Errors
    /// Returns [`InterpError::InvalidInstruction`] if the PC points at a
    /// word that does not decode.
    pub fn step(&mut self) -> Result<StepInfo, InterpError> {
        let pc = self.pc;
        if self.halted {
            return Ok(StepInfo { pc, mem: None });
        }
        let Decoded {
            inst,
            sources: [s1, s2],
            dest,
        } = self.fetch(pc)?;
        let a = self.read_src(s1);
        let b = self.read_src(s2);
        let mut next_pc = pc.wrapping_add(4);
        let mut mem_access = None;

        if inst.is_halt() {
            self.halted = true;
        } else if inst.is_cond_branch() {
            if exec::branch_taken(&inst, a, b) {
                next_pc = exec::control_target(&inst, pc, a);
            }
        } else if inst.is_control() {
            next_pc = exec::control_target(&inst, pc, a);
            if let Some(dest) = dest {
                let link = exec::alu_result(&inst, a, b, pc).expect("calls link");
                self.write_dest(dest, link);
            }
        } else if inst.is_load() {
            let addr = exec::effective_address(&inst, a);
            let bits = self.mem.read_bits(addr, inst.mem_width());
            if let Some(dest) = dest {
                self.write_dest(dest, bits);
            }
            mem_access = Some(MemAccess {
                addr,
                width: inst.mem_width(),
                is_store: false,
            });
        } else if inst.is_store() {
            let addr = exec::effective_address(&inst, a);
            self.mem.write_bits(addr, inst.mem_width(), b);
            self.redecode_stored(addr, inst.mem_width());
            mem_access = Some(MemAccess {
                addr,
                width: inst.mem_width(),
                is_store: true,
            });
        } else if let Some(result) = exec::alu_result(&inst, a, b, pc) {
            if let Some(dest) = dest {
                self.write_dest(dest, result);
            }
        }

        self.pc = next_pc;
        self.retired += 1;
        Ok(StepInfo {
            pc,
            mem: mem_access,
        })
    }

    /// Run until `halt` or until `budget` instructions have retired.
    ///
    /// # Errors
    /// Propagates [`InterpError`] from [`Interpreter::step`].
    pub fn run(&mut self, budget: u64) -> Result<StopReason, InterpError> {
        for _ in 0..budget {
            if self.halted {
                return Ok(StopReason::Halted);
            }
            self.step()?;
        }
        Ok(if self.halted {
            StopReason::Halted
        } else {
            StopReason::BudgetExhausted
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::reg::*;

    fn run(b: ProgramBuilder) -> Interpreter {
        let p = b.finish().unwrap();
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(100_000).unwrap(), StopReason::Halted);
        i
    }

    #[test]
    fn arithmetic_loop() {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 10);
        b.li(R2, 0);
        b.label("loop");
        b.add(R2, R2, R1);
        b.addi(R1, R1, -1);
        b.bne(R1, R0, "loop");
        b.halt();
        let i = run(b);
        assert_eq!(i.int_reg(R2), 55);
        assert_eq!(i.int_reg(R1), 0);
    }

    #[test]
    fn memory_round_trip() {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 0x8000);
        b.li(R2, 0xdead);
        b.sw(R2, R1, 0);
        b.lw(R3, R1, 0);
        b.sb(R2, R1, 8);
        b.lbu(R4, R1, 8);
        b.halt();
        let i = run(b);
        assert_eq!(i.int_reg(R3), 0xdead);
        assert_eq!(i.int_reg(R4), 0xad);
    }

    #[test]
    fn fp_pipeline() {
        let mut b = ProgramBuilder::new(0x1000);
        b.data_f64(0x8000, &[2.0, 8.0]);
        b.li(R1, 0x8000);
        b.fld(F1, R1, 0);
        b.fld(F2, R1, 8);
        b.fmul(F3, F1, F2); // 16
        b.fsqrt(F4, F3); // 4
        b.fadd(F5, F4, F1); // 6
        b.fsd(F5, R1, 16);
        b.fld(F6, R1, 16);
        b.cvtfi(R2, F6);
        b.halt();
        let i = run(b);
        assert_eq!(i.fp_reg(F5), 6.0);
        assert_eq!(i.int_reg(R2), 6);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 1);
        b.jal("func");
        b.addi(R1, R1, 100); // executed after return
        b.halt();
        b.label("func");
        b.addi(R1, R1, 10);
        b.ret();
        let i = run(b);
        assert_eq!(i.int_reg(R1), 111);
    }

    #[test]
    fn indirect_jump_table() {
        let mut b = ProgramBuilder::new(0x1000);
        // Jump through a register to a computed target.
        b.li(R2, 0);
        b.li(R1, 0); // patched below via label math: use data table instead
                     // Store the address of "target" into memory, load and jr.
        b.li(R3, 0x9000);
        b.lw(R4, R3, 0);
        b.jr(R4);
        b.addi(R2, R2, 1); // skipped
        b.label("target");
        b.addi(R2, R2, 2);
        b.halt();
        let p = {
            let mut p = b.finish().unwrap();
            // Find "target" address: instruction index 8 in stream? Compute from
            // disassembly: locate the `addi r2, r2, +2`.
            let target = p
                .disassemble()
                .iter()
                .find(|(_, t)| t == "addi r2, r2, 2")
                .map(|(a, _)| *a)
                .unwrap();
            p.data.push((0x9000, target.to_le_bytes().to_vec()));
            p
        };
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.int_reg(R2), 2);
    }

    #[test]
    fn budget_exhaustion() {
        let mut b = ProgramBuilder::new(0);
        b.label("spin");
        b.j("spin");
        let p = b.finish().unwrap();
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(10).unwrap(), StopReason::BudgetExhausted);
        assert_eq!(i.retired(), 10);
        assert!(!i.is_halted());
    }

    #[test]
    fn r0_is_immutable() {
        let mut b = ProgramBuilder::new(0);
        b.addi(R0, R0, 99);
        b.halt();
        let i = run(b);
        assert_eq!(i.int_reg(R0), 0);
    }

    /// `op r3, r0, imm` encoded.
    fn encoded(op: crate::inst::Opcode, imm: i32) -> u32 {
        Inst {
            op,
            rd: 3,
            rs1: 0,
            rs2: 0,
            imm,
        }
        .encode()
    }

    fn addi_r3(imm: i32) -> u32 {
        encoded(crate::inst::Opcode::Addi, imm)
    }

    /// A program that stores `value` (`width` 4 or 1) over the code word
    /// `addi r3, r0, 1` that it then executes, followed by `halt`.
    fn patch_then_run(value: u32, width: u32) -> (Program, u32) {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, value);
        let target = b.here() + 8;
        b.li(R2, target);
        match width {
            4 => b.sw(R1, R2, 0),
            _ => b.sb(R1, R2, 0),
        };
        assert_eq!(b.here(), target);
        b.addi(R3, R0, 1);
        b.halt();
        (b.finish().unwrap(), target)
    }

    #[test]
    fn word_store_into_code_is_executed() {
        let (p, _) = patch_then_run(addi_r3(42), 4);
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(100).unwrap(), StopReason::Halted);
        assert_eq!(i.int_reg(R3), 42);
        // The image once, plus the one word the store rewrote.
        assert_eq!(i.decodes(), p.len() as u64 + 1);
    }

    #[test]
    fn byte_store_into_code_is_executed() {
        // The immediate is the word's low half; its low byte comes first.
        let (p, _) = patch_then_run(0x2a, 1);
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(100).unwrap(), StopReason::Halted);
        assert_eq!(i.int_reg(R3), 42);
        assert_eq!(i.decodes(), p.len() as u64 + 1);
    }

    #[test]
    fn undecodable_store_into_code_is_reported() {
        let (p, target) = patch_then_run(0xffff_ffff, 4);
        let mut i = Interpreter::new(&p);
        assert_eq!(
            i.run(100).unwrap_err(),
            InterpError::InvalidInstruction {
                pc: target,
                word: 0xffff_ffff
            }
        );
    }

    #[test]
    fn data_loaded_over_code_is_what_runs() {
        let mut b = ProgramBuilder::new(0x1000);
        b.addi(R3, R0, 1);
        b.halt();
        let mut p = b.finish().unwrap();
        p.data.push((0x1000, addi_r3(7).to_le_bytes().to_vec()));
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(10).unwrap(), StopReason::Halted);
        assert_eq!(i.int_reg(R3), 7);
    }

    #[test]
    fn code_outside_the_image_decodes_from_memory() {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R4, 0x9000);
        b.jr(R4);
        let mut p = b.finish().unwrap();
        let halt = encoded(crate::inst::Opcode::Halt, 0);
        let words = [addi_r3(5), halt];
        p.data
            .push((0x9000, words.iter().flat_map(|w| w.to_le_bytes()).collect()));
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(100).unwrap(), StopReason::Halted);
        assert_eq!(i.int_reg(R3), 5);
        assert_eq!(i.pc(), 0x9008);
        assert_eq!(i.decodes(), p.len() as u64 + 2);
    }

    #[test]
    fn invalid_instruction_reported() {
        let p = Program {
            code_base: 0,
            code: vec![0xffff_ffff],
            data: vec![],
            entry: 0,
        };
        let mut i = Interpreter::new(&p);
        assert_eq!(
            i.step().unwrap_err(),
            InterpError::InvalidInstruction {
                pc: 0,
                word: 0xffff_ffff
            }
        );
    }
}
