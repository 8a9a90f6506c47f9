//! The mini RISC ISA: 16 registers, byte/half/word loads and stores,
//! ALU ops, conditional skips, and a memory fence.
//!
//! Deliberately small — the point is to exercise a load-store unit, not
//! to be a general CPU — but rich enough that operand distributions
//! (sizes, alignments, dependencies) create genuinely rare
//! microarchitectural events.

use serde::Serialize;
use std::fmt;

/// Number of architectural registers.
pub const NUM_REGS: usize = 16;

/// An architectural register `r0..r15` (`r0` reads as zero and ignores
/// writes, RISC-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Reg(pub u8);

impl Reg {
    /// Creates a register id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 16`.
    pub fn new(id: u8) -> Self {
        assert!((id as usize) < NUM_REGS, "register id {id} out of range");
        Reg(id)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Memory access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Width {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Half,
    /// 4 bytes.
    Word,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
        }
    }
}

/// Instruction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Instruction {
    /// `rd = mem[rs1 + imm]` with the given width.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base-address register.
        rs1: Reg,
        /// Signed byte offset.
        imm: i32,
        /// Access width.
        width: Width,
    },
    /// `mem[rs1 + imm] = rs2` with the given width.
    Store {
        /// Source (data) register.
        rs2: Reg,
        /// Base-address register.
        rs1: Reg,
        /// Signed byte offset.
        imm: i32,
        /// Access width.
        width: Width,
    },
    /// Register-register ALU operation `rd = rs1 <op> rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First operand register.
        rs1: Reg,
        /// Second operand register.
        rs2: Reg,
    },
    /// `rd = rs1 + imm` (also the idiom for loading small constants via
    /// `r0`).
    AddImm {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Signed immediate.
        imm: i32,
    },
    /// Skip the next instruction if `rs1 == rs2` (structured forward
    /// branch; keeps programs loop-free so simulation always terminates).
    SkipEq {
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
    },
    /// Skip the next instruction if `rs1 != rs2`.
    SkipNe {
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
    },
    /// Memory fence: drains the store buffer.
    Fence,
    /// No operation.
    Nop,
}

/// Register-register ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
}

impl Instruction {
    /// A compact opcode class id, used as the token alphabet for the
    /// spectrum kernel (paper Fig. 4: the kernel sees instruction-class
    /// sequences, not vectors).
    pub fn token(&self) -> u8 {
        match self {
            Instruction::Load { width: Width::Byte, .. } => 0,
            Instruction::Load { width: Width::Half, .. } => 1,
            Instruction::Load { width: Width::Word, .. } => 2,
            Instruction::Store { width: Width::Byte, .. } => 3,
            Instruction::Store { width: Width::Half, .. } => 4,
            Instruction::Store { width: Width::Word, .. } => 5,
            Instruction::Alu { op: AluOp::Add, .. } => 6,
            Instruction::Alu { op: AluOp::Sub, .. } => 7,
            Instruction::Alu { op: AluOp::And, .. } => 8,
            Instruction::Alu { op: AluOp::Or, .. } => 9,
            Instruction::Alu { op: AluOp::Xor, .. } => 10,
            Instruction::AddImm { .. } => 11,
            Instruction::SkipEq { .. } => 12,
            Instruction::SkipNe { .. } => 13,
            Instruction::Fence => 14,
            Instruction::Nop => 15,
        }
    }

    /// Whether this is a load or store.
    pub fn is_memory(&self) -> bool {
        matches!(self, Instruction::Load { .. } | Instruction::Store { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Load { rd, rs1, imm, width } => {
                let m = match width {
                    Width::Byte => "lb",
                    Width::Half => "lh",
                    Width::Word => "lw",
                };
                write!(f, "{m} {rd}, {imm}({rs1})")
            }
            Instruction::Store { rs2, rs1, imm, width } => {
                let m = match width {
                    Width::Byte => "sb",
                    Width::Half => "sh",
                    Width::Word => "sw",
                };
                write!(f, "{m} {rs2}, {imm}({rs1})")
            }
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let m = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::And => "and",
                    AluOp::Or => "or",
                    AluOp::Xor => "xor",
                };
                write!(f, "{m} {rd}, {rs1}, {rs2}")
            }
            Instruction::AddImm { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Instruction::SkipEq { rs1, rs2 } => write!(f, "skeq {rs1}, {rs2}"),
            Instruction::SkipNe { rs1, rs2 } => write!(f, "skne {rs1}, {rs2}"),
            Instruction::Fence => write!(f, "fence"),
            Instruction::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_distinct_per_class() {
        let insts = [
            Instruction::Load { rd: Reg(1), rs1: Reg(2), imm: 0, width: Width::Byte },
            Instruction::Load { rd: Reg(1), rs1: Reg(2), imm: 0, width: Width::Word },
            Instruction::Store { rs2: Reg(1), rs1: Reg(2), imm: 0, width: Width::Half },
            Instruction::Alu { op: AluOp::Xor, rd: Reg(1), rs1: Reg(2), rs2: Reg(3) },
            Instruction::Fence,
            Instruction::Nop,
        ];
        let mut tokens: Vec<u8> = insts.iter().map(|i| i.token()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), insts.len());
    }

    #[test]
    fn token_ignores_operands() {
        let a = Instruction::Load { rd: Reg(1), rs1: Reg(2), imm: 8, width: Width::Word };
        let b = Instruction::Load { rd: Reg(9), rs1: Reg(0), imm: -4, width: Width::Word };
        assert_eq!(a.token(), b.token());
    }

    #[test]
    fn display_is_assembly_like() {
        let i = Instruction::Store { rs2: Reg(3), rs1: Reg(4), imm: 16, width: Width::Word };
        assert_eq!(i.to_string(), "sw r3, 16(r4)");
        let j = Instruction::AddImm { rd: Reg(5), rs1: Reg(0), imm: -2 };
        assert_eq!(j.to_string(), "addi r5, r0, -2");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_bounds_checked() {
        let _ = Reg::new(16);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Half.bytes(), 2);
        assert_eq!(Width::Word.bytes(), 4);
    }
}
