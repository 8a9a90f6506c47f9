//! Assembly test programs: the *samples* of the verification mining
//! flows. A program is simultaneously
//!
//! * a token sequence (for the spectrum kernel of the Fig. 7 novelty
//!   filter),
//! * a named feature vector (for the CN2-SD rule learning of Table 1),
//! * and an executable input to the LSU simulator.

use serde::Serialize;
use std::fmt;

use crate::isa::Instruction;

/// An assembly test program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Wraps an instruction sequence.
    pub fn new(instructions: Vec<Instruction>) -> Self {
        Program { instructions }
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Opcode-class token stream for sequence kernels.
    pub fn tokens(&self) -> Vec<u8> {
        self.instructions.iter().map(Instruction::token).collect()
    }

    /// Named features for rule learning. Order matches
    /// [`Program::feature_names`].
    ///
    /// The features encode exactly the template knobs an engineer can
    /// act on (the paper's "actionable knowledge" requirement): opcode
    /// mix, dependency structure, address locality, alignment.
    pub fn features(&self) -> Vec<f64> {
        let n = self.len().max(1) as f64;
        let mut n_load = 0.0_f64;
        let mut n_store = 0.0;
        let mut n_byte_mem = 0.0;
        let mut n_alu = 0.0;
        let mut n_fence = 0.0;
        let mut max_consec_stores = 0usize;
        let mut consec_stores = 0usize;
        let mut max_consec_mem = 0usize;
        let mut consec_mem = 0usize;
        let mut base_reg_reuse = 0.0;
        let mut small_offsets = 0.0;
        let mut unaligned_imm = 0.0;
        let mut last_mem_base: Option<(u8, i32)> = None;
        let mut same_base_near = 0.0;
        for inst in &self.instructions {
            if inst.is_memory() {
                consec_mem += 1;
                max_consec_mem = max_consec_mem.max(consec_mem);
            } else {
                consec_mem = 0;
            }
            match inst {
                Instruction::Load { rs1, imm, width, .. } => {
                    n_load += 1.0;
                    if width.bytes() < 4 {
                        n_byte_mem += 1.0;
                    }
                    if imm.abs() < 64 {
                        small_offsets += 1.0;
                    }
                    if imm.rem_euclid(width.bytes() as i32) != 0 {
                        unaligned_imm += 1.0;
                    }
                    if let Some((b, i)) = last_mem_base {
                        if b == rs1.0 {
                            base_reg_reuse += 1.0;
                            if (i - imm).abs() < 64 {
                                same_base_near += 1.0;
                            }
                        }
                    }
                    last_mem_base = Some((rs1.0, *imm));
                    consec_stores = 0;
                }
                Instruction::Store { rs1, imm, width, .. } => {
                    n_store += 1.0;
                    if width.bytes() < 4 {
                        n_byte_mem += 1.0;
                    }
                    if imm.abs() < 64 {
                        small_offsets += 1.0;
                    }
                    if imm.rem_euclid(width.bytes() as i32) != 0 {
                        unaligned_imm += 1.0;
                    }
                    if let Some((b, i)) = last_mem_base {
                        if b == rs1.0 {
                            base_reg_reuse += 1.0;
                            if (i - imm).abs() < 64 {
                                same_base_near += 1.0;
                            }
                        }
                    }
                    last_mem_base = Some((rs1.0, *imm));
                    consec_stores += 1;
                    max_consec_stores = max_consec_stores.max(consec_stores);
                }
                Instruction::Alu { .. } | Instruction::AddImm { .. } => {
                    n_alu += 1.0;
                    consec_stores = 0;
                }
                Instruction::Fence => {
                    n_fence += 1.0;
                    consec_stores = 0;
                }
                _ => {
                    consec_stores = 0;
                }
            }
        }
        let n_mem = (n_load + n_store).max(1.0);
        vec![
            n_load / n,
            n_store / n,
            n_alu / n,
            n_fence / n,
            n_byte_mem / n_mem,
            max_consec_stores as f64,
            max_consec_mem as f64,
            base_reg_reuse / n_mem,
            same_base_near / n_mem,
            small_offsets / n_mem,
            unaligned_imm / n_mem,
            self.len() as f64,
        ]
    }

    /// Names for [`Program::features`], in order.
    pub fn feature_names() -> Vec<String> {
        [
            "load_frac",
            "store_frac",
            "alu_frac",
            "fence_frac",
            "subword_frac",
            "max_consec_stores",
            "max_consec_mem",
            "base_reuse_frac",
            "near_addr_frac",
            "small_offset_frac",
            "unaligned_frac",
            "length",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, inst) in self.instructions.iter().enumerate() {
            writeln!(f, "{i:4}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, Reg, Width};

    fn program() -> Program {
        Program::new(vec![
            Instruction::AddImm { rd: Reg(1), rs1: Reg(0), imm: 256 },
            Instruction::Store { rs2: Reg(2), rs1: Reg(1), imm: 0, width: Width::Word },
            Instruction::Store { rs2: Reg(3), rs1: Reg(1), imm: 4, width: Width::Byte },
            Instruction::Load { rd: Reg(4), rs1: Reg(1), imm: 0, width: Width::Word },
            Instruction::Alu { op: AluOp::Add, rd: Reg(5), rs1: Reg(4), rs2: Reg(2) },
            Instruction::Fence,
        ])
    }

    #[test]
    fn tokens_match_instruction_count() {
        let p = program();
        assert_eq!(p.tokens().len(), p.len());
        assert_eq!(p.tokens()[1], 5); // sw
        assert_eq!(p.tokens()[2], 3); // sb
    }

    #[test]
    fn features_are_named_and_sized_consistently() {
        let p = program();
        assert_eq!(p.features().len(), Program::feature_names().len());
    }

    #[test]
    fn feature_values_reflect_structure() {
        let p = program();
        let f = p.features();
        let names = Program::feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert!((get("store_frac") - 2.0 / 6.0).abs() < 1e-12);
        assert!((get("load_frac") - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(get("max_consec_stores"), 2.0);
        assert_eq!(get("length"), 6.0);
        // all three memory ops share base register r1
        assert!((get("base_reuse_frac") - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_lists_numbered_assembly() {
        let text = program().to_string();
        assert!(text.contains("0: addi r1, r0, 256"));
        assert!(text.contains("5: fence"));
    }

    #[test]
    fn empty_program_features_are_finite() {
        let p = Program::new(vec![]);
        assert!(p.is_empty());
        assert!(p.features().iter().all(|v| v.is_finite()));
    }
}
