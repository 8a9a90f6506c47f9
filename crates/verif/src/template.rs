//! Constrained-random test templates — the "randomizer" input of the
//! paper's Fig. 6.
//!
//! A template is the knob set a verification engineer actually edits:
//! instruction-mix weights, operand distributions (address reuse,
//! alignment, access width), and dependency biases. The rule-learning
//! flow of Table 1 closes the loop by mapping learned rule conditions
//! back onto these knobs (see `edm-core::template_refine`).

use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

use crate::isa::{AluOp, Instruction, Reg, Width};
use crate::program::Program;

/// Base address of the data region used by generated tests.
pub const REGION_BASE: u32 = 0x1000;

/// A constrained-random test template.
///
/// All probability knobs are clamped into `[0, 1]` by the builder-style
/// setters, so refinement steps can push aggressively without going out
/// of range.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TestTemplate {
    /// Body length range (instructions, excluding the preamble).
    pub len_range: (usize, usize),
    /// Relative weight of loads.
    pub w_load: f64,
    /// Relative weight of stores.
    pub w_store: f64,
    /// Relative weight of ALU ops.
    pub w_alu: f64,
    /// Relative weight of fences.
    pub w_fence: f64,
    /// Relative weight of skip (branch) ops.
    pub w_skip: f64,
    /// Probability a memory access is sub-word (byte/half).
    pub subword_prob: f64,
    /// Probability a memory offset is aligned to the access width.
    pub aligned_prob: f64,
    /// Probability a memory op reuses the previous (base, offset) exactly.
    pub reuse_addr_prob: f64,
    /// Probability a memory op lands within ±32 B of the previous offset.
    pub near_addr_prob: f64,
    /// Probability a store is followed by another store (burst bias).
    pub store_burst_prob: f64,
    /// Probability any memory op is followed by another memory op
    /// (back-to-back memory traffic; drives miss-under-miss behaviour).
    pub mem_burst_prob: f64,
    /// Number of base-address registers initialized in the preamble.
    pub n_base_regs: usize,
    /// Size of the addressable data region in bytes.
    pub region_bytes: u32,
}

impl Default for TestTemplate {
    /// The "original template" of the Table 1 experiment: a generic mix
    /// with wide, aligned, low-reuse addressing — plenty of hits and
    /// misses (A0/A1), almost nothing else.
    fn default() -> Self {
        TestTemplate {
            len_range: (24, 48),
            w_load: 0.22,
            w_store: 0.12,
            w_alu: 0.54,
            w_fence: 0.04,
            w_skip: 0.08,
            subword_prob: 0.05,
            aligned_prob: 0.98,
            reuse_addr_prob: 0.02,
            near_addr_prob: 0.45,
            store_burst_prob: 0.05,
            mem_burst_prob: 0.05,
            n_base_regs: 4,
            region_bytes: 4 * 1024,
        }
    }
}

impl TestTemplate {
    fn clamp01(v: f64) -> f64 {
        v.clamp(0.0, 1.0)
    }

    /// Nudges the address-reuse probability (clamped to `[0, 1]`).
    pub fn boost_reuse(&mut self, delta: f64) {
        self.reuse_addr_prob = Self::clamp01(self.reuse_addr_prob + delta);
        self.near_addr_prob = Self::clamp01(self.near_addr_prob + delta);
    }

    /// Nudges the sub-word access probability.
    pub fn boost_subword(&mut self, delta: f64) {
        self.subword_prob = Self::clamp01(self.subword_prob + delta);
    }

    /// Nudges the store weight and burst bias.
    pub fn boost_stores(&mut self, delta: f64) {
        self.w_store = (self.w_store + delta).max(0.0);
        self.store_burst_prob = Self::clamp01(self.store_burst_prob + delta);
    }

    /// Nudges the back-to-back memory-traffic probability.
    pub fn boost_mem_burst(&mut self, delta: f64) {
        self.mem_burst_prob = Self::clamp01(self.mem_burst_prob + delta);
    }

    /// Reduces address locality (more fresh addresses, more misses).
    pub fn reduce_locality(&mut self, delta: f64) {
        self.near_addr_prob = Self::clamp01(self.near_addr_prob - delta);
    }

    /// Nudges the misalignment probability (lowers `aligned_prob`).
    pub fn boost_unaligned(&mut self, delta: f64) {
        self.aligned_prob = Self::clamp01(self.aligned_prob - delta);
    }

    /// Nudges the load weight.
    pub fn boost_loads(&mut self, delta: f64) {
        self.w_load = (self.w_load + delta).max(0.0);
    }

    /// Shrinks the address region (more aliasing/conflict misses).
    pub fn shrink_region(&mut self, factor: f64) {
        assert!(factor > 0.0, "shrink factor must be positive");
        self.region_bytes = ((self.region_bytes as f64 * factor) as u32).max(256);
    }

    /// Generates one constrained-random test.
    ///
    /// The preamble initializes `n_base_regs` base registers spread over
    /// the region plus a couple of data registers; the body draws from
    /// the weighted instruction mix.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Program {
        let mut insts = Vec::new();
        let n_base = self.n_base_regs.clamp(1, 6);
        // Preamble: r1..r{n} hold spread base addresses; r8/r9 hold data.
        for b in 0..n_base {
            let addr = REGION_BASE + (b as u32) * (self.region_bytes / n_base as u32);
            insts.push(Instruction::AddImm {
                rd: Reg::new(1 + b as u8),
                rs1: Reg(0),
                imm: addr as i32,
            });
        }
        insts.push(Instruction::AddImm { rd: Reg(8), rs1: Reg(0), imm: rng.gen_range(-128..128) });
        insts.push(Instruction::AddImm { rd: Reg(9), rs1: Reg(0), imm: rng.gen_range(-128..128) });

        let body_len = if self.len_range.0 >= self.len_range.1 {
            self.len_range.0
        } else {
            rng.gen_range(self.len_range.0..=self.len_range.1)
        };
        let data_regs: [u8; 6] = [8, 9, 10, 11, 12, 13];
        let max_offset = (self.region_bytes / n_base as u32).saturating_sub(8) as i32;
        let mut last: Option<(u8, i32)> = None;
        let mut force_store = false;
        let mut force_mem = false;
        for _ in 0..body_len {
            let total = self.w_load + self.w_store + self.w_alu + self.w_fence + self.w_skip;
            let pick = rng.gen::<f64>() * total.max(1e-12);
            let kind = if force_store {
                force_store = false;
                force_mem = false;
                1
            } else if force_mem {
                force_mem = false;
                0
            } else if pick < self.w_load {
                0
            } else if pick < self.w_load + self.w_store {
                1
            } else if pick < self.w_load + self.w_store + self.w_alu {
                2
            } else if pick < self.w_load + self.w_store + self.w_alu + self.w_fence {
                3
            } else {
                4
            };
            match kind {
                0 | 1 => {
                    let width = if rng.gen::<f64>() < self.subword_prob {
                        if rng.gen() {
                            Width::Byte
                        } else {
                            Width::Half
                        }
                    } else {
                        Width::Word
                    };
                    let (base, mut imm) = if let (Some((b, i)), true) =
                        (last, rng.gen::<f64>() < self.reuse_addr_prob)
                    {
                        (b, i)
                    } else if let (Some((b, i)), true) =
                        (last, rng.gen::<f64>() < self.near_addr_prob)
                    {
                        (b, (i + rng.gen_range(-32i32..=32)).clamp(0, max_offset))
                    } else {
                        (1 + rng.gen_range(0..n_base) as u8, rng.gen_range(0..=max_offset))
                    };
                    if rng.gen::<f64>() < self.aligned_prob {
                        imm -= imm.rem_euclid(width.bytes() as i32);
                    }
                    last = Some((base, imm));
                    if kind == 0 {
                        insts.push(Instruction::Load {
                            rd: Reg(*data_regs.choose(rng).expect("non-empty")),
                            rs1: Reg(base),
                            imm,
                            width,
                        });
                    } else {
                        insts.push(Instruction::Store {
                            rs2: Reg(*data_regs.choose(rng).expect("non-empty")),
                            rs1: Reg(base),
                            imm,
                            width,
                        });
                        if rng.gen::<f64>() < self.store_burst_prob {
                            force_store = true;
                        }
                    }
                    if !force_store && rng.gen::<f64>() < self.mem_burst_prob {
                        force_mem = true;
                    }
                }
                2 => {
                    let ops = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];
                    insts.push(Instruction::Alu {
                        op: *ops.choose(rng).expect("non-empty"),
                        rd: Reg(*data_regs.choose(rng).expect("non-empty")),
                        rs1: Reg(*data_regs.choose(rng).expect("non-empty")),
                        rs2: Reg(*data_regs.choose(rng).expect("non-empty")),
                    });
                }
                3 => insts.push(Instruction::Fence),
                _ => {
                    let a = Reg(*data_regs.choose(rng).expect("non-empty"));
                    let b = Reg(*data_regs.choose(rng).expect("non-empty"));
                    insts.push(if rng.gen() {
                        Instruction::SkipEq { rs1: a, rs2: b }
                    } else {
                        Instruction::SkipNe { rs1: a, rs2: b }
                    });
                }
            }
        }
        Program::new(insts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_within_length_range() {
        let t = TestTemplate::default();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let p = t.generate(&mut rng);
            let preamble = t.n_base_regs + 2;
            assert!(p.len() >= t.len_range.0 + preamble);
            assert!(p.len() <= t.len_range.1 + preamble);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = TestTemplate::default();
        let a = t.generate(&mut StdRng::seed_from_u64(7));
        let b = t.generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn weights_shift_instruction_mix() {
        let heavy_store =
            TestTemplate { w_store: 5.0, w_load: 0.1, w_alu: 0.1, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let p = heavy_store.generate(&mut rng);
        let f = p.features();
        let names = Program::feature_names();
        let store_frac = f[names.iter().position(|n| n == "store_frac").unwrap()];
        let load_frac = f[names.iter().position(|n| n == "load_frac").unwrap()];
        assert!(store_frac > 3.0 * load_frac, "store {store_frac} load {load_frac}");
    }

    #[test]
    fn reuse_knob_raises_reuse_feature() {
        let mut rng = StdRng::seed_from_u64(2);
        let low = TestTemplate::default();
        let mut high = TestTemplate::default();
        high.boost_reuse(0.9);
        let avg_reuse = |t: &TestTemplate, rng: &mut StdRng| -> f64 {
            let names = Program::feature_names();
            let idx = names.iter().position(|n| n == "near_addr_frac").unwrap();
            (0..30).map(|_| t.generate(rng).features()[idx]).sum::<f64>() / 30.0
        };
        let lo = avg_reuse(&low, &mut rng);
        let hi = avg_reuse(&high, &mut rng);
        assert!(hi > lo + 0.2, "lo {lo} hi {hi}");
    }

    #[test]
    fn knob_clamping() {
        let mut t = TestTemplate::default();
        t.boost_reuse(5.0);
        assert!(t.reuse_addr_prob <= 1.0);
        t.boost_unaligned(5.0);
        assert!(t.aligned_prob >= 0.0);
        t.shrink_region(1e-9);
        assert!(t.region_bytes >= 256);
    }

    #[test]
    fn preamble_initializes_distinct_bases() {
        let t = TestTemplate::default();
        let p = t.generate(&mut StdRng::seed_from_u64(3));
        let mut bases = Vec::new();
        for inst in p.instructions().iter().take(t.n_base_regs) {
            match inst {
                Instruction::AddImm { imm, .. } => bases.push(*imm),
                other => panic!("preamble should be addi, got {other}"),
            }
        }
        bases.dedup();
        assert_eq!(bases.len(), t.n_base_regs);
    }
}

/// A mixture of templates — how production constrained-random
/// environments actually behave: the randomizer cycles through a few
/// scenario "modes" (directed-random flavors), heavily favoring the
/// bread-and-butter mode. Streams drawn from a mixture are *redundant*
/// in exactly the way the paper's Fig. 7 flow exploits: thousands of
/// same-mode tests add nothing once the mode's behaviours are covered,
/// while the rare modes carry the hard coverage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MixtureTemplate {
    modes: Vec<(f64, TestTemplate)>,
}

impl MixtureTemplate {
    /// Creates a mixture; weights are normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if `modes` is empty or any weight is non-positive.
    pub fn new(modes: Vec<(f64, TestTemplate)>) -> Self {
        assert!(!modes.is_empty(), "mixture needs at least one mode");
        assert!(modes.iter().all(|&(w, _)| w > 0.0), "mode weights must be positive");
        MixtureTemplate { modes }
    }

    /// The mixture used by the Fig. 7 reproduction: a dominant generic
    /// mode plus rare directed flavors; the store-burst mode (the only
    /// one that can fill a deep store buffer) appears once per ~1000
    /// tests.
    pub fn verification_plan() -> Self {
        let base = TestTemplate::default();

        let mut reuse_heavy = base.clone();
        reuse_heavy.boost_reuse(0.35);
        reuse_heavy.boost_subword(0.25);

        let mut unaligned_heavy = base.clone();
        unaligned_heavy.boost_unaligned(0.5);

        let mut burst_heavy = base.clone();
        burst_heavy.boost_mem_burst(0.45);
        burst_heavy.reduce_locality(0.25);

        let mut store_storm = base.clone();
        store_storm.w_store = 0.5;
        store_storm.w_load = 0.15;
        store_storm.w_alu = 0.3;
        store_storm.store_burst_prob = 0.8;

        MixtureTemplate::new(vec![
            (0.975, base),
            (0.012, reuse_heavy),
            (0.008, unaligned_heavy),
            (0.004, burst_heavy),
            (0.001, store_storm),
        ])
    }

    /// Number of modes.
    pub fn n_modes(&self) -> usize {
        self.modes.len()
    }

    /// Generates one test, returning the mode index used.
    pub fn generate_tagged<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, Program) {
        let total: f64 = self.modes.iter().map(|&(w, _)| w).sum();
        let mut pick = rng.gen::<f64>() * total;
        for (i, (w, t)) in self.modes.iter().enumerate() {
            if pick < *w || i + 1 == self.modes.len() {
                return (i, t.generate(rng));
            }
            pick -= w;
        }
        unreachable!("weights are positive and sum over the loop")
    }

    /// Generates one test.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Program {
        self.generate_tagged(rng).1
    }
}

#[cfg(test)]
mod mixture_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mode_frequencies_follow_weights() {
        let m = MixtureTemplate::verification_plan();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; m.n_modes()];
        for _ in 0..20_000 {
            counts[m.generate_tagged(&mut rng).0] += 1;
        }
        assert!(counts[0] > 19_000, "dominant mode should dominate: {counts:?}");
        assert!(counts[4] >= 5 && counts[4] <= 60, "rare mode ~20/20k: {counts:?}");
    }

    #[test]
    fn store_storm_mode_is_store_heavy() {
        let m = MixtureTemplate::verification_plan();
        let mut rng = StdRng::seed_from_u64(2);
        // Directly generate from the rare mode to inspect its output.
        let storm = &m.modes[4].1;
        let p = storm.generate(&mut rng);
        let names = Program::feature_names();
        let idx = names.iter().position(|n| n == "store_frac").unwrap();
        assert!(p.features()[idx] > 0.3, "store frac {}", p.features()[idx]);
    }

    #[test]
    #[should_panic(expected = "at least one mode")]
    fn empty_mixture_rejected() {
        let _ = MixtureTemplate::new(vec![]);
    }
}
