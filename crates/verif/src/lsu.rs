//! The load-store-unit simulator: a direct-mapped write-back cache plus
//! a small forwarding store buffer, executed functionally over a
//! [`Program`] with cycle accounting and coverage recording.
//!
//! This is the "simulation" whose server-farm hours the Fig. 7 flow
//! saves: `cycles` is the cost proxy, [`CoverageMap`] the value produced.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::coverage::{CoverageMap, CoveragePoint};
use crate::isa::{AluOp, Instruction, NUM_REGS};
use crate::program::Program;

/// Cache and pipeline geometry plus cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LsuConfig {
    /// Number of direct-mapped sets.
    pub n_sets: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Store-buffer depth (entries).
    pub store_buffer_depth: usize,
    /// Cycles charged per cache miss.
    pub miss_penalty: u64,
    /// Extra cycles for writing back a dirty victim.
    pub eviction_penalty: u64,
    /// Cycles for a forced store-buffer drain.
    pub drain_penalty: u64,
    /// Extra cycles for a line-crossing access.
    pub unaligned_penalty: u64,
}

impl Default for LsuConfig {
    fn default() -> Self {
        LsuConfig {
            n_sets: 32,
            line_bytes: 64,
            store_buffer_depth: 4,
            miss_penalty: 12,
            eviction_penalty: 8,
            drain_penalty: 6,
            unaligned_penalty: 2,
        }
    }
}

/// Result of simulating one test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SimOutcome {
    /// Coverage-point hits.
    pub coverage: CoverageMap,
    /// Simulated cycles (the cost the Fig. 7 flow saves).
    pub cycles: u64,
    /// Instructions executed (skips reduce this below program length).
    pub instructions_executed: usize,
    /// Order-sensitive FNV-1a digest of the final memory image. Memory
    /// is kept in a `BTreeMap`, so this is identical across processes;
    /// the determinism suite pins it across runs with different hash
    /// seeds.
    pub memory_fingerprint: u64,
}

/// The load-store-unit simulator.
#[derive(Debug, Clone)]
pub struct LsuSimulator {
    config: LsuConfig,
}

#[derive(Clone, Copy)]
struct LineState {
    tag: u32,
    dirty: bool,
}

#[derive(Clone, Copy)]
struct StoreEntry {
    addr: u32,
    bytes: u32,
}

impl LsuSimulator {
    /// Creates a simulator with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `n_sets == 0`, `line_bytes` is not a power of two, or
    /// the store buffer has zero depth.
    pub fn new(config: LsuConfig) -> Self {
        assert!(config.n_sets > 0, "cache needs at least one set");
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.store_buffer_depth > 0, "store buffer needs depth >= 1");
        LsuSimulator { config }
    }

    /// A simulator with the default configuration (32 × 64 B = 2 KiB
    /// cache, 4-entry store buffer).
    pub fn default_config() -> Self {
        LsuSimulator::new(LsuConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsuConfig {
        &self.config
    }

    /// Executes `program` and returns coverage + cycle cost.
    ///
    /// Fully deterministic: the same program always produces the same
    /// outcome.
    pub fn simulate(&self, program: &Program) -> SimOutcome {
        let cfg = &self.config;
        let mut regs = [0u32; NUM_REGS];
        // BTreeMap, not HashMap: the final image is folded into
        // `memory_fingerprint` in iteration order, which must not
        // depend on a per-process hash seed.
        let mut memory: BTreeMap<u32, u8> = BTreeMap::new();
        let mut cache: Vec<Option<LineState>> = vec![None; cfg.n_sets];
        let mut store_buffer: Vec<StoreEntry> = Vec::new();
        let mut coverage = CoverageMap::new();
        let mut cycles: u64 = 0;
        let mut executed = 0usize;
        let mut miss_run = 0usize;

        let line_of = |addr: u32| addr / cfg.line_bytes;
        let set_of = |addr: u32| (line_of(addr) as usize) % cfg.n_sets;
        let tag_of = |addr: u32| line_of(addr) / cfg.n_sets as u32;

        // Accesses one cache line; returns extra cycles.
        let access_line = |addr: u32,
                           write: bool,
                           cache: &mut Vec<Option<LineState>>,
                           coverage: &mut CoverageMap,
                           miss_run: &mut usize,
                           store_buffer: &[StoreEntry]|
         -> u64 {
            let set = set_of(addr);
            let tag = tag_of(addr);
            match cache[set] {
                Some(ref mut line) if line.tag == tag => {
                    coverage.record(CoveragePoint::CacheHit);
                    if write {
                        line.dirty = true;
                    }
                    *miss_run = 0;
                    1
                }
                ref mut slot => {
                    coverage.record(CoveragePoint::CacheMiss);
                    *miss_run += 1;
                    if *miss_run >= 4 {
                        coverage.record(CoveragePoint::MissBurst);
                    }
                    let mut extra = self.config.miss_penalty;
                    if let Some(old) = slot {
                        if old.dirty {
                            extra += self.config.eviction_penalty;
                            // A3 is the rare case: the victim still has an
                            // in-flight store sitting in the store buffer.
                            let victim_line_lo = (old.tag * self.config.n_sets as u32 + set as u32)
                                * self.config.line_bytes;
                            let victim_line_hi = victim_line_lo + self.config.line_bytes;
                            if store_buffer
                                .iter()
                                .any(|e| e.addr >= victim_line_lo && e.addr < victim_line_hi)
                            {
                                coverage.record(CoveragePoint::DirtyEviction);
                            }
                        }
                    }
                    *slot = Some(LineState { tag, dirty: write });
                    extra
                }
            }
        };

        let insts = program.instructions();
        let mut pc = 0usize;
        while pc < insts.len() {
            let inst = insts[pc];
            pc += 1;
            executed += 1;
            cycles += 1;
            match inst {
                Instruction::AddImm { rd, rs1, imm } => {
                    if rd.0 != 0 {
                        regs[rd.0 as usize] = regs[rs1.0 as usize].wrapping_add(imm as u32);
                    }
                    if !store_buffer.is_empty() {
                        store_buffer.remove(0);
                    }
                    miss_run = 0;
                }
                Instruction::Alu { op, rd, rs1, rs2 } => {
                    let a = regs[rs1.0 as usize];
                    let b = regs[rs2.0 as usize];
                    let v = match op {
                        AluOp::Add => a.wrapping_add(b),
                        AluOp::Sub => a.wrapping_sub(b),
                        AluOp::And => a & b,
                        AluOp::Or => a | b,
                        AluOp::Xor => a ^ b,
                    };
                    if rd.0 != 0 {
                        regs[rd.0 as usize] = v;
                    }
                    if !store_buffer.is_empty() {
                        store_buffer.remove(0);
                    }
                    miss_run = 0;
                }
                Instruction::SkipEq { rs1, rs2 } => {
                    if regs[rs1.0 as usize] == regs[rs2.0 as usize] {
                        pc += 1;
                    }
                    if !store_buffer.is_empty() {
                        store_buffer.remove(0);
                    }
                    miss_run = 0;
                }
                Instruction::SkipNe { rs1, rs2 } => {
                    if regs[rs1.0 as usize] != regs[rs2.0 as usize] {
                        pc += 1;
                    }
                    if !store_buffer.is_empty() {
                        store_buffer.remove(0);
                    }
                    miss_run = 0;
                }
                Instruction::Fence => {
                    if !store_buffer.is_empty() {
                        cycles += cfg.drain_penalty;
                        store_buffer.clear();
                    }
                    miss_run = 0;
                }
                Instruction::Nop => {
                    if !store_buffer.is_empty() {
                        store_buffer.remove(0);
                    }
                    miss_run = 0;
                }
                Instruction::Load { rd, rs1, imm, width } => {
                    let addr = regs[rs1.0 as usize].wrapping_add(imm as u32);
                    let bytes = width.bytes();
                    let crosses = line_of(addr) != line_of(addr + bytes - 1);
                    if crosses {
                        coverage.record(CoveragePoint::UnalignedCross);
                        cycles += cfg.unaligned_penalty;
                    }
                    // Store-buffer lookup, newest entry first.
                    let mut forwarded = false;
                    let mut partial = false;
                    for e in store_buffer.iter().rev() {
                        let covers = e.addr <= addr && addr + bytes <= e.addr + e.bytes;
                        let overlaps = e.addr < addr + bytes && addr < e.addr + e.bytes;
                        if covers {
                            forwarded = true;
                            break;
                        }
                        if overlaps {
                            partial = true;
                            break;
                        }
                    }
                    if forwarded {
                        coverage.record(CoveragePoint::StoreForward);
                        miss_run = 0;
                    } else {
                        if partial {
                            coverage.record(CoveragePoint::PartialForward);
                            cycles += cfg.drain_penalty;
                            store_buffer.clear();
                        }
                        cycles += access_line(
                            addr,
                            false,
                            &mut cache,
                            &mut coverage,
                            &mut miss_run,
                            &store_buffer,
                        );
                        if crosses {
                            cycles += access_line(
                                addr + bytes - 1,
                                false,
                                &mut cache,
                                &mut coverage,
                                &mut miss_run,
                                &store_buffer,
                            );
                        }
                    }
                    // Functional read (little-endian).
                    let mut v: u32 = 0;
                    for b in 0..bytes {
                        v |= (*memory.get(&(addr + b)).unwrap_or(&0) as u32) << (8 * b);
                    }
                    if rd.0 != 0 {
                        regs[rd.0 as usize] = v;
                    }
                }
                Instruction::Store { rs2, rs1, imm, width } => {
                    let addr = regs[rs1.0 as usize].wrapping_add(imm as u32);
                    let bytes = width.bytes();
                    let crosses = line_of(addr) != line_of(addr + bytes - 1);
                    if crosses {
                        coverage.record(CoveragePoint::UnalignedCross);
                        cycles += cfg.unaligned_penalty;
                    }
                    if store_buffer.len() == cfg.store_buffer_depth {
                        coverage.record(CoveragePoint::StoreBufferFull);
                        cycles += cfg.drain_penalty;
                        store_buffer.clear();
                    }
                    cycles += access_line(
                        addr,
                        true,
                        &mut cache,
                        &mut coverage,
                        &mut miss_run,
                        &store_buffer,
                    );
                    if crosses {
                        cycles += access_line(
                            addr + bytes - 1,
                            true,
                            &mut cache,
                            &mut coverage,
                            &mut miss_run,
                            &store_buffer,
                        );
                    }
                    store_buffer.push(StoreEntry { addr, bytes });
                    // Functional write (little-endian).
                    let v = regs[rs2.0 as usize];
                    for b in 0..bytes {
                        memory.insert(addr + b, ((v >> (8 * b)) & 0xff) as u8);
                    }
                }
            }
        }
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for (&addr, &byte) in &memory {
            for b in addr.to_le_bytes().into_iter().chain([byte]) {
                fp = (fp ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        SimOutcome { coverage, cycles, instructions_executed: executed, memory_fingerprint: fp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Reg, Width};

    fn addi(rd: u8, imm: i32) -> Instruction {
        Instruction::AddImm { rd: Reg(rd), rs1: Reg(0), imm }
    }

    fn lw(rd: u8, base: u8, imm: i32) -> Instruction {
        Instruction::Load { rd: Reg(rd), rs1: Reg(base), imm, width: Width::Word }
    }

    fn sw(rs2: u8, base: u8, imm: i32) -> Instruction {
        Instruction::Store { rs2: Reg(rs2), rs1: Reg(base), imm, width: Width::Word }
    }

    #[test]
    fn load_roundtrips_store_value() {
        let p = Program::new(vec![
            addi(1, 0x1000),
            addi(8, 1234),
            sw(8, 1, 8),
            Instruction::Fence,
            lw(9, 1, 8),
        ]);
        let sim = LsuSimulator::default_config();
        let out = sim.simulate(&p);
        assert_eq!(out.instructions_executed, 5);
        assert!(out.coverage.covered(CoveragePoint::CacheHit)); // reload hits
    }

    #[test]
    fn store_then_load_same_addr_forwards() {
        let p = Program::new(vec![addi(1, 0x1000), sw(8, 1, 0), lw(9, 1, 0)]);
        let out = LsuSimulator::default_config().simulate(&p);
        assert_eq!(out.coverage.count(CoveragePoint::StoreForward), 1);
    }

    #[test]
    fn partial_overlap_triggers_partial_forward() {
        let p = Program::new(vec![
            addi(1, 0x1000),
            Instruction::Store { rs2: Reg(8), rs1: Reg(1), imm: 0, width: Width::Byte },
            lw(9, 1, 0), // word load overlapping the byte store
        ]);
        let out = LsuSimulator::default_config().simulate(&p);
        assert_eq!(out.coverage.count(CoveragePoint::PartialForward), 1);
        assert_eq!(out.coverage.count(CoveragePoint::StoreForward), 0);
    }

    #[test]
    fn repeated_access_hits_after_first_miss() {
        let p = Program::new(vec![addi(1, 0x2000), lw(8, 1, 0), lw(9, 1, 4), lw(10, 1, 0)]);
        let out = LsuSimulator::default_config().simulate(&p);
        assert_eq!(out.coverage.count(CoveragePoint::CacheMiss), 1);
        assert_eq!(out.coverage.count(CoveragePoint::CacheHit), 2);
    }

    #[test]
    fn aliased_dirty_line_evicts() {
        // 32 sets * 64 B = 2 KiB: addresses 0x1000 and 0x1000 + 0x800
        // share a set with different tags.
        let p = Program::new(vec![
            addi(1, 0x1000),
            addi(2, 0x1800),
            sw(8, 1, 0), // make the line dirty
            lw(9, 2, 0), // conflicting fill -> dirty eviction
        ]);
        let out = LsuSimulator::default_config().simulate(&p);
        assert_eq!(out.coverage.count(CoveragePoint::DirtyEviction), 1);
    }

    #[test]
    fn line_crossing_access_detected() {
        let p = Program::new(vec![
            addi(1, 0x1000),
            lw(8, 1, 62), // word at offset 62 crosses the 64 B boundary
        ]);
        let out = LsuSimulator::default_config().simulate(&p);
        assert_eq!(out.coverage.count(CoveragePoint::UnalignedCross), 1);
    }

    #[test]
    fn five_consecutive_stores_fill_the_buffer() {
        let mut insts = vec![addi(1, 0x1000)];
        for i in 0..5 {
            insts.push(sw(8, 1, i * 4));
        }
        let out = LsuSimulator::default_config().simulate(&Program::new(insts));
        assert_eq!(out.coverage.count(CoveragePoint::StoreBufferFull), 1);
    }

    #[test]
    fn alu_instructions_drain_the_buffer() {
        // Stores separated by ALU ops never fill the 4-deep buffer.
        let mut insts = vec![addi(1, 0x1000)];
        for i in 0..8 {
            insts.push(sw(8, 1, i * 4));
            insts.push(Instruction::Alu { op: AluOp::Add, rd: Reg(9), rs1: Reg(9), rs2: Reg(8) });
        }
        let out = LsuSimulator::default_config().simulate(&Program::new(insts));
        assert_eq!(out.coverage.count(CoveragePoint::StoreBufferFull), 0);
    }

    #[test]
    fn four_consecutive_misses_are_a_burst() {
        let p = Program::new(vec![
            addi(1, 0x1000),
            lw(8, 1, 0),
            lw(9, 1, 512),
            lw(10, 1, 1024),
            lw(11, 1, 1536),
        ]);
        let out = LsuSimulator::default_config().simulate(&p);
        assert_eq!(out.coverage.count(CoveragePoint::MissBurst), 1);
    }

    #[test]
    fn skip_skips() {
        // r8 == r9 == 0, so skeq skips the store.
        let p = Program::new(vec![
            addi(1, 0x1000),
            Instruction::SkipEq { rs1: Reg(8), rs2: Reg(9) },
            sw(8, 1, 0),
            lw(9, 1, 4),
        ]);
        let out = LsuSimulator::default_config().simulate(&p);
        assert_eq!(out.instructions_executed, 3);
        assert_eq!(out.coverage.count(CoveragePoint::StoreForward), 0);
    }

    #[test]
    fn cycles_accumulate_penalties() {
        let hit_heavy = Program::new(vec![addi(1, 0x1000), lw(8, 1, 0), lw(9, 1, 0)]);
        let miss_heavy = Program::new(vec![addi(1, 0x1000), lw(8, 1, 0), lw(9, 1, 2048)]);
        let sim = LsuSimulator::default_config();
        assert!(sim.simulate(&miss_heavy).cycles > sim.simulate(&hit_heavy).cycles);
    }

    #[test]
    fn deterministic() {
        let t = crate::template::TestTemplate::default();
        use rand::SeedableRng;
        let p = t.generate(&mut rand::rngs::StdRng::seed_from_u64(11));
        let sim = LsuSimulator::default_config();
        assert_eq!(sim.simulate(&p), sim.simulate(&p));
    }
}
