//! Table 1 — coverage improvement after rule learning: the original
//! template's 400 tests cover only the common points; two rounds of
//! CN2-SD-driven template refinement (100 then 50 additional tests)
//! cover every point with high frequency.

use crate::Report;
use edm_core::template_refine::{self, RefinementConfig};
use edm_verif::lsu::LsuSimulator;

pub fn run(s: u64, r: &mut Report) {
    r.header("Table 1: coverage improvement after learning");
    let sim = LsuSimulator::default_config();
    let config = RefinementConfig::default(); // 400 / 100 / 50 tests
    let mut rng = crate::rng(1, s);
    let stages = template_refine::run(&sim, &config, &mut rng).expect("flow runs");

    let head: String = (0..8).map(|i| format!(" {:>7}", format!("A{i}"))).collect();
    outln!(r, "{:<14} {:>8}{head}", "Stage", "#tests");
    for stage in &stages {
        let counts: String = stage.counts.iter().map(|c| format!(" {c:>7}")).collect();
        outln!(r, "{:<14} {:>8}{counts}", stage.name, stage.n_tests);
    }

    outln!(r, "\nlearned rules fed back into the template:");
    for stage in &stages {
        for rule in &stage.rules {
            outln!(r, "  [{}] {rule}", stage.name);
        }
    }

    let original = &stages[0];
    let last = stages.last().expect("at least one stage");
    let orig_covered = original.counts.iter().filter(|&&c| c > 0).count();
    let orig_rare_hits: u64 = original.counts[2..].iter().sum();
    let last_covered = last.counts.iter().filter(|&&c| c > 0).count();
    let orig_rate = orig_rare_hits as f64 / original.n_tests as f64;
    let last_rate = last.counts[2..].iter().sum::<u64>() as f64 / last.n_tests as f64;

    r.claim(
        "original template leaves rare points nearly uncovered (< 0.3 hits/test on A2..A7)",
        orig_rate < 0.3,
    );
    r.claim(
        "A0 and A1 are well covered from the start",
        original.counts[0] > 100 && original.counts[1] > 100,
    );
    r.claim(
        &format!("final stage covers more points ({last_covered} vs {orig_covered})"),
        last_covered >= orig_covered && last_covered >= 7,
    );
    r.claim(
        &format!("rare-point hit rate grows by >= 5x ({orig_rate:.3} -> {last_rate:.3} hits/test)"),
        last_rate >= 5.0 * orig_rate.max(0.02),
    );
}
