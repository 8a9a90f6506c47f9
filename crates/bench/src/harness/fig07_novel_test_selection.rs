//! Fig. 7 — novel test selection: reach the baseline's maximum LSU
//! coverage while simulating a small fraction of the constrained-random
//! stream (the paper: 6 K tests → 310 tests, ≈ 95 % of server-farm
//! simulation time saved).

use crate::{pct, Report};
use edm_core::noveltest::{self, NovelSelectionConfig};
use edm_verif::lsu::LsuSimulator;
use edm_verif::template::MixtureTemplate;

pub fn run(s: u64, r: &mut Report) {
    r.header("Figure 7: novel test selection vs simulate-everything");
    // The production randomizer draws from a mixture of scenario modes
    // (overwhelmingly the generic one); the unit under test has a 6-deep
    // store buffer, so the buffer-full point is only reachable through
    // the rare store-storm mode — the paper's regime, where the baseline
    // needs thousands of random tests to reach maximum coverage.
    let template = MixtureTemplate::verification_plan();
    let sim = LsuSimulator::new(edm_verif::lsu::LsuConfig {
        store_buffer_depth: 6,
        ..Default::default()
    });
    let config = NovelSelectionConfig {
        n_tests: 8000,
        nu: 0.15,
        ngram: 3,
        length_weight: 2.0,
        ..Default::default()
    };
    let mut rng = crate::rng(7, s);
    let tests: Vec<_> = (0..config.n_tests).map(|_| template.generate(&mut rng)).collect();
    let result = noveltest::run_stream(&tests, &sim, &config).expect("flow runs");

    outln!(r, "stream length: {} tests", config.n_tests);
    outln!(r, "max coverage reached by baseline: {} points", result.max_coverage);
    outln!(r);
    let base = result.baseline_tests_to_max;
    outln!(r, "{:<34} {:>12} {:>16}", "flow", "tests sim'd", "cycles to max");
    let cycles = result.baseline_cycles_to_max;
    outln!(r, "{:<34} {base:>12} {cycles:>16}", "baseline (simulate everything)");
    match (result.filtered_tests_to_max, result.filtered_cycles_to_max) {
        (Some(t), Some(c)) => {
            outln!(r, "{:<34} {t:>12} {c:>16}", "novelty-filtered");
            let saving = result.simulation_saving().unwrap_or(0.0);
            outln!(r, "\nsimulation saving at equal coverage: {}", pct(saving));
            let cut = pct(1.0 - t as f64 / base as f64);
            outln!(r, "test reduction: {base} -> {t} ({cut})");
            // Sample the curves like the figure's axes.
            outln!(r, "\ncoverage growth (tests simulated -> points covered):");
            for &at in &[10usize, 50, 100, 200, 500, 1000] {
                let b = result
                    .baseline
                    .iter()
                    .find(|p| p.simulated >= at)
                    .map(|p| p.covered)
                    .unwrap_or(result.max_coverage);
                let f = result
                    .filtered
                    .iter()
                    .find(|p| p.simulated >= at.min(result.filtered.len()))
                    .map(|p| p.covered)
                    .unwrap_or_else(|| result.filtered.last().map(|p| p.covered).unwrap_or(0));
                outln!(r, "  after {at:>4} sims: baseline {b}  filtered {f}");
            }
            r.claim("filtered flow reaches the baseline's max coverage", true);
            r.claim("filtered flow simulates far fewer tests (>= 4x reduction)", t * 4 <= base);
            r.claim("simulation saving is large (>= 60%)", saving >= 0.60);
        }
        _ => {
            let reached = result.filtered.last().map(|p| p.covered).unwrap_or(0);
            outln!(r, "novelty-filtered flow stalled at {reached}/{} points", result.max_coverage);
            r.claim("filtered flow reaches the baseline's max coverage", false);
        }
    }
}
