//! Fig. 12 — the difficult case for data mining: on the first
//! production window every test-A fail is covered by tests 1/2 and the
//! measurements are 0.97/0.96 correlated, so mining recommends dropping
//! test A; the next production window contains chips (the yellow dots)
//! that fail ONLY test A. A guaranteed-escape formulation cannot be
//! mined from data that does not contain the mechanism.

use crate::Report;
use edm_core::testcost::{self, TestCostConfig};

pub fn run(s: u64, r: &mut Report) {
    r.header("Figure 12: test-cost reduction and its escapes");
    let config = TestCostConfig::default(); // 200k analysis + 100k follow-on
    let mut rng = crate::rng(12, s);
    let result = testcost::run(&config, &mut rng);

    let a = &result.analysis;
    outln!(r, "phase 1 ({} chips) mining analysis of {}:", config.phase1_chips, a.test_name);
    for (name, rho) in &a.correlations {
        outln!(r, "  correlation with {name}: {rho:.3}");
    }
    outln!(r, "  {} fails, {} caught ONLY by {}", a.fails, a.unique_catches, a.test_name);
    let verdict = if a.recommend_drop { "DROP the test (fully covered)" } else { "keep the test" };
    outln!(r, "  recommendation: {verdict}");
    let (chips, ppm) = (result.phase2_chips, config.tail_rate * 1e6);
    outln!(r, "\nphase 2 ({chips} chips, tail mechanism now active at {ppm} ppm):");
    outln!(r, "  escapes (pass reduced program, fail dropped test): {}", result.escapes);
    let from_tail = result.escapes_from_tail_mechanism;
    outln!(r, "  of which caused by the new tail mechanism: {from_tail}");

    r.claim(
        "phase-1 correlations are ~0.97/0.96 (>= 0.95)",
        a.correlations.iter().all(|&(_, r)| r >= 0.95),
    );
    r.claim("phase-1 data shows zero unique catches for test A", a.unique_catches == 0);
    r.claim("mining therefore recommends dropping test A", a.recommend_drop);
    r.claim(
        &format!("...and phase 2 still produces escapes ({})", result.escapes),
        result.escapes > 0,
    );
    r.claim(
        "the escapes come from the unseen mechanism, not noise",
        from_tail * 10 >= result.escapes * 8,
    );
}
