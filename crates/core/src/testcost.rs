//! The difficult case: test-cost reduction with a guarantee demand
//! (paper Fig. 12, §4, ref \[33\]).
//!
//! This flow deliberately reproduces a *negative* result. On the first
//! production window, test A is 0.97/0.96-correlated with tests 1 and 2
//! and every A-fail is also caught by test 1 or 2, so any reasonable
//! mining analysis recommends dropping A. Then production continues, a
//! rare tail mechanism appears, and chips fail A *only* — the escapes
//! (yellow dots) that make "guarantee ≤ 1 escape per 0.5 M" an
//! impossible promise to mine from phase-1 data. The paper's lesson:
//! when the formulation demands a stringent guaranteed result, data
//! mining is the wrong tool.

use edm_linalg::stats;
use edm_mfgtest::product::{Device, ProductModel};
use edm_mfgtest::testflow::TestFlow;
use rand::Rng;
use serde::Serialize;

/// Configuration of the Fig. 12 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TestCostConfig {
    /// Chips in the analysis window (paper: 1 M).
    pub phase1_chips: usize,
    /// Chips produced after the drop decision (paper: 0.5 M).
    pub phase2_chips: usize,
    /// Tail-mechanism rate in phase 2 (ppm-scale).
    pub tail_rate: f64,
    /// Tail shift applied to test A (in units of test-A spread).
    pub tail_shift_sigmas: f64,
    /// Correlation above which a test is deemed redundant.
    pub corr_threshold: f64,
}

impl Default for TestCostConfig {
    fn default() -> Self {
        TestCostConfig {
            phase1_chips: 200_000,
            phase2_chips: 100_000,
            tail_rate: 1e-4,
            tail_shift_sigmas: 6.0,
            corr_threshold: 0.95,
        }
    }
}

/// The mining analysis of one candidate test over phase-1 data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DropAnalysis {
    /// Candidate test index.
    pub test: usize,
    /// Candidate test name.
    pub test_name: String,
    /// Correlations with the covering tests, `(name, r)`.
    pub correlations: Vec<(String, f64)>,
    /// Phase-1 fails of the candidate test.
    pub fails: usize,
    /// Phase-1 fails caught by the candidate *only* (unique catches).
    pub unique_catches: usize,
    /// The mining recommendation.
    pub recommend_drop: bool,
}

/// Result of the two-phase experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TestCostResult {
    /// Phase-1 analysis that justified the drop.
    pub analysis: DropAnalysis,
    /// Phase-2 chips produced.
    pub phase2_chips: usize,
    /// Phase-2 escapes: chips that pass the reduced program but fail
    /// the dropped test (the yellow dots).
    pub escapes: usize,
    /// Of those, how many carry the (ground-truth) tail mechanism.
    pub escapes_from_tail_mechanism: usize,
}

/// Runs the Fig. 12 experiment for dropping `test_A`.
///
/// # Panics
///
/// Panics if the product model has fewer than three tests (cannot
/// happen with [`ProductModel::automotive`]).
pub fn run<R: Rng + ?Sized>(config: &TestCostConfig, rng: &mut R) -> TestCostResult {
    let _span = edm_trace::span("core.testcost.run");
    let clean = ProductModel::automotive().with_defect_rate(0.0);
    let test_a = clean.test_index("test_A").expect("model has test_A");
    let covering = [
        clean.test_index("test_1").expect("model has test_1"),
        clean.test_index("test_2").expect("model has test_2"),
    ];

    // Phase 1: the analysis window. No tail mechanism exists yet.
    let phase1: Vec<Device> = (0..config.phase1_chips)
        .map(|i| clean.generate_device(i as u64, (i / 25_000) as u32, rng))
        .collect();
    let flow = TestFlow::new(clean.spec_limits().to_vec());

    // Mining analysis: correlation + unique-catch audit.
    let col = |devices: &[Device], t: usize| -> Vec<f64> {
        devices.iter().map(|d| d.measurements[t]).collect()
    };
    let a_col = col(&phase1, test_a);
    let correlations: Vec<(String, f64)> = covering
        .iter()
        .map(|&t| (clean.test_names()[t].clone(), stats::pearson(&a_col, &col(&phase1, t))))
        .collect();
    let fails = phase1.iter().filter(|d| flow.failing_tests_full(d).contains(&test_a)).count();
    let unique = flow.unique_catches(&phase1, test_a).len();
    let recommend =
        unique == 0 && correlations.iter().all(|&(_, r)| r.abs() >= config.corr_threshold);
    let analysis = DropAnalysis {
        test: test_a,
        test_name: clean.test_names()[test_a].clone(),
        correlations,
        fails,
        unique_catches: unique,
        recommend_drop: recommend,
    };

    // Act on the recommendation.
    let mut reduced = TestFlow::new(clean.spec_limits().to_vec());
    if analysis.recommend_drop {
        reduced.drop_test(test_a);
    }

    // Phase 2: production continues; the tail mechanism appears.
    let spread = {
        // test A marginal sigma from phase 1
        edm_linalg::variance(&a_col).sqrt()
    };
    let tail_product = ProductModel::automotive()
        .with_defect_rate(0.0)
        .with_tail_mechanism(config.tail_rate, config.tail_shift_sigmas * spread);
    let phase2: Vec<Device> = (0..config.phase2_chips)
        .map(|i| {
            tail_product.generate_device(
                (config.phase1_chips + i) as u64,
                (i / 25_000) as u32 + 40,
                rng,
            )
        })
        .collect();

    // Escapes: pass the reduced program, but the dropped test would have
    // failed them.
    let mut escapes = 0usize;
    let mut from_tail = 0usize;
    for d in &phase2 {
        if reduced.passes(d) && flow.failing_tests_full(d).contains(&test_a) {
            escapes += 1;
            if d.tail_mechanism {
                from_tail += 1;
            }
        }
    }
    TestCostResult {
        analysis,
        phase2_chips: config.phase2_chips,
        escapes,
        escapes_from_tail_mechanism: from_tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phase1_data_justifies_the_drop() {
        let mut rng = StdRng::seed_from_u64(33);
        let config = TestCostConfig {
            phase1_chips: 40_000,
            phase2_chips: 20_000,
            tail_rate: 5e-4,
            ..Default::default()
        };
        let result = run(&config, &mut rng);
        assert!(result.analysis.recommend_drop, "{:?}", result.analysis);
        for (name, r) in &result.analysis.correlations {
            assert!(*r > 0.95, "corr with {name} was {r}");
        }
        assert_eq!(result.analysis.unique_catches, 0);
    }

    #[test]
    fn phase2_produces_escapes_anyway() {
        let mut rng = StdRng::seed_from_u64(34);
        let config = TestCostConfig {
            phase1_chips: 40_000,
            phase2_chips: 40_000,
            tail_rate: 1e-3,
            ..Default::default()
        };
        let result = run(&config, &mut rng);
        assert!(
            result.escapes > 0,
            "the tail mechanism must produce escapes (the paper's yellow dots)"
        );
        // The escapes are the new mechanism, not noise.
        assert!(
            result.escapes_from_tail_mechanism * 10 >= result.escapes * 9,
            "escapes {} vs from-tail {}",
            result.escapes,
            result.escapes_from_tail_mechanism
        );
    }

    #[test]
    fn without_tail_mechanism_the_drop_is_safe() {
        let mut rng = StdRng::seed_from_u64(35);
        let config = TestCostConfig {
            phase1_chips: 30_000,
            phase2_chips: 30_000,
            tail_rate: 0.0,
            ..Default::default()
        };
        let result = run(&config, &mut rng);
        // A handful of correlation-tail escapes may occur, but nothing
        // mechanism-driven.
        assert_eq!(result.escapes_from_tail_mechanism, 0);
        assert!(result.escapes <= 3, "unexpected escape count {}", result.escapes);
    }
}
