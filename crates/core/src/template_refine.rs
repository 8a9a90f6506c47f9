//! Rule-driven test-template refinement (paper Table 1, ref \[28\]).
//!
//! The loop the paper describes: simulate the tests the engineer's
//! template produces; for each interesting coverage point, *learn the
//! properties of the tests that hit it* (CN2-SD rules over named program
//! features); translate those properties back into template-knob
//! adjustments; instantiate a smaller batch from the improved template;
//! repeat. Knowledge flows to the engineer as readable rules, and to the
//! randomizer as constraint updates — the two usage-model outputs the
//! paper's §1 demands.

use edm_learn::rules::cn2sd::{learn_rules, Cn2SdParams};
use edm_learn::rules::{Op, Rule};
use edm_learn::LearnError;
use edm_verif::coverage::{CoverageMap, CoveragePoint, NUM_POINTS};
use edm_verif::lsu::LsuSimulator;
use edm_verif::program::Program;
use edm_verif::template::TestTemplate;
use rand::Rng;
use serde::Serialize;

/// Result of one refinement stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageResult {
    /// Stage name (`"original"`, `"1st learning"`, …).
    pub name: String,
    /// Tests instantiated in this stage.
    pub n_tests: usize,
    /// Per-point hit counts from this stage's tests (the Table 1 row).
    pub counts: [u64; NUM_POINTS],
    /// Rules learned *from* this stage (they shaped the next stage).
    pub rules: Vec<String>,
    /// The template used in this stage.
    pub template: TestTemplate,
}

/// Configuration of the refinement experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RefinementConfig {
    /// Tests per stage (the paper used 400 / 100 / 50).
    pub tests_per_stage: Vec<usize>,
    /// Knob delta applied per matched rule condition.
    pub knob_delta: f64,
    /// CN2-SD parameters.
    pub rule_params: Cn2SdParams,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig {
            tests_per_stage: vec![400, 100, 50],
            knob_delta: 0.18,
            rule_params: Cn2SdParams { max_rules: 2, max_conditions: 2, ..Default::default() },
        }
    }
}

/// Maps one learned rule condition back onto template knobs — the
/// domain-knowledge table that closes the loop. This is deliberately a
/// readable, engineer-auditable mapping: each program feature corresponds
/// to a knob the randomizer actually has.
pub fn apply_condition_to_template(
    template: &mut TestTemplate,
    feature_name: &str,
    op: Op,
    delta: f64,
) {
    match (feature_name, op) {
        ("store_frac", Op::Gt) | ("max_consec_stores", Op::Gt) => template.boost_stores(delta),
        ("load_frac", Op::Gt) => template.boost_loads(delta),
        ("base_reuse_frac", Op::Gt) | ("near_addr_frac", Op::Gt) => template.boost_reuse(delta),
        ("near_addr_frac", Op::Le) | ("base_reuse_frac", Op::Le) => template.reduce_locality(delta),
        ("subword_frac", Op::Gt) => template.boost_subword(delta),
        ("unaligned_frac", Op::Gt) => template.boost_unaligned(delta),
        ("max_consec_mem", Op::Gt) => template.boost_mem_burst(delta),
        ("alu_frac", Op::Le) => {
            // fewer ALU ops = denser memory traffic
            template.boost_mem_burst(delta / 2.0);
        }
        _ => {} // conditions on length/fence/etc. carry no knob
    }
}

/// Runs the multi-stage refinement experiment and returns one
/// [`StageResult`] per stage (the rows of Table 1).
///
/// Stage k: instantiate `tests_per_stage[k]` tests from the current
/// template, simulate, report per-point counts; then, for every point
/// hit by at least one but at most 30 % of the tests (the "special
/// tests"), learn rules and fold their conditions into the template for
/// stage k + 1.
///
/// # Errors
///
/// Propagates rule-learning failures.
pub fn run<R: Rng + ?Sized>(
    simulator: &LsuSimulator,
    config: &RefinementConfig,
    rng: &mut R,
) -> Result<Vec<StageResult>, LearnError> {
    let _span = edm_trace::span("core.template_refine.run");
    let mut template = TestTemplate::default();
    let mut stages = Vec::new();
    let feature_names = Program::feature_names();
    for (stage_idx, &n_tests) in config.tests_per_stage.iter().enumerate() {
        let tests: Vec<Program> = (0..n_tests).map(|_| template.generate(rng)).collect();
        let outcomes: Vec<_> = tests.iter().map(|t| simulator.simulate(t)).collect();
        let mut counts = [0u64; NUM_POINTS];
        let mut total = CoverageMap::new();
        for out in &outcomes {
            total.merge(&out.coverage);
        }
        for (i, c) in counts.iter_mut().enumerate() {
            *c = total.count(CoveragePoint::ALL[i]);
        }

        // Learn from the "special tests": points hit rarely but not never.
        let features: Vec<Vec<f64>> = tests.iter().map(Program::features).collect();
        let mut next_template = template.clone();
        let mut rule_strings = Vec::new();
        let is_last = stage_idx + 1 == config.tests_per_stage.len();
        if !is_last {
            for point in CoveragePoint::ALL {
                let labels: Vec<i32> =
                    outcomes.iter().map(|o| i32::from(o.coverage.covered(point))).collect();
                let hits = labels.iter().filter(|&&l| l == 1).count();
                if hits == 0 || hits * 10 > n_tests * 3 {
                    continue; // unhit or already common
                }
                let rules: Vec<Rule> = match learn_rules(&features, &labels, 1, config.rule_params)
                {
                    Ok(r) => r,
                    Err(LearnError::InvalidInput(_)) => continue,
                    Err(e) => return Err(e),
                };
                for rule in &rules {
                    rule_strings.push(format!(
                        "{}: {}",
                        point.short_name(),
                        rule.display_with(&feature_names)
                    ));
                    for cond in &rule.conditions {
                        apply_condition_to_template(
                            &mut next_template,
                            &feature_names[cond.feature],
                            cond.op,
                            config.knob_delta,
                        );
                    }
                }
            }
        }
        rule_strings.dedup();
        let name = match stage_idx {
            0 => "original".to_string(),
            1 => "1st learning".to_string(),
            2 => "2nd learning".to_string(),
            k => format!("{k}th learning"),
        };
        stages.push(StageResult {
            name,
            n_tests,
            counts,
            rules: rule_strings,
            template: template.clone(),
        });
        template = next_template;
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn condition_mapping_moves_the_right_knob() {
        let mut t = TestTemplate::default();
        let before = t.reuse_addr_prob;
        apply_condition_to_template(&mut t, "near_addr_frac", Op::Gt, 0.2);
        assert!(t.reuse_addr_prob > before);
        let stores = t.w_store;
        apply_condition_to_template(&mut t, "max_consec_stores", Op::Gt, 0.2);
        assert!(t.w_store > stores);
        let aligned = t.aligned_prob;
        apply_condition_to_template(&mut t, "unaligned_frac", Op::Gt, 0.2);
        assert!(t.aligned_prob < aligned);
        // unmapped feature is a no-op
        let snapshot = t.clone();
        apply_condition_to_template(&mut t, "length", Op::Gt, 0.2);
        assert_eq!(t, snapshot);
    }

    #[test]
    fn refinement_raises_rare_point_hit_rate() {
        let sim = LsuSimulator::default_config();
        let config = RefinementConfig { tests_per_stage: vec![200, 80, 40], ..Default::default() };
        let mut rng = StdRng::seed_from_u64(2024);
        let stages = run(&sim, &config, &mut rng).unwrap();
        assert_eq!(stages.len(), 3);
        // Table 1's claim is "covered with high frequencies": per-test
        // hit rate on the rare points A2..A7 grows by a large factor.
        let rare_rate =
            |s: &StageResult| s.counts[2..].iter().sum::<u64>() as f64 / s.n_tests as f64;
        let first = rare_rate(&stages[0]);
        let last = rare_rate(&stages[2]);
        assert!(
            last > 3.0 * first.max(0.05),
            "rare-point rate should grow: {first:.3} -> {last:.3} \
             (rules: {:?})",
            stages[0].rules
        );
        // learning stages actually produced rules
        assert!(!stages[0].rules.is_empty() || !stages[1].rules.is_empty());
    }

    #[test]
    fn stage_names_follow_paper() {
        let sim = LsuSimulator::default_config();
        let config = RefinementConfig { tests_per_stage: vec![50, 20, 10], ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let stages = run(&sim, &config, &mut rng).unwrap();
        assert_eq!(stages[0].name, "original");
        assert_eq!(stages[1].name, "1st learning");
        assert_eq!(stages[2].name, "2nd learning");
        assert_eq!(stages[0].n_tests, 50);
    }
}
