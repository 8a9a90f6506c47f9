//! CN2-SD subgroup discovery (Lavrač et al., the paper's ref \[9\]).
//!
//! Induces rules for a target class by beam search over threshold
//! conditions, scoring candidates with *weighted relative accuracy*
//! (WRAcc) and re-weighting covered examples between rules
//! (multiplicative weighted covering), so later rules describe the
//! not-yet-explained part of the class instead of rediscovering the same
//! subgroup.
//!
//! This is the engine behind two of the paper's applications:
//! test-template refinement (Table 1: "learn the properties of the
//! special tests hitting a coverage point, feed them back") and
//! speed-path diagnosis (Fig. 10: "many layer-4-5/5-6 vias ⇒ slow").

use serde::Serialize;

use crate::rules::{Condition, Op, Rule};
use crate::{error::check_xy, LearnError};

/// Hyperparameters for CN2-SD induction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Cn2SdParams {
    /// Beam width of the refinement search.
    pub beam_width: usize,
    /// Maximum conditions per rule.
    pub max_conditions: usize,
    /// Maximum rules to induce for the target class.
    pub max_rules: usize,
    /// Candidate thresholds per feature (taken at quantiles).
    pub n_thresholds: usize,
    /// Multiplicative weight applied to covered positives after each
    /// rule, in `[0, 1)`; `0` reproduces classic CN2 covering.
    pub gamma: f64,
    /// Minimum (unweighted) positive coverage for a rule to be kept.
    pub min_coverage: usize,
}

impl Default for Cn2SdParams {
    fn default() -> Self {
        Cn2SdParams {
            beam_width: 5,
            max_conditions: 3,
            max_rules: 8,
            n_thresholds: 8,
            gamma: 0.5,
            min_coverage: 2,
        }
    }
}

#[derive(Clone)]
struct Candidate {
    conditions: Vec<Condition>,
    wracc: f64,
}

/// Weighted relative accuracy of a condition set for `target` under the
/// current example weights:
/// `WRAcc = p(cov) · (p(target|cov) − p(target))`.
fn wracc(x: &[Vec<f64>], y: &[i32], weights: &[f64], conditions: &[Condition], target: i32) -> f64 {
    let total_w: f64 = weights.iter().sum();
    if total_w <= 0.0 {
        return 0.0;
    }
    let prior_pos: f64 =
        y.iter().zip(weights).filter(|&(&l, _)| l == target).map(|(_, &w)| w).sum::<f64>()
            / total_w;
    let mut cov_w = 0.0;
    let mut cov_pos_w = 0.0;
    for ((xi, &yi), &wi) in x.iter().zip(y).zip(weights) {
        if conditions.iter().all(|c| c.matches(xi)) {
            cov_w += wi;
            if yi == target {
                cov_pos_w += wi;
            }
        }
    }
    if cov_w <= 0.0 {
        return 0.0;
    }
    (cov_w / total_w) * (cov_pos_w / cov_w - prior_pos)
}

/// Candidate thresholds per feature at evenly spaced quantiles of the
/// observed values.
fn candidate_conditions(x: &[Vec<f64>], n_thresholds: usize) -> Vec<Condition> {
    let d = x[0].len();
    let mut out = Vec::new();
    for f in 0..d {
        let mut vals: Vec<f64> = x.iter().map(|r| r[f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let k = n_thresholds.min(vals.len() - 1);
        for t in 1..=k {
            let pos = t * (vals.len() - 1) / (k + 1).max(1);
            let thr = 0.5 * (vals[pos] + vals[(pos + 1).min(vals.len() - 1)]);
            out.push(Condition { feature: f, op: Op::Le, threshold: thr });
            out.push(Condition { feature: f, op: Op::Gt, threshold: thr });
        }
    }
    out
}

/// Induces a rule list for `target` from labeled numeric data.
///
/// Rules are returned in induction order (strongest WRAcc first under the
/// evolving weights), each stamped with its unweighted coverage and
/// precision.
///
/// # Errors
///
/// [`LearnError::InvalidInput`] on inconsistent input or when `target`
/// never appears in `y`; [`LearnError::InvalidParameter`] on a zero beam
/// width or `gamma` outside `[0, 1)`.
pub fn learn_rules(
    x: &[Vec<f64>],
    y: &[i32],
    target: i32,
    params: Cn2SdParams,
) -> Result<Vec<Rule>, LearnError> {
    check_xy(x, y.len())?;
    if params.beam_width == 0 {
        return Err(LearnError::InvalidParameter {
            name: "beam_width",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }
    if !(0.0..1.0).contains(&params.gamma) {
        return Err(LearnError::InvalidParameter {
            name: "gamma",
            value: params.gamma,
            constraint: "must be in [0, 1)",
        });
    }
    if !y.contains(&target) {
        return Err(LearnError::InvalidInput(format!("target class {target} absent from labels")));
    }

    let candidates = candidate_conditions(x, params.n_thresholds);
    let mut weights = vec![1.0; x.len()];
    let mut rules = Vec::new();

    for _ in 0..params.max_rules {
        // Beam search for the best rule under current weights.
        let mut beam = vec![Candidate { conditions: vec![], wracc: 0.0 }];
        let mut best: Option<Candidate> = None;
        for _ in 0..params.max_conditions {
            let mut pool: Vec<Candidate> = Vec::new();
            for cand in &beam {
                for cond in &candidates {
                    // Skip conditions on a feature/op already constrained
                    // the same way (keeps rules readable).
                    if cand.conditions.iter().any(|c| c.feature == cond.feature && c.op == cond.op)
                    {
                        continue;
                    }
                    let mut conds = cand.conditions.clone();
                    conds.push(*cond);
                    let q = wracc(x, y, &weights, &conds, target);
                    pool.push(Candidate { conditions: conds, wracc: q });
                }
            }
            if pool.is_empty() {
                break;
            }
            pool.sort_by(|a, b| b.wracc.partial_cmp(&a.wracc).expect("finite wracc"));
            pool.truncate(params.beam_width);
            if best.as_ref().is_none_or(|b| pool[0].wracc > b.wracc + 1e-12) {
                best = Some(pool[0].clone());
            } else {
                break; // no refinement improved the incumbent
            }
            beam = pool;
        }
        let Some(best) = best else { break };
        if best.wracc <= 1e-9 {
            break;
        }
        // Covering has converged when the search re-finds a rule already
        // in the list (same condition set, order-independent).
        let canonical = |conds: &[Condition]| -> Vec<(usize, Op, u64)> {
            let mut c: Vec<(usize, Op, u64)> =
                conds.iter().map(|c| (c.feature, c.op, c.threshold.to_bits())).collect();
            c.sort_unstable_by(|a, b| {
                (a.0, matches!(a.1, Op::Gt), a.2).cmp(&(b.0, matches!(b.1, Op::Gt), b.2))
            });
            c
        };
        let best_key = canonical(&best.conditions);
        if rules.iter().any(|r: &Rule| canonical(&r.conditions) == best_key) {
            break;
        }
        // Unweighted stats for reporting.
        let mut coverage = 0usize;
        let mut positives = 0usize;
        for (xi, &yi) in x.iter().zip(y) {
            if best.conditions.iter().all(|c| c.matches(xi)) {
                coverage += 1;
                if yi == target {
                    positives += 1;
                }
            }
        }
        if positives < params.min_coverage {
            break;
        }
        rules.push(Rule {
            conditions: best.conditions.clone(),
            class: target,
            coverage,
            precision: positives as f64 / coverage.max(1) as f64,
            wracc: best.wracc,
        });
        // Weighted covering: decay weights of covered positives.
        let mut remaining = 0.0;
        for ((xi, &yi), w) in x.iter().zip(y).zip(weights.iter_mut()) {
            if yi == target && best.conditions.iter().all(|c| c.matches(xi)) {
                *w *= params.gamma;
            }
            if yi == target {
                remaining += *w;
            }
        }
        if remaining < 1e-3 {
            break; // target class fully explained
        }
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class 1 iff f0 > 5 (f1 is noise).
    fn threshold_data() -> (Vec<Vec<f64>>, Vec<i32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64 * 0.25; // 0.0 .. 9.75
            x.push(vec![v, (i % 7) as f64]);
            y.push(i32::from(v > 5.0));
        }
        (x, y)
    }

    #[test]
    fn recovers_single_threshold_rule() {
        let (x, y) = threshold_data();
        let rules = learn_rules(&x, &y, 1, Cn2SdParams::default()).unwrap();
        assert!(!rules.is_empty());
        let r = &rules[0];
        assert_eq!(r.class, 1);
        assert!(r.precision > 0.95, "precision {}", r.precision);
        // The discovered rule keys on feature 0 with a Gt condition near 5.
        assert!(r.conditions.iter().any(|c| c.feature == 0 && c.op == Op::Gt));
        // And it actually classifies the data.
        for (xi, &yi) in x.iter().zip(&y) {
            if r.matches(xi) {
                assert_eq!(yi, 1);
            }
        }
    }

    #[test]
    fn recovers_conjunctive_rule() {
        // Class 1 iff f0 > 3 AND f1 > 3 (the Fig. 10 shape: two via
        // counts jointly high).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..8 {
            for b in 0..8 {
                x.push(vec![a as f64, b as f64]);
                y.push(i32::from(a > 3 && b > 3));
            }
        }
        let rules = learn_rules(&x, &y, 1, Cn2SdParams::default()).unwrap();
        let r = &rules[0];
        assert!(r.precision > 0.9);
        let feats: Vec<usize> = r.conditions.iter().map(|c| c.feature).collect();
        assert!(feats.contains(&0) && feats.contains(&1), "rule should use both features: {r:?}");
    }

    #[test]
    fn weighted_covering_finds_disjoint_subgroups() {
        // Class 1 occupies two disjoint intervals of f0; covering should
        // produce (at least) two different rules.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let v = i as f64 * 0.2; // 0..12
            x.push(vec![v]);
            y.push(i32::from((1.0..3.0).contains(&v) || (8.0..10.0).contains(&v)));
        }
        let params = Cn2SdParams { max_rules: 4, gamma: 0.1, ..Default::default() };
        let rules = learn_rules(&x, &y, 1, params).unwrap();
        assert!(rules.len() >= 2, "expected >= 2 rules, got {}", rules.len());
        // The two rules cover different samples.
        let cov = |r: &Rule| -> Vec<usize> {
            x.iter().enumerate().filter(|(_, xi)| r.matches(xi)).map(|(i, _)| i).collect()
        };
        assert_ne!(cov(&rules[0]), cov(&rules[1]));
    }

    #[test]
    fn absent_target_rejected() {
        assert!(matches!(
            learn_rules(&[vec![0.0]], &[0], 1, Cn2SdParams::default()),
            Err(LearnError::InvalidInput(_))
        ));
    }

    #[test]
    fn pure_noise_learns_nothing_strong() {
        // Labels independent of features: WRAcc stays ≈ 0 so no (or only
        // weak, low-precision) rules come out.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 5) as f64]).collect();
        let y: Vec<i32> = (0..40).map(|i| i % 2).collect();
        let rules = learn_rules(&x, &y, 1, Cn2SdParams::default()).unwrap();
        for r in &rules {
            assert!(r.precision < 0.8, "suspiciously strong rule on noise: {r:?}");
        }
    }
}
