//! Rule learning — the knowledge-discovery backbone of the paper.
//!
//! Supervised rule induction ([`cn2sd`], the paper's ref \[9\]) produces
//! *interpretable, actionable* rules like the one in Fig. 10 ("if the
//! path contains many layer-4-5 and layer-5-6 vias it is slow") and the
//! template-refinement feedback of Table 1. Unsupervised association-rule
//! mining ([`apriori`], ref \[26\]) uncovers frequent patterns without a
//! class label.

pub mod apriori;
pub mod cn2sd;

use serde::Serialize;

/// A comparison operator in a rule condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Op {
    /// Feature value `<=` threshold.
    Le,
    /// Feature value `>` threshold.
    Gt,
}

/// One conjunct of a rule: `feature <op> threshold`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Condition {
    /// Column index of the feature.
    pub feature: usize,
    /// Comparison operator.
    pub op: Op,
    /// Threshold value.
    pub threshold: f64,
}

impl Condition {
    /// Whether `x` satisfies this condition.
    ///
    /// # Panics
    ///
    /// Panics if `self.feature >= x.len()`.
    pub fn matches(&self, x: &[f64]) -> bool {
        match self.op {
            Op::Le => x[self.feature] <= self.threshold,
            Op::Gt => x[self.feature] > self.threshold,
        }
    }

    /// Renders with a feature-name table, e.g. `"via45 > 30.0"`.
    pub fn display_with(&self, names: &[String]) -> String {
        let name = names.get(self.feature).map(String::as_str).unwrap_or("?");
        let op = match self.op {
            Op::Le => "<=",
            Op::Gt => ">",
        };
        format!("{name} {op} {:.4}", self.threshold)
    }
}

/// A conjunctive classification rule `IF c₁ ∧ c₂ ∧ … THEN class`.
///
/// Quality metadata (coverage/precision/WRAcc) is recorded from the
/// training data so an engineer can judge the rule — the paper's
/// usage-model principle: mining results must be presentable for human
/// decision making.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Rule {
    /// The conjunction of conditions.
    pub conditions: Vec<Condition>,
    /// Predicted class.
    pub class: i32,
    /// Samples matched on the training data.
    pub coverage: usize,
    /// Fraction of matched samples actually in `class`.
    pub precision: f64,
    /// Weighted relative accuracy at induction time.
    pub wracc: f64,
}

impl Rule {
    /// Whether `x` satisfies every condition.
    pub fn matches(&self, x: &[f64]) -> bool {
        self.conditions.iter().all(|c| c.matches(x))
    }

    /// Renders with a feature-name table, e.g.
    /// `"IF via45 > 30.0 AND via56 > 20.0 THEN class 1 (cov 42, prec 0.93)"`.
    pub fn display_with(&self, names: &[String]) -> String {
        let body = if self.conditions.is_empty() {
            "TRUE".to_string()
        } else {
            self.conditions.iter().map(|c| c.display_with(names)).collect::<Vec<_>>().join(" AND ")
        };
        format!(
            "IF {body} THEN class {} (cov {}, prec {:.2})",
            self.class, self.coverage, self.precision
        )
    }
}

/// An ordered list of rules plus a default class, applied first-match.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RuleSet {
    /// Rules in priority order.
    pub rules: Vec<Rule>,
    /// Class assigned when no rule fires.
    pub default_class: i32,
}

impl RuleSet {
    /// Predicts by first matching rule, else the default class.
    pub fn predict(&self, x: &[f64]) -> i32 {
        self.rules.iter().find(|r| r.matches(x)).map(|r| r.class).unwrap_or(self.default_class)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> Rule {
        Rule {
            conditions: vec![
                Condition { feature: 0, op: Op::Gt, threshold: 1.0 },
                Condition { feature: 1, op: Op::Le, threshold: 0.5 },
            ],
            class: 1,
            coverage: 10,
            precision: 0.9,
            wracc: 0.1,
        }
    }

    #[test]
    fn conjunction_semantics() {
        let r = rule();
        assert!(r.matches(&[2.0, 0.3]));
        assert!(!r.matches(&[0.5, 0.3])); // first conjunct fails
        assert!(!r.matches(&[2.0, 0.7])); // second conjunct fails
    }

    #[test]
    fn display_uses_names() {
        let names = vec!["via45".to_string(), "slack".to_string()];
        let s = rule().display_with(&names);
        assert!(s.contains("via45 > 1.0000"));
        assert!(s.contains("slack <= 0.5000"));
        assert!(s.contains("THEN class 1"));
    }

    #[test]
    fn ruleset_first_match_wins() {
        let rs = RuleSet {
            rules: vec![
                Rule {
                    conditions: vec![Condition { feature: 0, op: Op::Gt, threshold: 5.0 }],
                    class: 2,
                    coverage: 1,
                    precision: 1.0,
                    wracc: 0.0,
                },
                Rule {
                    conditions: vec![Condition { feature: 0, op: Op::Gt, threshold: 1.0 }],
                    class: 1,
                    coverage: 1,
                    precision: 1.0,
                    wracc: 0.0,
                },
            ],
            default_class: 0,
        };
        assert_eq!(rs.predict(&[10.0]), 2);
        assert_eq!(rs.predict(&[3.0]), 1);
        assert_eq!(rs.predict(&[0.0]), 0);
    }

    #[test]
    fn empty_rule_matches_everything() {
        let r = Rule { conditions: vec![], class: 7, coverage: 0, precision: 0.0, wracc: 0.0 };
        assert!(r.matches(&[1.0, 2.0, 3.0]));
        assert!(r.display_with(&[]).contains("IF TRUE"));
    }
}
