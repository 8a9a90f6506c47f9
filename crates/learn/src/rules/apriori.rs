//! Apriori association-rule mining (the paper's ref \[26\]) —
//! unsupervised rule learning over transactions: find frequent itemsets
//! level-wise, then emit rules `antecedent ⇒ consequent` above a
//! confidence floor.
//!
//! In the EDA substrates, "transactions" are sets of discrete attributes
//! (e.g. the set of cell types on a timing path, the set of tests a die
//! failed), and the mined rules surface frequently co-occurring
//! structure.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::LearnError;

/// A frequent itemset with its support count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FrequentItemset {
    /// Sorted item ids.
    pub items: Vec<u32>,
    /// Number of transactions containing all items.
    pub support_count: usize,
}

/// An association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AssociationRule {
    /// Sorted antecedent item ids.
    pub antecedent: Vec<u32>,
    /// Sorted consequent item ids (disjoint from the antecedent).
    pub consequent: Vec<u32>,
    /// Fraction of transactions containing antecedent ∪ consequent.
    pub support: f64,
    /// `P(consequent | antecedent)`.
    pub confidence: f64,
    /// `confidence / P(consequent)` — >1 means positively associated.
    pub lift: f64,
}

/// Parameters for [`mine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AprioriParams {
    /// Minimum support as a fraction of transactions, in `(0, 1]`.
    pub min_support: f64,
    /// Minimum rule confidence, in `(0, 1]`.
    pub min_confidence: f64,
    /// Cap on itemset size (guards combinatorial blowup).
    pub max_len: usize,
}

impl Default for AprioriParams {
    fn default() -> Self {
        AprioriParams { min_support: 0.1, min_confidence: 0.6, max_len: 4 }
    }
}

fn count_support(transactions: &[Vec<u32>], itemset: &[u32]) -> usize {
    transactions.iter().filter(|t| itemset.iter().all(|i| t.binary_search(i).is_ok())).count()
}

/// Mines frequent itemsets and association rules.
///
/// Transactions are item-id sets; they are sorted/deduplicated
/// internally. Returns `(frequent itemsets, rules)`, itemsets ordered by
/// size then lexicographically, rules by descending confidence.
///
/// # Errors
///
/// [`LearnError::InvalidParameter`] if a threshold is outside `(0, 1]`;
/// [`LearnError::InvalidInput`] if there are no transactions.
pub fn mine(
    transactions: &[Vec<u32>],
    params: AprioriParams,
) -> Result<(Vec<FrequentItemset>, Vec<AssociationRule>), LearnError> {
    if transactions.is_empty() {
        return Err(LearnError::InvalidInput("no transactions".into()));
    }
    for (name, v) in
        [("min_support", params.min_support), ("min_confidence", params.min_confidence)]
    {
        if !(v > 0.0 && v <= 1.0) {
            return Err(LearnError::InvalidParameter {
                name,
                value: v,
                constraint: "must be in (0, 1]",
            });
        }
    }
    let txs: Vec<Vec<u32>> = transactions
        .iter()
        .map(|t| {
            let mut s = t.clone();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let n = txs.len();
    let min_count = ((params.min_support * n as f64).ceil() as usize).max(1);

    // L1: frequent single items. BTreeMap, not HashMap: the level-wise
    // join and its `binary_search` prune both require `level` in sorted
    // order, and the iteration below must not depend on a per-process
    // hash seed.
    let mut item_counts: BTreeMap<u32, usize> = BTreeMap::new();
    for t in &txs {
        for &i in t {
            *item_counts.entry(i).or_insert(0) += 1;
        }
    }
    let mut level: Vec<Vec<u32>> =
        item_counts.iter().filter(|&(_, &c)| c >= min_count).map(|(&i, _)| vec![i]).collect();

    let mut frequent: Vec<FrequentItemset> = level
        .iter()
        .map(|is| FrequentItemset { items: is.clone(), support_count: item_counts[&is[0]] })
        .collect();

    // Level-wise growth with the Apriori join (prefix join of sorted sets).
    let mut k = 1;
    while !level.is_empty() && k < params.max_len {
        let mut next: Vec<Vec<u32>> = Vec::new();
        for a in 0..level.len() {
            for b in (a + 1)..level.len() {
                if level[a][..k - 1] != level[b][..k - 1] {
                    continue;
                }
                let mut cand = level[a].clone();
                cand.push(level[b][k - 1]);
                cand.sort_unstable();
                // Prune: all (k)-subsets must be frequent.
                let all_sub_frequent = (0..cand.len()).all(|skip| {
                    let sub: Vec<u32> = cand
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != skip)
                        .map(|(_, &v)| v)
                        .collect();
                    level.binary_search(&sub).is_ok()
                });
                if !all_sub_frequent {
                    continue;
                }
                let count = count_support(&txs, &cand);
                if count >= min_count {
                    frequent.push(FrequentItemset { items: cand.clone(), support_count: count });
                    next.push(cand);
                }
            }
        }
        next.sort();
        next.dedup();
        level = next;
        k += 1;
    }

    // Rule generation: for each frequent itemset of size >= 2, split into
    // antecedent/consequent (single-item consequents keep output focused).
    let support_of: BTreeMap<Vec<u32>, usize> =
        frequent.iter().map(|f| (f.items.clone(), f.support_count)).collect();
    let mut rules = Vec::new();
    for f in frequent.iter().filter(|f| f.items.len() >= 2) {
        for (ci, &c) in f.items.iter().enumerate() {
            let antecedent: Vec<u32> =
                f.items.iter().enumerate().filter(|&(i, _)| i != ci).map(|(_, &v)| v).collect();
            let ante_count = support_of
                .get(&antecedent)
                .copied()
                .unwrap_or_else(|| count_support(&txs, &antecedent));
            if ante_count == 0 {
                continue;
            }
            let confidence = f.support_count as f64 / ante_count as f64;
            if confidence < params.min_confidence {
                continue;
            }
            let cons_count = item_counts.get(&c).copied().unwrap_or(0);
            let cons_prob = cons_count as f64 / n as f64;
            rules.push(AssociationRule {
                antecedent,
                consequent: vec![c],
                support: f.support_count as f64 / n as f64,
                confidence,
                lift: if cons_prob > 0.0 { confidence / cons_prob } else { 0.0 },
            });
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("finite confidence")
            .then(b.support.partial_cmp(&a.support).expect("finite support"))
    });
    frequent.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then(a.items.cmp(&b.items)));
    Ok((frequent, rules))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic bread/butter/milk toy market.
    fn market() -> Vec<Vec<u32>> {
        // 0 = bread, 1 = butter, 2 = milk, 3 = beer
        vec![vec![0, 1, 2], vec![0, 1], vec![0, 2], vec![0, 1, 2], vec![3], vec![0, 1, 3]]
    }

    #[test]
    fn frequent_itemsets_found_with_correct_support() {
        let (freq, _) =
            mine(&market(), AprioriParams { min_support: 0.5, min_confidence: 0.5, max_len: 3 })
                .unwrap();
        let f = |items: &[u32]| freq.iter().find(|f| f.items == items).map(|f| f.support_count);
        assert_eq!(f(&[0]), Some(5));
        assert_eq!(f(&[1]), Some(4));
        assert_eq!(f(&[0, 1]), Some(4));
        assert_eq!(f(&[3]), None); // support 2/6 < 0.5
    }

    #[test]
    fn butter_implies_bread() {
        let (_, rules) =
            mine(&market(), AprioriParams { min_support: 0.5, min_confidence: 0.9, max_len: 3 })
                .unwrap();
        let r = rules
            .iter()
            .find(|r| r.antecedent == vec![1] && r.consequent == vec![0])
            .expect("butter => bread should be mined");
        assert!((r.confidence - 1.0).abs() < 1e-12); // butter always with bread
        assert!(r.lift > 1.0);
    }

    #[test]
    fn min_confidence_filters() {
        let (_, strict) =
            mine(&market(), AprioriParams { min_support: 0.3, min_confidence: 0.99, max_len: 3 })
                .unwrap();
        let (_, loose) =
            mine(&market(), AprioriParams { min_support: 0.3, min_confidence: 0.3, max_len: 3 })
                .unwrap();
        assert!(strict.len() < loose.len());
        assert!(strict.iter().all(|r| r.confidence >= 0.99));
    }

    #[test]
    fn duplicate_items_in_transaction_counted_once() {
        let txs = vec![vec![1, 1, 2], vec![1, 2, 2]];
        let (freq, _) =
            mine(&txs, AprioriParams { min_support: 1.0, min_confidence: 0.5, max_len: 2 })
                .unwrap();
        let pair = freq.iter().find(|f| f.items == vec![1, 2]).unwrap();
        assert_eq!(pair.support_count, 2);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(matches!(
            mine(&[vec![0]], AprioriParams { min_support: 0.0, ..Default::default() }),
            Err(LearnError::InvalidParameter { name: "min_support", .. })
        ));
        assert!(matches!(mine(&[], AprioriParams::default()), Err(LearnError::InvalidInput(_))));
    }
}
