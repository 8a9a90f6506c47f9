//! Paper ref \[32\] — "A Pattern Mining Framework for Inter-Wafer
//! Abnormality Analysis": wafer failures cluster into spatial
//! signatures; mining across wafers surfaces which signatures recur and
//! what co-occurs with them.
//!
//! Two mining passes over a generated production window:
//! 1. cluster wafers in spatial-feature space and check the clusters
//!    recover the injected signature families;
//! 2. Apriori over per-wafer fail-bin transactions to surface the
//!    signature bins that co-occur with excursion lots.

use crate::{pct, Report};
use edm_cluster::kmeans::kmeans;
use edm_cluster::metrics::rand_index;
use edm_learn::rules::apriori::{mine, AprioriParams};
use edm_mfgtest::wafer::{SpatialSignature, WaferMap};
use rand::Rng;

pub fn run(s: u64, r: &mut Report) {
    r.header("ref [32]: inter-wafer abnormality pattern mining");
    let mut rng = crate::rng(32, s);
    let n_per_class = 40;
    let mut wafers = Vec::new();
    let mut truth = Vec::new();
    for _ in 0..n_per_class {
        // healthy: light random defectivity
        wafers.push(WaferMap::new(21).with_random_defects(0.02, &mut rng));
        truth.push(0usize);
        // edge-ring excursion
        wafers.push(
            WaferMap::new(21).with_random_defects(0.02, &mut rng).with_signature(
                SpatialSignature::EdgeRing { inner: 0.85, fail_prob: 0.8 },
                &mut rng,
            ),
        );
        truth.push(1);
        // scratch excursion
        wafers.push(WaferMap::new(21).with_random_defects(0.02, &mut rng).with_signature(
            SpatialSignature::Scratch {
                angle: rng.gen::<f64>() * std::f64::consts::PI,
                fail_prob: 0.95,
            },
            &mut rng,
        ));
        truth.push(2);
    }

    // Pass 1: cluster in spatial-feature space.
    let features: Vec<Vec<f64>> = wafers.iter().map(WaferMap::spatial_features).collect();
    let ds = edm_data::Dataset::unlabeled(features.clone());
    let scaler = edm_data::StandardScaler::fit(&ds);
    let scaled: Vec<Vec<f64>> = features.iter().map(|f| scaler.transform_sample(f)).collect();
    let clustering = kmeans(&scaled, 3, 200, &mut rng).expect("kmeans runs");
    let ri = rand_index(&clustering.labels, &truth);
    outln!(
        r,
        "{} wafers, 3 signature families; k-means on {:?}",
        wafers.len(),
        WaferMap::spatial_feature_names()
    );
    outln!(r, "rand index vs injected ground truth: {ri:.3}");

    // Pass 2: association mining over per-wafer fail-bin transactions.
    // Item space: fail bins (1 = random, 2 = edge, 4 = scratch) plus a
    // low-yield marker item (100).
    let transactions: Vec<Vec<u32>> = wafers
        .iter()
        .map(|w| {
            let mut items = w.fail_bins();
            if w.yield_fraction() < 0.85 {
                items.push(100);
            }
            items
        })
        .collect();
    let (frequent, rules) =
        mine(&transactions, AprioriParams { min_support: 0.1, min_confidence: 0.7, max_len: 3 })
            .expect("mining runs");
    outln!(r, "\nfrequent itemsets: {}   rules: {}", frequent.len(), rules.len());
    for rule in rules.iter().take(5) {
        let (from, to, lift) = (&rule.antecedent, &rule.consequent, rule.lift);
        let (supp, conf) = (pct(rule.support), pct(rule.confidence));
        outln!(r, "  {from:?} => {to:?}  (supp {supp}, conf {conf}, lift {lift:.2})");
    }
    // The signature bins should imply the low-yield marker.
    let signature_implies_low_yield = rules.iter().any(|r| {
        r.consequent == vec![100]
            && (r.antecedent.contains(&2) || r.antecedent.contains(&4))
            && r.lift > 1.0
    });

    r.claim(
        &format!("clusters recover the signature families (rand index {ri:.2} >= 0.85)"),
        ri >= 0.85,
    );
    r.claim("association mining links signature bins to low yield", signature_implies_low_yield);
}
