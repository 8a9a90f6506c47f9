//! Fig. 9 — fast prediction of layout variability: an SVM over the
//! histogram-intersection kernel reproduces the golden lithography
//! simulation's hotspot labels at a fraction of the cost ("most of the
//! high variability areas identified by the simulation were correctly
//! identified by the learning model").

use crate::{pct, Report};
use edm_core::variability::{self, VariabilityConfig};
use edm_litho::layout::LayoutGenerator;
use edm_litho::variability::VariabilityAnalyzer;

pub fn run(s: u64, r: &mut Report) {
    r.header("Figure 9: fast layout-variability prediction vs litho simulation");
    let config = VariabilityConfig { n_train: 400, n_test: 200, ..Default::default() };
    let mut rng = crate::rng(9, s);
    let (result, _predictor) = variability::run(
        &LayoutGenerator::default(),
        &VariabilityAnalyzer::default(),
        &config,
        &mut rng,
    )
    .expect("flow runs");

    outln!(r, "training clips: {}   test clips: {}", config.n_train, config.n_test);
    outln!(r, "golden-bad fraction in test set: {}", pct(result.bad_fraction));
    outln!(r);
    outln!(r, "{:<26} {:>10} {:>12} {:>12}", "model", "accuracy", "bad recall", "false alarm");
    for (name, q) in [
        ("SVC (HI kernel)", &result.svc),
        ("one-class SVM (good-only)", &result.one_class),
    ] {
        let (acc, recall, alarm) = (pct(q.accuracy), pct(q.bad_recall), pct(q.false_alarm_rate));
        outln!(r, "{name:<26} {acc:>10} {recall:>12} {alarm:>12}");
    }
    outln!(r);
    // Wall clock varies run to run, so it stays out of the golden output.
    eprintln!(
        "golden simulation: {:.0} us/clip   model: {:.1} us/clip   speedup: {:.0}x",
        result.golden_us_per_clip,
        result.model_us_per_clip,
        result.speedup()
    );

    r.claim("SVC tracks the golden labels (accuracy >= 80%)", result.svc.accuracy >= 0.80);
    r.claim(
        "most high-variability clips are identified (recall >= 75%)",
        result.svc.bad_recall >= 0.75,
    );
    r.claim("the model is much faster than the simulation (>= 10x)", result.speedup() >= 10.0);
}
