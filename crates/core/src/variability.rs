//! Fast layout-variability prediction (paper Figs. 8–9, ref \[13\]).
//!
//! The golden lithography simulation labels a training set of layout
//! clips good/bad; an SVM over the histogram-intersection kernel on
//! local-density histograms then predicts variability for new clips at a
//! tiny fraction of the simulation cost. The paper trained both a binary
//! SVC and a one-class SVM (good-only training); both are provided.

use std::time::Instant;

use edm_kernels::HistogramIntersectionKernel;
use edm_litho::features::{density_histogram, HistogramSpec};
use edm_litho::layout::{LayoutClip, LayoutGenerator};
use edm_litho::variability::{VariabilityAnalyzer, VariabilityLabel};
use edm_svm::{
    OneClassModel, OneClassParams, OneClassSvm, SvcModel, SvcParams, SvcTrainer, SvmError,
};
use rand::Rng;
use serde::Serialize;

/// Configuration of the variability-prediction flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VariabilityConfig {
    /// Training clips (labeled by the golden simulator).
    pub n_train: usize,
    /// Held-out evaluation clips.
    pub n_test: usize,
    /// Histogram feature spec.
    pub histogram: HistogramSpec,
    /// SVC box constraint.
    pub svc_c: f64,
    /// One-class ν (trained on good clips only).
    pub one_class_nu: f64,
}

impl Default for VariabilityConfig {
    fn default() -> Self {
        VariabilityConfig {
            n_train: 300,
            n_test: 150,
            histogram: HistogramSpec::default(),
            svc_c: 10.0,
            one_class_nu: 0.15,
        }
    }
}

/// Accuracy of one predictor against the golden labels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PredictorQuality {
    /// Overall agreement with the golden simulation.
    pub accuracy: f64,
    /// Fraction of golden-bad clips flagged (hotspot detection rate —
    /// the quantity Fig. 9 emphasizes: "most of the high variability
    /// areas were correctly identified").
    pub bad_recall: f64,
    /// Fraction of golden-good clips wrongly flagged.
    pub false_alarm_rate: f64,
}

/// Result of the Fig. 9 experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VariabilityResult {
    /// Binary SVC quality.
    pub svc: PredictorQuality,
    /// One-class (good-only) quality.
    pub one_class: PredictorQuality,
    /// Golden-bad fraction in the test set (base rate).
    pub bad_fraction: f64,
    /// Golden simulation wall time per clip (µs).
    pub golden_us_per_clip: f64,
    /// Model prediction wall time per clip, including feature
    /// extraction (µs).
    pub model_us_per_clip: f64,
}

impl VariabilityResult {
    /// How many times faster the model is than the golden simulation.
    pub fn speedup(&self) -> f64 {
        self.golden_us_per_clip / self.model_us_per_clip.max(1e-9)
    }
}

/// A trained fast variability predictor (the deployable artifact).
#[derive(Debug, Clone, Serialize)]
pub struct VariabilityPredictor {
    spec: HistogramSpec,
    svc: SvcModel<HistogramIntersectionKernel>,
    one_class: OneClassModel<HistogramIntersectionKernel>,
}

impl VariabilityPredictor {
    /// Predicts whether a clip is hotspot-prone, via the binary model.
    pub fn predict_bad(&self, clip: &LayoutClip) -> bool {
        let h = density_histogram(clip, &self.spec);
        self.svc.predict(&h) > 0.0
    }

    /// One-class view: is the clip unlike the good training clips?
    pub fn is_unfamiliar(&self, clip: &LayoutClip) -> bool {
        let h = density_histogram(clip, &self.spec);
        self.one_class.is_novel(&h)
    }

    /// The histogram features both models score.
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// The binary hotspot model behind [`VariabilityPredictor::predict_bad`].
    pub fn svc(&self) -> &SvcModel<HistogramIntersectionKernel> {
        &self.svc
    }

    /// The good-only model behind [`VariabilityPredictor::is_unfamiliar`].
    pub fn one_class(&self) -> &OneClassModel<HistogramIntersectionKernel> {
        &self.one_class
    }
}

/// Runs the full Fig. 9 experiment: generate clips, label with the
/// golden simulator, train SVC + one-class models on HI-kernel
/// histograms, evaluate on held-out clips, and time both paths.
///
/// Returns the result plus the trained predictor.
///
/// # Errors
///
/// Propagates SVM training failures (e.g. a training draw with a single
/// class — enlarge `n_train`).
pub fn run<R: Rng + ?Sized>(
    generator: &LayoutGenerator,
    analyzer: &VariabilityAnalyzer,
    config: &VariabilityConfig,
    rng: &mut R,
) -> Result<(VariabilityResult, VariabilityPredictor), SvmError> {
    let _span = edm_trace::span("core.variability.run");
    // Generate and label.
    let mut clips = Vec::with_capacity(config.n_train + config.n_test);
    for _ in 0..(config.n_train + config.n_test) {
        clips.push(generator.generate_random(rng).1);
    }
    let golden_start = Instant::now();
    let labels: Vec<VariabilityLabel> = clips.iter().map(|c| analyzer.analyze(c).label).collect();
    let golden_us_per_clip = golden_start.elapsed().as_micros() as f64 / clips.len() as f64;

    let histograms: Vec<Vec<f64>> =
        clips.iter().map(|c| density_histogram(c, &config.histogram)).collect();
    let (train_h, test_h) = histograms.split_at(config.n_train);
    let (train_l, test_l) = labels.split_at(config.n_train);

    // Binary SVC on ±1 labels.
    let y: Vec<f64> =
        train_l.iter().map(|&l| if l == VariabilityLabel::Bad { 1.0 } else { -1.0 }).collect();
    let svc = SvcTrainer::new(SvcParams::default().with_c(config.svc_c))
        .kernel(HistogramIntersectionKernel::new())
        .fit(train_h, &y)?;

    // One-class on the good clips only.
    let good_h: Vec<Vec<f64>> = train_h
        .iter()
        .zip(train_l)
        .filter(|&(_, &l)| l == VariabilityLabel::Good)
        .map(|(h, _)| h.clone())
        .collect();
    let one_class = OneClassSvm::new(OneClassParams::default().with_nu(config.one_class_nu))
        .kernel(HistogramIntersectionKernel::new())
        .fit(&good_h)?;

    // Evaluate on the held-out clips (timed).
    let model_start = Instant::now();
    let svc_pred: Vec<bool> = test_h.iter().map(|h| svc.predict(h) > 0.0).collect();
    let oc_pred: Vec<bool> = test_h.iter().map(|h| one_class.is_novel(h)).collect();
    let model_us_per_clip =
        model_start.elapsed().as_micros() as f64 / (2 * test_h.len()).max(1) as f64;

    let quality = |pred: &[bool]| -> PredictorQuality {
        let mut correct = 0usize;
        let mut bad_total = 0usize;
        let mut bad_caught = 0usize;
        let mut good_total = 0usize;
        let mut false_alarms = 0usize;
        for (&p, &l) in pred.iter().zip(test_l) {
            let is_bad = l == VariabilityLabel::Bad;
            if p == is_bad {
                correct += 1;
            }
            if is_bad {
                bad_total += 1;
                if p {
                    bad_caught += 1;
                }
            } else {
                good_total += 1;
                if p {
                    false_alarms += 1;
                }
            }
        }
        PredictorQuality {
            accuracy: correct as f64 / pred.len().max(1) as f64,
            bad_recall: bad_caught as f64 / bad_total.max(1) as f64,
            false_alarm_rate: false_alarms as f64 / good_total.max(1) as f64,
        }
    };

    let bad_fraction = test_l.iter().filter(|&&l| l == VariabilityLabel::Bad).count() as f64
        / test_l.len().max(1) as f64;

    let result = VariabilityResult {
        svc: quality(&svc_pred),
        one_class: quality(&oc_pred),
        bad_fraction,
        golden_us_per_clip,
        model_us_per_clip,
    };
    let predictor = VariabilityPredictor { spec: config.histogram, svc, one_class };
    Ok((result, predictor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn model_tracks_golden_labels_and_is_faster() {
        let mut rng = StdRng::seed_from_u64(9);
        let config = VariabilityConfig { n_train: 120, n_test: 60, ..Default::default() };
        let (result, predictor) =
            run(&LayoutGenerator::default(), &VariabilityAnalyzer::default(), &config, &mut rng)
                .unwrap();
        assert!(result.svc.accuracy > 0.75, "svc accuracy {} too low", result.svc.accuracy);
        assert!(
            result.svc.bad_recall > 0.7,
            "hotspot recall {} too low (bad fraction {})",
            result.svc.bad_recall,
            result.bad_fraction
        );
        assert!(result.speedup() > 3.0, "speedup {}", result.speedup());
        // The deployable predictor agrees with itself.
        let clip = LayoutGenerator::default().generate_random(&mut rng).1;
        let _ = predictor.predict_bad(&clip);
        let _ = predictor.is_unfamiliar(&clip);
    }
}
