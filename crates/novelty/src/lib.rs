//! # edm-novelty — outlier and novelty detection
//!
//! "Novelty detection is another widely applied unsupervised learning
//! method" (paper §2.4). The paper's preferred detector, the one-class
//! SVM over any kernel, lives in `edm-svm`, and Fig. 7's novel-test
//! filter calls its solver directly. This crate holds the
//! [`NoveltyDetector`] trait and the detector behind it that Fig. 11's
//! return screen and the ablations use:
//!
//! * [`MahalanobisDetector`] — covariance-based distance, the classic
//!   multivariate test-outlier screen (paper ref \[24\]).
//!
//! Scores are oriented so that **higher = more novel**, and a detector
//! exposes a threshold calibrated on its training data, so flows can
//! swap detectors without changing logic.

#![forbid(unsafe_code)]

use edm_linalg::{stats, Cholesky, Matrix};
use serde::Serialize;
use std::fmt;

/// Errors from detector fitting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NoveltyError {
    /// The training inputs were inconsistent or empty.
    InvalidInput(String),
    /// A parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// An internal numeric step failed.
    Numeric(String),
}

impl fmt::Display for NoveltyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoveltyError::InvalidInput(m) => write!(f, "invalid novelty input: {m}"),
            NoveltyError::InvalidParameter { name, value, constraint } => {
                write!(f, "parameter {name} = {value} {constraint}")
            }
            NoveltyError::Numeric(m) => write!(f, "numeric failure: {m}"),
        }
    }
}

impl std::error::Error for NoveltyError {}

fn check_points(x: &[Vec<f64>]) -> Result<usize, NoveltyError> {
    if x.is_empty() {
        return Err(NoveltyError::InvalidInput("no training points".into()));
    }
    let d = x[0].len();
    if x.iter().any(|r| r.len() != d) {
        return Err(NoveltyError::InvalidInput("ragged point rows".into()));
    }
    Ok(d)
}

/// A fitted novelty detector: scores are "higher = more novel", and
/// [`NoveltyDetector::is_novel`] applies the detector's calibrated
/// threshold.
pub trait NoveltyDetector {
    /// Novelty score for `x` (higher = more novel).
    fn score(&self, x: &[f64]) -> f64;

    /// The calibrated decision threshold.
    fn threshold(&self) -> f64;

    /// Whether `x` scores above the threshold.
    fn is_novel(&self, x: &[f64]) -> bool {
        self.score(x) > self.threshold()
    }
}

/// Mahalanobis-distance detector: `√((x−μ)ᵀ Σ⁻¹ (x−μ))`, thresholded at
/// the `quantile` of the training distances.
#[derive(Debug, Clone, Serialize)]
pub struct MahalanobisDetector {
    mean: Vec<f64>,
    chol: Cholesky,
    threshold: f64,
}

impl MahalanobisDetector {
    /// Fits mean/covariance and calibrates the threshold at the given
    /// training-score quantile (e.g. `0.99`).
    ///
    /// # Errors
    ///
    /// [`NoveltyError::InvalidParameter`] for a quantile outside
    /// `(0, 1]`; [`NoveltyError::Numeric`] if the covariance cannot be
    /// factorized even with a diagonal ridge.
    pub fn fit(x: &[Vec<f64>], quantile: f64) -> Result<Self, NoveltyError> {
        if !(quantile > 0.0 && quantile <= 1.0) {
            return Err(NoveltyError::InvalidParameter {
                name: "quantile",
                value: quantile,
                constraint: "must be in (0, 1]",
            });
        }
        let d = check_points(x)?;
        if x.len() < d + 1 {
            return Err(NoveltyError::InvalidInput(format!(
                "need more samples ({}) than features ({d}) for a covariance",
                x.len()
            )));
        }
        let xm = Matrix::from_rows(x);
        let mean = stats::column_means(&xm);
        let mut cov = stats::covariance(&xm);
        let ridge = (0..d).map(|i| cov[(i, i)]).fold(0.0_f64, f64::max) * 1e-8 + 1e-12;
        for i in 0..d {
            cov[(i, i)] += ridge;
        }
        let chol = cov.cholesky().map_err(|e| NoveltyError::Numeric(e.to_string()))?;
        let mut detector = MahalanobisDetector { mean, chol, threshold: f64::INFINITY };
        let scores: Vec<f64> = x.iter().map(|p| detector.score(p)).collect();
        detector.threshold = stats::quantile(&scores, quantile).expect("non-empty scores");
        Ok(detector)
    }
}

impl NoveltyDetector for MahalanobisDetector {
    fn score(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.mean.len(), "feature count mismatch");
        let dev: Vec<f64> = x.iter().zip(&self.mean).map(|(&v, &m)| v - m).collect();
        let z = self.chol.solve_lower(&dev);
        edm_linalg::dot(&z, &z).sqrt()
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect()
    }

    #[test]
    fn all_detectors_flag_a_far_outlier() {
        let x = cloud(80, 1);
        let far = vec![8.0, -7.0];
        let near = vec![0.5, 0.5];

        // The one-class SVM lives in edm-svm: novel means a negative
        // decision value.
        let svm = edm_svm::OneClassSvm::new(edm_svm::OneClassParams::default().with_nu(0.05))
            .kernel(edm_kernels::RbfKernel::new(1.0))
            .fit(&x)
            .unwrap();
        assert!(svm.decision_function(&far) < 0.0);
        assert!(svm.decision_function(&near) >= 0.0);

        let maha = MahalanobisDetector::fit(&x, 0.99).unwrap();
        assert!(maha.is_novel(&far));
        assert!(!maha.is_novel(&near));
    }

    #[test]
    fn scores_increase_with_distance() {
        let x = cloud(60, 2);
        let maha = MahalanobisDetector::fit(&x, 0.95).unwrap();
        let s = |r: f64| maha.score(&[0.5 + r, 0.5]);
        assert!(s(3.0) > s(1.0));
        assert!(s(10.0) > s(3.0));
    }

    #[test]
    fn mahalanobis_respects_correlation() {
        // Strongly correlated 2-D data: a point off the correlation axis
        // is more novel than an equally-distant point along it.
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                let t = rng.gen::<f64>() * 4.0 - 2.0;
                vec![t, t + 0.05 * (rng.gen::<f64>() - 0.5)]
            })
            .collect();
        let maha = MahalanobisDetector::fit(&x, 0.99).unwrap();
        let along = maha.score(&[1.5, 1.5]);
        let against = maha.score(&[1.5, -1.5]);
        assert!(against > 10.0 * along, "against {against} vs along {along}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let x = cloud(20, 4);
        assert!(MahalanobisDetector::fit(&x, 0.0).is_err());
        assert!(MahalanobisDetector::fit(&x, 1.5).is_err());
        assert!(MahalanobisDetector::fit(&x[..2], 0.9).is_err());
    }
}
