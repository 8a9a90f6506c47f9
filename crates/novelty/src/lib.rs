//! # edm-novelty — outlier and novelty detection
//!
//! "Novelty detection is another widely applied unsupervised learning
//! method" (paper §2.4). Four detectors behind one [`NoveltyDetector`]
//! trait:
//!
//! * [`OneClassSvmDetector`] — the paper's preferred choice (one-class
//!   SVM over any kernel), powering Fig. 7 and Fig. 11;
//! * [`MahalanobisDetector`] — covariance-based distance, the classic
//!   multivariate test-outlier screen (paper ref \[24\]);
//! * [`KnnDistanceDetector`] — distance to the k-th nearest training
//!   sample;
//! * [`LofDetector`] — local outlier factor, density-relative scoring.
//!
//! Scores are oriented so that **higher = more novel**, and every
//! detector exposes a threshold calibrated on its training data, so flows
//! can swap detectors without changing logic.

#![forbid(unsafe_code)]

use edm_kernels::{Kernel, RbfKernel};
use edm_linalg::{stats, Cholesky, Matrix};
use edm_svm::{OneClassModel, OneClassParams, OneClassSvm, SvmError};
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

impl From<SvmError> for NoveltyError {
    fn from(e: SvmError) -> Self {
        NoveltyError::Numeric(e.to_string())
    }
}

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

/// One-class SVM wrapped to the common score orientation.
#[derive(Debug, Clone, Serialize)]
pub struct OneClassSvmDetector<K = RbfKernel> {
    model: OneClassModel<K>,
}

impl<K: Kernel<[f64]> + Clone> OneClassSvmDetector<K> {
    /// Trains a ν one-class SVM on `x`.
    ///
    /// # Errors
    ///
    /// Propagates SVM training errors.
    pub fn fit(x: &[Vec<f64>], kernel: K, nu: f64) -> Result<Self, NoveltyError> {
        check_points(x)?;
        let model =
            OneClassSvm::new(OneClassParams::default().with_nu(nu)).kernel(kernel).fit(x)?;
        Ok(OneClassSvmDetector { model })
    }

    /// The underlying one-class model.
    pub fn model(&self) -> &OneClassModel<K> {
        &self.model
    }
}

impl<K: Kernel<[f64]>> NoveltyDetector for OneClassSvmDetector<K> {
    fn score(&self, x: &[f64]) -> f64 {
        -self.model.decision_function(x)
    }

    fn threshold(&self) -> f64 {
        0.0
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

/// k-th-nearest-neighbor distance detector.
#[derive(Debug, Clone, Serialize)]
pub struct KnnDistanceDetector {
    x: Vec<Vec<f64>>,
    k: usize,
    threshold: f64,
}

impl KnnDistanceDetector {
    /// Fits by memorizing the data (borrowing, cloning internally, like
    /// every other `fit` in the workspace); the threshold is the
    /// `quantile` of each training point's own k-NN distance (self
    /// excluded).
    ///
    /// # Errors
    ///
    /// [`NoveltyError::InvalidParameter`] for `k == 0` or a quantile
    /// outside `(0, 1]`; [`NoveltyError::InvalidInput`] if `x` has fewer
    /// than `k + 1` points.
    pub fn fit(x: &[Vec<f64>], k: usize, quantile: f64) -> Result<Self, NoveltyError> {
        if k == 0 {
            return Err(NoveltyError::InvalidParameter {
                name: "k",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if !(quantile > 0.0 && quantile <= 1.0) {
            return Err(NoveltyError::InvalidParameter {
                name: "quantile",
                value: quantile,
                constraint: "must be in (0, 1]",
            });
        }
        check_points(x)?;
        if x.len() <= k {
            return Err(NoveltyError::InvalidInput(format!(
                "need more than k = {k} points, got {}",
                x.len()
            )));
        }
        let mut detector = KnnDistanceDetector { x: x.to_vec(), k, threshold: f64::INFINITY };
        let train_scores: Vec<f64> =
            (0..detector.x.len()).map(|i| detector.kth_distance(&detector.x[i], Some(i))).collect();
        detector.threshold = stats::quantile(&train_scores, quantile).expect("non-empty scores");
        Ok(detector)
    }

    fn kth_distance(&self, p: &[f64], exclude: Option<usize>) -> f64 {
        let mut d: Vec<f64> = self
            .x
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != exclude)
            .map(|(_, q)| edm_linalg::sq_dist(p, q))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        d[self.k.min(d.len()) - 1].sqrt()
    }
}

impl NoveltyDetector for KnnDistanceDetector {
    fn score(&self, x: &[f64]) -> f64 {
        self.kth_distance(x, None)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// Local outlier factor: the ratio of a point's local reachability
/// density to its neighbors' — ≈1 inside uniform regions, ≫1 for
/// outliers. Thresholded at a training-score quantile.
#[derive(Debug, Clone, Serialize)]
pub struct LofDetector {
    x: Vec<Vec<f64>>,
    k: usize,
    lrd: Vec<f64>,
    threshold: f64,
}

impl LofDetector {
    /// Fits LOF structures on `x` (borrowing, cloning internally).
    ///
    /// # Errors
    ///
    /// As for [`KnnDistanceDetector::fit`].
    pub fn fit(x: &[Vec<f64>], k: usize, quantile: f64) -> Result<Self, NoveltyError> {
        if k == 0 {
            return Err(NoveltyError::InvalidParameter {
                name: "k",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if !(quantile > 0.0 && quantile <= 1.0) {
            return Err(NoveltyError::InvalidParameter {
                name: "quantile",
                value: quantile,
                constraint: "must be in (0, 1]",
            });
        }
        check_points(x)?;
        let n = x.len();
        if n <= k {
            return Err(NoveltyError::InvalidInput(format!(
                "need more than k = {k} points, got {n}"
            )));
        }
        // Neighbor lists and k-distances of the training data.
        let neighbors: Vec<Vec<(f64, usize)>> = (0..n)
            .map(|i| {
                let mut d: Vec<(f64, usize)> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (edm_linalg::sq_dist(&x[i], &x[j]).sqrt(), j))
                    .collect();
                d.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
                d.truncate(k);
                d
            })
            .collect();
        let k_dist: Vec<f64> =
            neighbors.iter().map(|nb| nb.last().map(|&(d, _)| d).unwrap_or(0.0)).collect();
        // Local reachability density of each training point.
        let lrd: Vec<f64> = (0..n)
            .map(|i| {
                let reach: f64 = neighbors[i].iter().map(|&(d, j)| d.max(k_dist[j])).sum();
                neighbors[i].len() as f64 / reach.max(1e-12)
            })
            .collect();
        let mut detector = LofDetector { x: x.to_vec(), k, lrd, threshold: f64::INFINITY };
        let scores: Vec<f64> = (0..n)
            .map(|i| {
                // training-point LOF via the precomputed structures
                let nb = &neighbors[i];
                let mean_ratio: f64 =
                    nb.iter().map(|&(_, j)| detector.lrd[j]).sum::<f64>() / nb.len() as f64;
                mean_ratio / detector.lrd[i].max(1e-12)
            })
            .collect();
        detector.threshold = stats::quantile(&scores, quantile).expect("non-empty scores");
        Ok(detector)
    }

    fn neighbors_of(&self, p: &[f64]) -> Vec<(f64, usize)> {
        let mut d: Vec<(f64, usize)> =
            self.x.iter().enumerate().map(|(j, q)| (edm_linalg::sq_dist(p, q).sqrt(), j)).collect();
        d.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        d.truncate(self.k);
        d
    }
}

impl NoveltyDetector for LofDetector {
    fn score(&self, p: &[f64]) -> f64 {
        let nb = self.neighbors_of(p);
        // k-distance of the training neighbors approximated by their own
        // k-NN distance captured in lrd; reuse reachability formulation.
        let reach: f64 =
            nb.iter().map(|&(d, j)| d.max(1.0 / self.lrd[j].max(1e-12) / self.k as f64)).sum();
        let lrd_p = nb.len() as f64 / reach.max(1e-12);
        let mean_nb_lrd: f64 = nb.iter().map(|&(_, j)| self.lrd[j]).sum::<f64>() / nb.len() as f64;
        mean_nb_lrd / lrd_p.max(1e-12)
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

        let svm = OneClassSvmDetector::fit(&x, RbfKernel::new(1.0), 0.05).unwrap();
        assert!(svm.is_novel(&far));
        assert!(!svm.is_novel(&near));

        let maha = MahalanobisDetector::fit(&x, 0.99).unwrap();
        assert!(maha.is_novel(&far));
        assert!(!maha.is_novel(&near));

        let knn = KnnDistanceDetector::fit(&x, 5, 0.99).unwrap();
        assert!(knn.is_novel(&far));
        assert!(!knn.is_novel(&near));

        let lof = LofDetector::fit(&x, 5, 0.99).unwrap();
        assert!(lof.is_novel(&far));
        assert!(!lof.is_novel(&near));
    }

    #[test]
    fn scores_increase_with_distance() {
        let x = cloud(60, 2);
        let maha = MahalanobisDetector::fit(&x, 0.95).unwrap();
        let knn = KnnDistanceDetector::fit(&x, 3, 0.95).unwrap();
        let s = |d: &dyn NoveltyDetector, r: f64| d.score(&[0.5 + r, 0.5]);
        for det in [&maha as &dyn NoveltyDetector, &knn] {
            assert!(s(det, 3.0) > s(det, 1.0));
            assert!(s(det, 10.0) > s(det, 3.0));
        }
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
    fn lof_finds_local_outlier_near_dense_cluster() {
        // Dense cluster + sparse cluster; a point just outside the dense
        // cluster is a *local* outlier even though its absolute distance
        // is small.
        let mut x = Vec::new();
        for i in 0..40 {
            x.push(vec![(i % 8) as f64 * 0.02, (i / 8) as f64 * 0.02]); // dense
        }
        for i in 0..10 {
            x.push(vec![10.0 + (i % 5) as f64, (i / 5) as f64 * 2.0]); // sparse
        }
        let lof = LofDetector::fit(&x, 5, 1.0).unwrap();
        let local_outlier = lof.score(&[0.6, 0.6]); // near dense cluster, outside it
        let sparse_member = lof.score(&[11.0, 1.0]); // inside sparse cluster spacing
        assert!(local_outlier > sparse_member);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let x = cloud(20, 4);
        assert!(MahalanobisDetector::fit(&x, 0.0).is_err());
        assert!(KnnDistanceDetector::fit(&x, 0, 0.9).is_err());
        assert!(KnnDistanceDetector::fit(&x, 25, 0.9).is_err());
        assert!(LofDetector::fit(&x, 3, 1.5).is_err());
    }
}
