//! k-nearest-neighbor classification and regression — the paper's first
//! "basic idea" (§2.1, Fig. 2): infer a point's label from the majority
//! of the points around it.

use serde::{Deserialize, Serialize};

use crate::{error::check_xy, LearnError};

fn k_nearest(train: &[Vec<f64>], x: &[f64], k: usize) -> Vec<(f64, usize)> {
    let mut d: Vec<(f64, usize)> =
        train.iter().enumerate().map(|(i, t)| (edm_linalg::sq_dist(t, x), i)).collect();
    d.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
    d.truncate(k);
    d
}

/// A k-NN classifier (majority vote; distance-weighted vote optional).
///
/// # Example
///
/// ```
/// use edm_learn::knn::KnnClassifier;
///
/// let x = vec![vec![0.0], vec![0.1], vec![1.0], vec![1.1]];
/// let y = vec![0, 0, 1, 1];
/// let m = KnnClassifier::fit(3, &x, &y)?;
/// assert_eq!(m.predict(&[0.05]), 0);
/// assert_eq!(m.predict(&[1.05]), 1);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnClassifier {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<i32>,
    weighted: bool,
}

impl KnnClassifier {
    /// Stores the training data ("training" is memorization for k-NN).
    ///
    /// Borrows the samples like every other `fit` in the workspace and
    /// clones them internally — k-NN memorizes its training set.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on empty/ragged/mismatched input;
    /// [`LearnError::InvalidParameter`] if `k == 0`.
    pub fn fit(k: usize, x: &[Vec<f64>], y: &[i32]) -> Result<Self, LearnError> {
        if k == 0 {
            return Err(LearnError::InvalidParameter {
                name: "k",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        check_xy(x, y.len())?;
        Ok(KnnClassifier { k, x: x.to_vec(), y: y.to_vec(), weighted: false })
    }

    /// Reassembles a classifier from persisted parts — the inverse of
    /// the accessors below, used by `edm::persist`.
    pub fn from_parts(k: usize, x: Vec<Vec<f64>>, y: Vec<i32>, weighted: bool) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(x.len(), y.len(), "one label per sample");
        KnnClassifier { k, x, y, weighted }
    }

    /// The neighbor count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The memorized training samples.
    pub fn training_x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// The memorized training labels.
    pub fn training_y(&self) -> &[i32] {
        &self.y
    }

    /// Whether inverse-distance weighting is enabled.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Switches to inverse-distance-weighted voting — one way of
    /// "defining majority", the trick the paper notes nearest-neighbor
    /// methods hinge on.
    pub fn weighted(mut self) -> Self {
        self.weighted = true;
        self
    }

    /// Predicts the label of `x` (ties break toward the smaller label).
    pub fn predict(&self, x: &[f64]) -> i32 {
        let nn = k_nearest(&self.x, x, self.k);
        let mut votes: Vec<(i32, f64)> = Vec::new();
        for &(dist, i) in &nn {
            let w = if self.weighted { 1.0 / (dist.sqrt() + 1e-12) } else { 1.0 };
            match votes.iter_mut().find(|(l, _)| *l == self.y[i]) {
                Some((_, v)) => *v += w,
                None => votes.push((self.y[i], w)),
            }
        }
        votes.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite votes").then(a.0.cmp(&b.0)));
        votes[0].0
    }

    /// Predicts a batch (parallel; bitwise identical to mapping
    /// [`KnnClassifier::predict`] over `xs`).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<i32> {
        edm_par::map_indexed(xs.len(), |i| self.predict(&xs[i]))
    }

    /// Dimensionality of the memorized training samples.
    pub fn n_features(&self) -> usize {
        self.x[0].len()
    }
}

/// A k-NN regressor (mean of the k nearest targets).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnRegressor {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl KnnRegressor {
    /// Stores the training data (borrowing, cloning internally — see
    /// [`KnnClassifier::fit`]).
    ///
    /// # Errors
    ///
    /// As for [`KnnClassifier::fit`].
    pub fn fit(k: usize, x: &[Vec<f64>], y: &[f64]) -> Result<Self, LearnError> {
        if k == 0 {
            return Err(LearnError::InvalidParameter {
                name: "k",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        check_xy(x, y.len())?;
        Ok(KnnRegressor { k, x: x.to_vec(), y: y.to_vec() })
    }

    /// Reassembles a regressor from persisted parts — the inverse of
    /// the accessors below, used by `edm::persist`.
    pub fn from_parts(k: usize, x: Vec<Vec<f64>>, y: Vec<f64>) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(x.len(), y.len(), "one target per sample");
        KnnRegressor { k, x, y }
    }

    /// The neighbor count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The memorized training samples.
    pub fn training_x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// The memorized training targets.
    pub fn training_y(&self) -> &[f64] {
        &self.y
    }

    /// Predicts the mean target of the k nearest neighbors.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let nn = k_nearest(&self.x, x, self.k);
        let s: f64 = nn.iter().map(|&(_, i)| self.y[i]).sum();
        s / nn.len() as f64
    }

    /// Predicts a batch (parallel; bitwise identical to mapping
    /// [`KnnRegressor::predict`] over `xs`).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        edm_par::map_indexed(xs.len(), |i| self.predict(&xs[i]))
    }

    /// Dimensionality of the memorized training samples.
    pub fn n_features(&self) -> usize {
        self.x[0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_nn_memorizes() {
        let x = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        let m = KnnClassifier::fit(1, &x, &[7, 9]).unwrap();
        assert_eq!(m.predict(&x[0]), 7);
        assert_eq!(m.predict(&x[1]), 9);
    }

    #[test]
    fn majority_beats_single_near_point() {
        // Two far class-1 points, one near class-0 point; k=3 majority is 1.
        let x = vec![vec![0.1], vec![2.0], vec![2.1]];
        let y = vec![0, 1, 1];
        let m = KnnClassifier::fit(3, &x, &y).unwrap();
        assert_eq!(m.predict(&[0.0]), 1);
        // but distance weighting flips it back
        let x = vec![vec![0.1], vec![2.0], vec![2.1]];
        let m = KnnClassifier::fit(3, &x, &[0, 1, 1]).unwrap().weighted();
        assert_eq!(m.predict(&[0.0]), 0);
    }

    #[test]
    fn regressor_averages() {
        let x = vec![vec![0.0], vec![1.0], vec![10.0]];
        let y = vec![2.0, 4.0, 100.0];
        let m = KnnRegressor::fit(2, &x, &y).unwrap();
        assert!((m.predict(&[0.5]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_data_uses_all() {
        let m = KnnRegressor::fit(10, &[vec![0.0], vec![1.0]], &[1.0, 3.0]).unwrap();
        assert!((m.predict(&[0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_k_rejected() {
        assert!(matches!(
            KnnClassifier::fit(0, &[vec![0.0]], &[0]),
            Err(LearnError::InvalidParameter { name: "k", .. })
        ));
    }
}
