use std::fmt;

use edm_linalg::Matrix;
use serde::Serialize;

/// The supervision attached to a dataset (paper Fig. 1).
///
/// * [`Target::None`] — unsupervised learning.
/// * [`Target::Labels`] — classification (categorical `y`).
/// * [`Target::Values`] — regression (continuous `y`).
/// * [`Target::Matrix`] — multivariate target `Y` (e.g. partial least
///   squares or canonical correlation setups, paper §2).
/// * [`Target::Partial`] — semi-supervised: `Some(label)` for the few
///   labeled samples, `None` elsewhere.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Target {
    /// No supervision.
    None,
    /// One categorical label per sample.
    Labels(Vec<i32>),
    /// One continuous value per sample.
    Values(Vec<f64>),
    /// A full multivariate target matrix `Y` (one row per sample).
    Matrix(Matrix),
    /// Semi-supervised labels: mostly `None`, a few `Some`.
    Partial(Vec<Option<i32>>),
}

impl Target {
    /// Number of samples the target covers; `None` if the target carries
    /// no per-sample data ([`Target::None`]).
    pub fn len(&self) -> Option<usize> {
        match self {
            Target::None => None,
            Target::Labels(l) => Some(l.len()),
            Target::Values(v) => Some(v.len()),
            Target::Matrix(m) => Some(m.rows()),
            Target::Partial(p) => Some(p.len()),
        }
    }

    /// Whether the target carries zero samples.
    pub fn is_empty(&self) -> bool {
        self.len().is_none_or(|n| n == 0)
    }

    /// Selects the target rows at `idx`, preserving the variant.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select(&self, idx: &[usize]) -> Target {
        match self {
            Target::None => Target::None,
            Target::Labels(l) => Target::Labels(idx.iter().map(|&i| l[i]).collect()),
            Target::Values(v) => Target::Values(idx.iter().map(|&i| v[i]).collect()),
            Target::Matrix(m) => {
                let cols: Vec<usize> = (0..m.cols()).collect();
                Target::Matrix(m.select(idx, &cols))
            }
            Target::Partial(p) => Target::Partial(idx.iter().map(|&i| p[i]).collect()),
        }
    }
}

/// Errors for dataset construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DatasetError {
    /// The target length does not match the number of samples.
    TargetLengthMismatch {
        /// Number of samples in `X`.
        samples: usize,
        /// Number of entries in the target.
        target: usize,
    },
    /// Feature-name count does not match the number of columns.
    FeatureNameMismatch {
        /// Number of columns in `X`.
        features: usize,
        /// Number of names supplied.
        names: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DatasetError::TargetLengthMismatch { samples, target } => {
                write!(f, "target has {target} entries but the dataset has {samples} samples")
            }
            DatasetError::FeatureNameMismatch { features, names } => {
                write!(f, "{names} feature names supplied for {features} features")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A dataset: sample matrix `X` (one row per sample) plus a [`Target`]
/// and optional feature names.
///
/// This is the lingua franca between the substrates (which emit datasets)
/// and the learners (which consume them). Feature names matter in this
/// workspace more than in a generic ML library: the paper's
/// knowledge-discovery flows (§5) report *rules over named features* back
/// to an engineer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset {
    x: Matrix,
    target: Target,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Creates a dataset; generates feature names `f0, f1, ...`.
    ///
    /// # Errors
    ///
    /// [`DatasetError::TargetLengthMismatch`] if the target length does
    /// not equal the number of rows of `x`.
    pub fn new(x: Matrix, target: Target) -> Result<Self, DatasetError> {
        if let Some(t) = target.len() {
            if t != x.rows() {
                return Err(DatasetError::TargetLengthMismatch { samples: x.rows(), target: t });
            }
        }
        let feature_names = (0..x.cols()).map(|i| format!("f{i}")).collect();
        Ok(Dataset { x, target, feature_names })
    }

    /// Convenience constructor from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged or the target length mismatches (this is
    /// the "I know my data is consistent" constructor; use
    /// [`Dataset::new`] for fallible construction).
    pub fn from_rows(rows: Vec<Vec<f64>>, target: Target) -> Self {
        Dataset::new(Matrix::from_rows(&rows), target).expect("consistent rows/target")
    }

    /// Unsupervised dataset from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged.
    pub fn unlabeled(rows: Vec<Vec<f64>>) -> Self {
        Dataset::from_rows(rows, Target::None)
    }

    /// Replaces the auto-generated feature names.
    ///
    /// # Errors
    ///
    /// [`DatasetError::FeatureNameMismatch`] if the count differs from
    /// the number of features.
    pub fn with_feature_names<S: Into<String>>(
        mut self,
        names: Vec<S>,
    ) -> Result<Self, DatasetError> {
        if names.len() != self.x.cols() {
            return Err(DatasetError::FeatureNameMismatch {
                features: self.x.cols(),
                names: names.len(),
            });
        }
        self.feature_names = names.into_iter().map(Into::into).collect();
        Ok(self)
    }

    /// The sample matrix `X`.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The target.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Feature names, one per column of `X`.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of samples (rows of `X`).
    pub fn n_samples(&self) -> usize {
        self.x.rows()
    }

    /// Number of features (columns of `X`).
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Sample `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_samples()`.
    pub fn sample(&self, i: usize) -> &[f64] {
        self.x.row(i)
    }

    /// Class labels, if the target is [`Target::Labels`].
    pub fn labels(&self) -> Option<&[i32]> {
        match &self.target {
            Target::Labels(l) => Some(l),
            _ => None,
        }
    }

    /// Continuous target values, if the target is [`Target::Values`].
    pub fn values(&self) -> Option<&[f64]> {
        match &self.target {
            Target::Values(v) => Some(v),
            _ => None,
        }
    }

    /// The distinct labels in ascending order (empty for non-label
    /// targets).
    pub fn classes(&self) -> Vec<i32> {
        let mut c: Vec<i32> = self.labels().map(|l| l.to_vec()).unwrap_or_default();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Selects a subset of samples by index, preserving the target.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select(&self, idx: &[usize]) -> Dataset {
        let cols: Vec<usize> = (0..self.n_features()).collect();
        Dataset {
            x: self.x.select(idx, &cols),
            target: self.target.select(idx),
            feature_names: self.feature_names.clone(),
        }
    }

    /// Rows as owned vectors (the representation kernel-free learners
    /// consume).
    pub fn rows(&self) -> Vec<Vec<f64>> {
        self.x.iter_rows().map(|r| r.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(
            vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0], vec![6.0, 7.0]],
            Target::Labels(vec![0, 0, 0, 1]),
        )
    }

    #[test]
    fn basic_accessors() {
        let ds = small();
        assert_eq!(ds.n_samples(), 4);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.sample(1), &[2.0, 3.0]);
        assert_eq!(ds.classes(), vec![0, 1]);
    }

    #[test]
    fn mismatched_target_rejected() {
        let r = Dataset::new(Matrix::zeros(3, 2), Target::Labels(vec![0, 1]));
        assert!(matches!(r, Err(DatasetError::TargetLengthMismatch { samples: 3, target: 2 })));
    }

    #[test]
    fn select_preserves_pairing() {
        let ds = small();
        let sub = ds.select(&[3, 0]);
        assert_eq!(sub.labels().unwrap(), &[1, 0]);
        assert_eq!(sub.sample(0), &[6.0, 7.0]);
    }

    #[test]
    fn feature_name_count_checked() {
        let ds = small();
        assert!(ds.with_feature_names(vec!["only-one"]).is_err());
    }

    #[test]
    fn matrix_target_select() {
        let y = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]]);
        let t = Target::Matrix(y);
        let s = t.select(&[2, 0]);
        match s {
            Target::Matrix(m) => {
                assert_eq!(m.row(0), &[0.5, 0.5]);
                assert_eq!(m.row(1), &[1.0, 0.0]);
            }
            _ => panic!("expected matrix target"),
        }
    }

    #[test]
    fn partial_target_roundtrip() {
        let t = Target::Partial(vec![Some(1), None, Some(0)]);
        assert_eq!(t.len(), Some(3));
        assert_eq!(t.select(&[1, 2]), Target::Partial(vec![None, Some(0)]));
    }
}
