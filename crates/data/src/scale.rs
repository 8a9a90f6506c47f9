//! Feature scaling.
//!
//! Distance- and kernel-based learners (kNN, SVM/RBF, k-means) are
//! sensitive to feature scale; the scalers here follow the usual
//! fit/transform/inverse pattern and are serializable so a deployed model
//! ships with its preprocessing.

use edm_linalg::{stats, Matrix};
use serde::Serialize;

use crate::Dataset;

/// Z-score scaler: each feature is mapped to zero mean and unit variance.
///
/// Constant features (std = 0) pass through centered but unscaled.
///
/// # Example
///
/// ```
/// use edm_data::{Dataset, StandardScaler, Target};
///
/// let ds = Dataset::unlabeled(vec![vec![0.0], vec![10.0]]);
/// let scaler = StandardScaler::fit(&ds);
/// let t = scaler.transform(&ds);
/// assert!((t.sample(0)[0] + t.sample(1)[0]).abs() < 1e-12); // symmetric around 0
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-feature mean and standard deviation from `ds`.
    pub fn fit(ds: &Dataset) -> Self {
        StandardScaler { means: stats::column_means(ds.x()), stds: stats::column_stds(ds.x()) }
    }

    /// Per-feature means learned at fit time.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-feature standard deviations learned at fit time.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Applies the scaling to a dataset (target and names untouched).
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from the fitted data.
    pub fn transform(&self, ds: &Dataset) -> Dataset {
        let rows: Vec<Vec<f64>> = ds.x().iter_rows().map(|r| self.transform_sample(r)).collect();
        let mut out =
            Dataset::new(Matrix::from_rows(&rows), ds.target().clone()).expect("shape preserved");
        out = out.with_feature_names(ds.feature_names().to_vec()).expect("name count preserved");
        out
    }

    /// Scales a single sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len()` differs from the fitted feature count.
    pub fn transform_sample(&self, sample: &[f64]) -> Vec<f64> {
        assert_eq!(sample.len(), self.means.len(), "feature count mismatch");
        sample
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (&m, &s))| if s > 0.0 { (v - m) / s } else { v - m })
            .collect()
    }

    /// Inverts the scaling on a single sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len()` differs from the fitted feature count.
    pub fn inverse_sample(&self, sample: &[f64]) -> Vec<f64> {
        assert_eq!(sample.len(), self.means.len(), "feature count mismatch");
        sample
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (&m, &s))| if s > 0.0 { v * s + m } else { v + m })
            .collect()
    }
}

/// Min–max scaler mapping each feature into `[0, 1]`.
///
/// Constant features map to `0.0`. Useful for the histogram features
/// behind the histogram-intersection kernel, which expects non-negative
/// inputs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Learns per-feature min and max from `ds`.
    pub fn fit(ds: &Dataset) -> Self {
        let d = ds.n_features();
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for row in ds.x().iter_rows() {
            for ((mn, mx), &v) in mins.iter_mut().zip(&mut maxs).zip(row) {
                *mn = mn.min(v);
                *mx = mx.max(v);
            }
        }
        if ds.n_samples() == 0 {
            mins.fill(0.0);
            maxs.fill(0.0);
        }
        MinMaxScaler { mins, maxs }
    }

    /// Per-feature minima learned at fit time.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-feature maxima learned at fit time.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// Applies the scaling to a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from the fitted data.
    pub fn transform(&self, ds: &Dataset) -> Dataset {
        let rows: Vec<Vec<f64>> = ds.x().iter_rows().map(|r| self.transform_sample(r)).collect();
        Dataset::new(Matrix::from_rows(&rows), ds.target().clone())
            .expect("shape preserved")
            .with_feature_names(ds.feature_names().to_vec())
            .expect("name count preserved")
    }

    /// Scales a single sample into `[0, 1]` per feature (values outside
    /// the fitted range extrapolate outside `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `sample.len()` differs from the fitted feature count.
    pub fn transform_sample(&self, sample: &[f64]) -> Vec<f64> {
        assert_eq!(sample.len(), self.mins.len(), "feature count mismatch");
        sample
            .iter()
            .zip(self.mins.iter().zip(&self.maxs))
            .map(|(&v, (&mn, &mx))| {
                let w = mx - mn;
                if w > 0.0 {
                    (v - mn) / w
                } else {
                    0.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;

    fn ds() -> Dataset {
        Dataset::from_rows(
            vec![vec![1.0, 5.0], vec![3.0, 5.0], vec![5.0, 5.0]],
            Target::Labels(vec![0, 1, 0]),
        )
    }

    #[test]
    fn standard_scaler_zero_mean_unit_std() {
        let d = ds();
        let sc = StandardScaler::fit(&d);
        let t = sc.transform(&d);
        let col0: Vec<f64> = (0..3).map(|i| t.sample(i)[0]).collect();
        assert!(edm_linalg::mean(&col0).abs() < 1e-12);
        assert!((edm_linalg::variance(&col0) - 1.0).abs() < 1e-12);
        // constant column centered to zero, not scaled
        for i in 0..3 {
            assert_eq!(t.sample(i)[1], 0.0);
        }
    }

    #[test]
    fn standard_scaler_round_trip() {
        let d = ds();
        let sc = StandardScaler::fit(&d);
        let sample = [2.5, 5.0];
        let back = sc.inverse_sample(&sc.transform_sample(&sample));
        assert!((back[0] - 2.5).abs() < 1e-12);
        assert!((back[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let d = ds();
        let sc = MinMaxScaler::fit(&d);
        let t = sc.transform(&d);
        assert_eq!(t.sample(0)[0], 0.0);
        assert_eq!(t.sample(1)[0], 0.5);
        assert_eq!(t.sample(2)[0], 1.0);
        assert_eq!(t.sample(0)[1], 0.0); // constant column
    }

    #[test]
    fn scalers_preserve_target_and_names() {
        let d = ds().with_feature_names(vec!["vdd", "freq"]).unwrap();
        let t = StandardScaler::fit(&d).transform(&d);
        assert_eq!(t.labels(), d.labels());
        assert_eq!(t.feature_names(), d.feature_names());
    }
}
