use edm_linalg::{stats, Matrix};
use serde::Serialize;

use crate::TransformError;

/// Principal component analysis fitted by eigen-decomposition of the
/// sample covariance.
///
/// # Example
///
/// ```
/// use edm_transform::Pca;
///
/// // Points along the diagonal: first PC explains (almost) everything.
/// let x: Vec<Vec<f64>> = (0..20)
///     .map(|i| vec![i as f64, i as f64 + 0.01 * (i % 3) as f64])
///     .collect();
/// let pca = Pca::fit(&x, 2)?;
/// assert!(pca.explained_variance_ratio()[0] > 0.99);
/// let z = pca.transform(&x[5]);
/// assert_eq!(z.len(), 2);
/// # Ok::<(), edm_transform::TransformError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Pca {
    mean: Vec<f64>,
    /// `n_components x d`, rows are principal directions.
    components: Matrix,
    explained_variance: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits `n_components` principal directions.
    ///
    /// # Errors
    ///
    /// [`TransformError::InvalidInput`] if there are fewer than two
    /// samples, rows are ragged, or `n_components` exceeds the feature
    /// count; [`TransformError::Numeric`] if the eigensolve fails.
    pub fn fit(x: &[Vec<f64>], n_components: usize) -> Result<Self, TransformError> {
        if x.len() < 2 {
            return Err(TransformError::InvalidInput("need at least two samples".into()));
        }
        let d = x[0].len();
        if x.iter().any(|r| r.len() != d) {
            return Err(TransformError::InvalidInput("ragged sample rows".into()));
        }
        if n_components == 0 || n_components > d {
            return Err(TransformError::InvalidParameter {
                name: "n_components",
                value: n_components as f64,
                constraint: "must be in 1..=n_features",
            });
        }
        let xm = Matrix::from_rows(x);
        let mean = stats::column_means(&xm);
        let cov = stats::covariance(&xm);
        let eig = cov.symmetric_eigen().map_err(TransformError::from)?;
        let total_variance: f64 = eig.eigenvalues().iter().map(|&v| v.max(0.0)).sum();
        let mut components = Matrix::zeros(n_components, d);
        let mut explained = Vec::with_capacity(n_components);
        for c in 0..n_components {
            let v = eig.eigenvector(c);
            components.row_mut(c).copy_from_slice(&v);
            explained.push(eig.eigenvalues()[c].max(0.0));
        }
        Ok(Pca { mean, components, explained_variance: explained, total_variance })
    }

    /// Number of components retained.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Variance captured by each component, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of total variance captured per component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let t = self.total_variance.max(1e-300);
        self.explained_variance.iter().map(|&v| v / t).collect()
    }

    /// The principal directions (rows).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Projects a sample onto the principal subspace.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "feature count mismatch");
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(&v, &m)| v - m).collect();
        self.components.mat_vec(&centered)
    }

    /// Projects a batch.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }

    /// Reconstructs an input-space point from component scores
    /// (the lossy inverse).
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.n_components()`.
    pub fn inverse_transform(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.n_components(), "component count mismatch");
        let mut x = self.mean.clone();
        for (c, &zc) in z.iter().enumerate() {
            for (xi, &pc) in x.iter_mut().zip(self.components.row(c)) {
                *xi += zc * pc;
            }
        }
        x
    }
}

/// A PCA whitener: projects onto all principal directions and scales
/// each to unit variance — the preprocessing FastICA requires.
#[derive(Debug, Clone, Serialize)]
pub struct Whitener {
    pca: Pca,
    inv_std: Vec<f64>,
}

impl Whitener {
    /// Fits a whitening transform on all components with variance above
    /// `var_floor` (components below the floor are dropped).
    ///
    /// # Errors
    ///
    /// As for [`Pca::fit`].
    pub fn fit(x: &[Vec<f64>], var_floor: f64) -> Result<Self, TransformError> {
        let d = x.first().map(Vec::len).unwrap_or(0);
        let pca = Pca::fit(x, d.max(1))?;
        let keep: Vec<usize> = pca
            .explained_variance()
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > var_floor)
            .map(|(i, _)| i)
            .collect();
        if keep.is_empty() {
            return Err(TransformError::InvalidInput(
                "all components below the variance floor".into(),
            ));
        }
        let mut components = Matrix::zeros(keep.len(), d);
        let mut explained = Vec::new();
        for (r, &c) in keep.iter().enumerate() {
            components.row_mut(r).copy_from_slice(pca.components().row(c));
            explained.push(pca.explained_variance()[c]);
        }
        let inv_std: Vec<f64> = explained.iter().map(|&v| 1.0 / v.sqrt()).collect();
        let total = pca.total_variance;
        Ok(Whitener {
            pca: Pca {
                mean: pca.mean.clone(),
                components,
                explained_variance: explained,
                total_variance: total,
            },
            inv_std,
        })
    }

    /// Dimension of the whitened space.
    pub fn n_components(&self) -> usize {
        self.pca.n_components()
    }

    /// Whitens one sample: unit-variance, uncorrelated coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        self.pca.transform(x).into_iter().zip(&self.inv_std).map(|(z, &s)| z * s).collect()
    }

    /// Whitens a batch.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_linalg::MultivariateNormal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn correlated_cloud(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let cov = Matrix::from_rows(&[vec![4.0, 1.9], vec![1.9, 1.0]]);
        let mvn = MultivariateNormal::new(vec![3.0, -1.0], &cov).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| mvn.sample(&mut rng)).collect()
    }

    #[test]
    fn first_pc_captures_dominant_direction() {
        let x = correlated_cloud(3000, 1);
        let pca = Pca::fit(&x, 2).unwrap();
        let r = pca.explained_variance_ratio();
        assert!(r[0] > 0.9, "first PC ratio {}", r[0]);
        assert!((r[0] + r[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transformed_coordinates_are_uncorrelated() {
        let x = correlated_cloud(3000, 2);
        let pca = Pca::fit(&x, 2).unwrap();
        let z = pca.transform_batch(&x);
        let zm = Matrix::from_rows(&z);
        let corr = stats::correlation_matrix(&zm);
        assert!(corr[(0, 1)].abs() < 0.05, "residual correlation {}", corr[(0, 1)]);
    }

    #[test]
    fn round_trip_through_full_rank_pca() {
        let x = correlated_cloud(100, 3);
        let pca = Pca::fit(&x, 2).unwrap();
        let z = pca.transform(&x[7]);
        let back = pca.inverse_transform(&z);
        for (a, b) in back.iter().zip(&x[7]) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn truncated_reconstruction_loses_minor_direction_only() {
        let x = correlated_cloud(2000, 4);
        let pca = Pca::fit(&x, 1).unwrap();
        // Reconstruction error should be tiny relative to total spread.
        let mut err = 0.0;
        let mut spread = 0.0;
        let xm = Matrix::from_rows(&x);
        let means = stats::column_means(&xm);
        for p in &x {
            let back = pca.inverse_transform(&pca.transform(p));
            err += edm_linalg::sq_dist(&back, p);
            spread += edm_linalg::sq_dist(p, &means);
        }
        assert!(err / spread < 0.1, "lost {} of variance", err / spread);
    }

    #[test]
    fn whitener_produces_unit_variance() {
        let x = correlated_cloud(3000, 5);
        let w = Whitener::fit(&x, 1e-12).unwrap();
        let z = w.transform_batch(&x);
        let zm = Matrix::from_rows(&z);
        for s in stats::column_stds(&zm) {
            assert!((s - 1.0).abs() < 0.05, "std {s}");
        }
    }

    #[test]
    fn invalid_component_count_rejected() {
        let x = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(Pca::fit(&x, 0).is_err());
        assert!(Pca::fit(&x, 3).is_err());
    }
}
