//! Kernel PCA: principal component analysis in the kernel's implicit
//! feature space — the natural bridge between the paper's §2.2 (kernel
//! trick) and §2.4 (PCA for test-data analysis). Nonlinear structure
//! (rings, manifolds) becomes linear in the embedding.

use edm_kernels::{center_gram, gram_matrix, gram_row, Kernel};
use edm_linalg::Matrix;
use serde::Serialize;

use crate::TransformError;

/// Kernel PCA fitted by eigen-decomposition of the centered Gram matrix.
///
/// # Example
///
/// ```
/// use edm_kernels::RbfKernel;
/// use edm_transform::KernelPca;
///
/// let x: Vec<Vec<f64>> = (0..30)
///     .map(|i| {
///         let a = i as f64 * std::f64::consts::TAU / 30.0;
///         vec![a.cos(), a.sin()]
///     })
///     .collect();
/// let kpca = KernelPca::fit(&x, RbfKernel::new(1.0), 2)?;
/// assert_eq!(kpca.transform(&[1.0, 0.0]).len(), 2);
/// # Ok::<(), edm_transform::TransformError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct KernelPca<K> {
    kernel: K,
    train: Vec<Vec<f64>>,
    /// `n_train × k` normalized eigenvector block (columns = components).
    alphas: Matrix,
    /// Eigenvalues of the centered Gram, descending.
    lambdas: Vec<f64>,
    /// Per-training-sample kernel row means (for centering new samples).
    row_means: Vec<f64>,
    grand_mean: f64,
}

impl<K: Kernel<[f64]> + Clone> KernelPca<K> {
    /// Fits `n_components` kernel principal components.
    ///
    /// # Errors
    ///
    /// [`TransformError::InvalidInput`] for fewer than two samples or
    /// ragged rows; [`TransformError::InvalidParameter`] for a bad
    /// component count; [`TransformError::Numeric`] if the eigensolve
    /// fails.
    pub fn fit(x: &[Vec<f64>], kernel: K, n_components: usize) -> Result<Self, TransformError> {
        if x.len() < 2 {
            return Err(TransformError::InvalidInput("need at least two samples".into()));
        }
        let d = x[0].len();
        if x.iter().any(|r| r.len() != d) {
            return Err(TransformError::InvalidInput("ragged sample rows".into()));
        }
        if n_components == 0 || n_components >= x.len() {
            return Err(TransformError::InvalidParameter {
                name: "n_components",
                value: n_components as f64,
                constraint: "must be in 1..n_samples",
            });
        }
        let gram = gram_matrix(&kernel, x);
        let n = gram.rows();
        let row_means: Vec<f64> =
            (0..n).map(|i| gram.row(i).iter().sum::<f64>() / n as f64).collect();
        let grand_mean = row_means.iter().sum::<f64>() / n as f64;
        let centered = center_gram(&gram);
        let eig = centered.symmetric_eigen().map_err(|e| TransformError::Numeric(e.to_string()))?;
        let mut alphas = Matrix::zeros(n, n_components);
        let mut lambdas = Vec::with_capacity(n_components);
        for c in 0..n_components {
            let lam = eig.eigenvalues()[c].max(0.0);
            lambdas.push(lam);
            // Normalize so projections have unit-scaled variance:
            // alpha_c scaled by 1/sqrt(lambda).
            let scale = if lam > 1e-12 { 1.0 / lam.sqrt() } else { 0.0 };
            for r in 0..n {
                alphas[(r, c)] = eig.eigenvectors()[(r, c)] * scale;
            }
        }
        Ok(KernelPca { kernel, train: x.to_vec(), alphas, lambdas, row_means, grand_mean })
    }

    /// Number of components retained.
    pub fn n_components(&self) -> usize {
        self.alphas.cols()
    }

    /// Eigenvalues of the retained components (descending).
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Projects a new sample into the kernel principal subspace.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let k_row = gram_row(&self.kernel, x, &self.train);
        let row_mean: f64 = k_row.iter().sum::<f64>() / k_row.len() as f64;
        // Center against the training distribution.
        let centered: Vec<f64> = k_row
            .iter()
            .zip(&self.row_means)
            .map(|(&kxi, &mi)| kxi - row_mean - mi + self.grand_mean)
            .collect();
        self.alphas.vec_mat(&centered)
    }

    /// Projects a batch.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_kernels::{LinearKernel, RbfKernel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn linear_kernel_kpca_matches_pca_subspace() {
        // With a linear kernel, KPCA spans the same subspace as PCA:
        // pairwise distances in the embedding agree up to sign/rotation.
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                let t = rng.gen::<f64>() * 4.0;
                vec![t, 2.0 * t + 0.1 * rng.gen::<f64>()]
            })
            .collect();
        let kpca = KernelPca::fit(&x, LinearKernel::new(), 1).unwrap();
        let pca = crate::Pca::fit(&x, 1).unwrap();
        let a: Vec<f64> = x.iter().map(|p| kpca.transform(p)[0]).collect();
        let b: Vec<f64> = x.iter().map(|p| pca.transform(p)[0]).collect();
        let corr = edm_linalg::stats::pearson(&a, &b).abs();
        assert!(corr > 0.999, "corr {corr}");
    }

    #[test]
    fn rbf_kpca_separates_rings_linearly() {
        // Two concentric rings: inseparable for linear PCA, separable in
        // the first KPCA components with an RBF kernel.
        let mut x = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = i as f64 * std::f64::consts::TAU / 40.0;
            x.push(vec![0.5 * a.cos(), 0.5 * a.sin()]);
            labels.push(0);
            x.push(vec![2.5 * a.cos(), 2.5 * a.sin()]);
            labels.push(1);
        }
        let kpca = KernelPca::fit(&x, RbfKernel::new(1.0), 2).unwrap();
        let z: Vec<Vec<f64>> = kpca.transform_batch(&x);
        // The first component must separate the rings by a threshold.
        let inner: Vec<f64> =
            z.iter().zip(&labels).filter(|&(_, &l)| l == 0).map(|(v, _)| v[0]).collect();
        let outer: Vec<f64> =
            z.iter().zip(&labels).filter(|&(_, &l)| l == 1).map(|(v, _)| v[0]).collect();
        let inner_max = inner.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let inner_min = inner.iter().cloned().fold(f64::INFINITY, f64::min);
        let outer_max = outer.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let outer_min = outer.iter().cloned().fold(f64::INFINITY, f64::min);
        let separated = inner_min > outer_max || outer_min > inner_max;
        assert!(
            separated,
            "inner [{inner_min:.3},{inner_max:.3}] outer [{outer_min:.3},{outer_max:.3}]"
        );
    }

    #[test]
    fn training_projection_is_consistent_with_transform() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<Vec<f64>> = (0..20).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let kpca = KernelPca::fit(&x, RbfKernel::new(0.8), 3).unwrap();
        // transform of training points should have near-zero mean per
        // component (centering worked).
        let z = kpca.transform_batch(&x);
        for c in 0..3 {
            let col: Vec<f64> = z.iter().map(|r| r[c]).collect();
            assert!(edm_linalg::mean(&col).abs() < 1e-9, "component {c}");
        }
    }

    #[test]
    fn invalid_component_counts_rejected() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert!(KernelPca::fit(&x, RbfKernel::new(1.0), 0).is_err());
        assert!(KernelPca::fit(&x, RbfKernel::new(1.0), 3).is_err());
    }
}
