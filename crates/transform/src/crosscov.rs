//! Two-block methods: partial least squares and canonical correlation
//! analysis.
//!
//! The paper's §2 notes that the target can itself be a matrix `Y`:
//! "the partial least square regression is designed for regression
//! between two matrices. Canonical correlation analysis is a
//! multivariate correlation analysis applied to a dataset of X and Y."
//! These are the tools for exactly that shape of EDA data — e.g. wafer
//! parametric tests (`X`) against final functional measurements (`Y`).

use edm_linalg::{stats, Matrix};
use serde::Serialize;

use crate::TransformError;

fn center(x: &[Vec<f64>]) -> Result<(Matrix, Vec<f64>), TransformError> {
    if x.len() < 2 {
        return Err(TransformError::InvalidInput("need at least two samples".into()));
    }
    let d = x[0].len();
    if d == 0 || x.iter().any(|r| r.len() != d) {
        return Err(TransformError::InvalidInput("ragged or empty sample rows".into()));
    }
    let m = Matrix::from_rows(x);
    let means = stats::column_means(&m);
    let rows: Vec<Vec<f64>> =
        x.iter().map(|r| r.iter().zip(&means).map(|(&v, &mu)| v - mu).collect()).collect();
    Ok((Matrix::from_rows(&rows), means))
}

/// Partial-least-squares regression (NIPALS, PLS1/PLS2) between two
/// matrices `X` (`n × p`) and `Y` (`n × q`).
///
/// Extracts `n_components` score directions that maximize the covariance
/// between the blocks, then predicts `Y` from `X` through them. Handles
/// collinear `X` gracefully — the situation ordinary least squares
/// cannot, and the reason PLS is standard for parametric-test data where
/// tests are 0.9+ correlated.
///
/// # Example
///
/// ```
/// use edm_transform::Pls;
///
/// // y = x0 + x1, with x1 = x0 duplicated (perfectly collinear).
/// let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, i as f64]).collect();
/// let y: Vec<Vec<f64>> = (0..20).map(|i| vec![2.0 * i as f64]).collect();
/// let pls = Pls::fit(&x, &y, 1)?;
/// let p = pls.predict(&[10.0, 10.0]);
/// assert!((p[0] - 20.0).abs() < 1e-6);
/// # Ok::<(), edm_transform::TransformError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Pls {
    x_mean: Vec<f64>,
    y_mean: Vec<f64>,
    /// `p × q` regression coefficients in centered space.
    coef: Matrix,
    n_components: usize,
}

impl Pls {
    /// Fits `n_components` latent directions by NIPALS deflation.
    ///
    /// # Errors
    ///
    /// [`TransformError::InvalidInput`] for fewer than two samples,
    /// ragged rows, mismatched block lengths, or
    /// [`TransformError::InvalidParameter`] for a zero/oversized
    /// component count.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        n_components: usize,
    ) -> Result<Self, TransformError> {
        if x.len() != y.len() {
            return Err(TransformError::InvalidInput(format!(
                "X has {} rows, Y has {}",
                x.len(),
                y.len()
            )));
        }
        let (mut xc, x_mean) = center(x)?;
        let (mut yc, y_mean) = center(y)?;
        let p = xc.cols();
        let q = yc.cols();
        if n_components == 0 || n_components > p {
            return Err(TransformError::InvalidParameter {
                name: "n_components",
                value: n_components as f64,
                constraint: "must be in 1..=n_x_features",
            });
        }
        // Accumulated weights for the closed-form coefficient matrix:
        // B = W (PᵀW)⁻¹ Cᵀ with loadings P and Y-weights C.
        let mut w_mat = Matrix::zeros(p, n_components);
        let mut p_mat = Matrix::zeros(p, n_components);
        let mut c_mat = Matrix::zeros(q, n_components);
        for comp in 0..n_components {
            // w ∝ Xᵀ u, initialized with u = first Y column (NIPALS).
            let mut u: Vec<f64> = yc.col(0);
            let mut w = vec![0.0; p];
            let mut t = vec![0.0; xc.rows()];
            for _ in 0..200 {
                w = edm_linalg::normalize(&xc.vec_mat(&u));
                t = xc.mat_vec(&w);
                let tt = edm_linalg::dot(&t, &t).max(1e-300);
                let c: Vec<f64> = yc.vec_mat(&t).iter().map(|v| v / tt).collect();
                let cc = edm_linalg::dot(&c, &c).max(1e-300);
                let u_new: Vec<f64> = yc.mat_vec(&c).iter().map(|v| v / cc).collect();
                let delta = edm_linalg::sq_dist(&u, &u_new);
                u = u_new;
                if delta < 1e-24 {
                    break;
                }
            }
            let tt = edm_linalg::dot(&t, &t).max(1e-300);
            let p_load: Vec<f64> = xc.vec_mat(&t).iter().map(|v| v / tt).collect();
            let c_load: Vec<f64> = yc.vec_mat(&t).iter().map(|v| v / tt).collect();
            // Deflate both blocks.
            for r in 0..xc.rows() {
                for j in 0..p {
                    xc[(r, j)] -= t[r] * p_load[j];
                }
                for j in 0..q {
                    yc[(r, j)] -= t[r] * c_load[j];
                }
            }
            for j in 0..p {
                w_mat[(j, comp)] = w[j];
                p_mat[(j, comp)] = p_load[j];
            }
            for j in 0..q {
                c_mat[(j, comp)] = c_load[j];
            }
        }
        // B = W (PᵀW)⁻¹ Cᵀ.
        let ptw = p_mat.transpose().mat_mul(&w_mat);
        let ptw_inv = ptw.inverse().map_err(|e| TransformError::Numeric(e.to_string()))?;
        let coef = w_mat.mat_mul(&ptw_inv).mat_mul(&c_mat.transpose());
        Ok(Pls { x_mean, y_mean, coef, n_components })
    }

    /// Number of latent components used.
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Predicts the `Y` row for one `X` sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.x_mean.len(), "feature count mismatch");
        let centered: Vec<f64> = x.iter().zip(&self.x_mean).map(|(&v, &m)| v - m).collect();
        let mut out = self.y_mean.clone();
        let pred = self.coef.vec_mat(&centered);
        for (o, p) in out.iter_mut().zip(pred) {
            *o += p;
        }
        out
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Canonical correlation analysis between two blocks.
///
/// Finds direction pairs `(a, b)` maximizing `corr(X a, Y b)`, via the
/// regularized eigenproblem
/// `Σxx⁻¹ Σxy Σyy⁻¹ Σyx a = ρ² a`.
///
/// # Example
///
/// ```
/// use edm_transform::Cca;
/// use rand::{Rng, SeedableRng};
///
/// // Shared latent factor drives column 0 of X and column 1 of Y.
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut x = Vec::new();
/// let mut y = Vec::new();
/// for _ in 0..300 {
///     let f: f64 = rng.gen::<f64>() * 2.0 - 1.0;
///     x.push(vec![f + 0.05 * rng.gen::<f64>(), rng.gen::<f64>()]);
///     y.push(vec![rng.gen::<f64>(), -f + 0.05 * rng.gen::<f64>()]);
/// }
/// let cca = Cca::fit(&x, &y, 1, 1e-6)?;
/// assert!(cca.correlations()[0] > 0.95);
/// # Ok::<(), edm_transform::TransformError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Cca {
    x_mean: Vec<f64>,
    y_mean: Vec<f64>,
    /// `p × k` X-side directions (columns).
    x_dirs: Matrix,
    /// `q × k` Y-side directions (columns).
    y_dirs: Matrix,
    correlations: Vec<f64>,
}

impl Cca {
    /// Fits `n_pairs` canonical direction pairs with ridge `reg` added
    /// to both covariance blocks.
    ///
    /// # Errors
    ///
    /// Input errors as in [`Pls::fit`]; [`TransformError::Numeric`] if a
    /// covariance block cannot be factorized (raise `reg`).
    pub fn fit(
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        n_pairs: usize,
        reg: f64,
    ) -> Result<Self, TransformError> {
        if x.len() != y.len() {
            return Err(TransformError::InvalidInput(format!(
                "X has {} rows, Y has {}",
                x.len(),
                y.len()
            )));
        }
        if !(reg >= 0.0) {
            return Err(TransformError::InvalidParameter {
                name: "reg",
                value: reg,
                constraint: "must be non-negative",
            });
        }
        let (xc, x_mean) = center(x)?;
        let (yc, y_mean) = center(y)?;
        let p = xc.cols();
        let q = yc.cols();
        if n_pairs == 0 || n_pairs > p.min(q) {
            return Err(TransformError::InvalidParameter {
                name: "n_pairs",
                value: n_pairs as f64,
                constraint: "must be in 1..=min(p, q)",
            });
        }
        let n = xc.rows() as f64 - 1.0;
        let sxx = {
            let mut m = xc.gram().scaled(1.0 / n);
            for i in 0..p {
                m[(i, i)] += reg + 1e-12;
            }
            m
        };
        let syy = {
            let mut m = yc.gram().scaled(1.0 / n);
            for i in 0..q {
                m[(i, i)] += reg + 1e-12;
            }
            m
        };
        let sxy = xc.transpose().mat_mul(&yc).scaled(1.0 / n);

        // Whitened formulation keeps the eigenproblem symmetric:
        // M = Sxx^(-1/2) Sxy Syy^(-1) Syx Sxx^(-1/2); eigvals = ρ².
        let sxx_inv_sqrt = inv_sqrt(&sxx)?;
        let syy_inv = syy.inverse().map_err(|e| TransformError::Numeric(e.to_string()))?;
        let m = sxx_inv_sqrt
            .mat_mul(&sxy)
            .mat_mul(&syy_inv)
            .mat_mul(&sxy.transpose())
            .mat_mul(&sxx_inv_sqrt);
        let eig = m.symmetric_eigen().map_err(|e| TransformError::Numeric(e.to_string()))?;

        let mut x_dirs = Matrix::zeros(p, n_pairs);
        let mut y_dirs = Matrix::zeros(q, n_pairs);
        let mut correlations = Vec::with_capacity(n_pairs);
        for k in 0..n_pairs {
            let rho2 = eig.eigenvalues()[k].clamp(0.0, 1.0);
            correlations.push(rho2.sqrt());
            // a = Sxx^(-1/2) v; b ∝ Syy⁻¹ Syx a.
            let v = eig.eigenvector(k);
            let a = sxx_inv_sqrt.mat_vec(&v);
            let b_raw = syy_inv.mat_mul(&sxy.transpose()).mat_vec(&a);
            let b = edm_linalg::normalize(&b_raw);
            let a = edm_linalg::normalize(&a);
            for j in 0..p {
                x_dirs[(j, k)] = a[j];
            }
            for j in 0..q {
                y_dirs[(j, k)] = b[j];
            }
        }
        Ok(Cca { x_mean, y_mean, x_dirs, y_dirs, correlations })
    }

    /// Canonical correlations, strongest first.
    pub fn correlations(&self) -> &[f64] {
        &self.correlations
    }

    /// Projects an `X` sample onto the canonical directions.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted X feature count.
    pub fn transform_x(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.x_mean.len(), "feature count mismatch");
        let c: Vec<f64> = x.iter().zip(&self.x_mean).map(|(&v, &m)| v - m).collect();
        self.x_dirs.vec_mat(&c)
    }

    /// Projects a `Y` sample onto the canonical directions.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the fitted Y feature count.
    pub fn transform_y(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.y_mean.len(), "feature count mismatch");
        let c: Vec<f64> = y.iter().zip(&self.y_mean).map(|(&v, &m)| v - m).collect();
        self.y_dirs.vec_mat(&c)
    }
}

/// `A^(-1/2)` of a symmetric positive-definite matrix via eigen.
fn inv_sqrt(a: &Matrix) -> Result<Matrix, TransformError> {
    let eig = a.symmetric_eigen().map_err(|e| TransformError::Numeric(e.to_string()))?;
    let n = a.rows();
    let mut out = Matrix::zeros(n, n);
    for k in 0..n {
        let lam = eig.eigenvalues()[k];
        if lam <= 0.0 {
            return Err(TransformError::Numeric("matrix not positive definite in inv_sqrt".into()));
        }
        let s = 1.0 / lam.sqrt();
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] += s * eig.eigenvectors()[(i, k)] * eig.eigenvectors()[(j, k)];
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pls_recovers_multi_output_linear_map() {
        // Y = [x0 + x1, x0 - 2*x1]
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> =
            (0..60).map(|_| vec![rng.gen::<f64>() * 4.0, rng.gen::<f64>() * 4.0]).collect();
        let y: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0] + r[1], r[0] - 2.0 * r[1]]).collect();
        let pls = Pls::fit(&x, &y, 2).unwrap();
        let probe = [1.5, 2.5];
        let pred = pls.predict(&probe);
        assert!((pred[0] - 4.0).abs() < 1e-6, "got {pred:?}");
        assert!((pred[1] + 3.5).abs() < 1e-6, "got {pred:?}");
    }

    #[test]
    fn pls_survives_perfect_collinearity() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<Vec<f64>> = (0..30).map(|i| vec![4.0 * i as f64]).collect();
        let pls = Pls::fit(&x, &y, 1).unwrap();
        assert!((pls.predict(&[5.0, 5.0])[0] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn pls_one_component_underfits_two_target_directions() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<Vec<f64>> = (0..80).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let y: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0], r[1]]).collect();
        let full = Pls::fit(&x, &y, 2).unwrap();
        let truncated = Pls::fit(&x, &y, 1).unwrap();
        let err = |m: &Pls| -> f64 {
            x.iter().zip(&y).map(|(xi, yi)| edm_linalg::sq_dist(&m.predict(xi), yi)).sum()
        };
        assert!(err(&full) < 1e-9);
        assert!(err(&truncated) > 0.1);
    }

    #[test]
    fn cca_finds_shared_factor() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..500 {
            let f = rng.gen::<f64>() * 2.0 - 1.0;
            x.push(vec![f + 0.05 * rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()]);
            y.push(vec![rng.gen::<f64>(), 2.0 * f + 0.05 * rng.gen::<f64>()]);
        }
        let cca = Cca::fit(&x, &y, 2, 1e-6).unwrap();
        assert!(cca.correlations()[0] > 0.95, "{:?}", cca.correlations());
        assert!(cca.correlations()[1] < 0.4, "{:?}", cca.correlations());
        // Canonical scores correlate across blocks.
        let sx: Vec<f64> = x.iter().map(|r| cca.transform_x(r)[0]).collect();
        let sy: Vec<f64> = y.iter().map(|r| cca.transform_y(r)[0]).collect();
        assert!(stats::pearson(&sx, &sy).abs() > 0.95);
    }

    #[test]
    fn cca_independent_blocks_have_low_correlation() {
        let mut rng = StdRng::seed_from_u64(4);
        let x: Vec<Vec<f64>> = (0..400).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let y: Vec<Vec<f64>> = (0..400).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let cca = Cca::fit(&x, &y, 1, 1e-6).unwrap();
        assert!(cca.correlations()[0] < 0.3, "{:?}", cca.correlations());
    }

    #[test]
    fn input_validation() {
        let x = vec![vec![0.0], vec![1.0]];
        let y_short = vec![vec![0.0]];
        assert!(Pls::fit(&x, &y_short, 1).is_err());
        assert!(Cca::fit(&x, &y_short, 1, 1e-6).is_err());
        let y = vec![vec![0.0], vec![1.0]];
        assert!(Pls::fit(&x, &y, 0).is_err());
        assert!(Cca::fit(&x, &y, 5, 1e-6).is_err());
    }
}
