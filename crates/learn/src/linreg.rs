//! Least-squares and ridge regression — the "LSF" and "regularized LSF"
//! of the paper's Fmax-prediction study (ref \[20\]).

use edm_linalg::Matrix;
use serde::Serialize;

use crate::{error::check_xy, LearnError};

/// Ordinary least squares `min_w ‖Xw + b − y‖²`, solved by Householder QR
/// for numerical stability.
///
/// # Example
///
/// ```
/// use edm_learn::linreg::LeastSquares;
///
/// // y = 1 + 2x
/// let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = x.iter().map(|v| 1.0 + 2.0 * v[0]).collect();
/// let m = LeastSquares::fit(&x, &y)?;
/// assert!((m.intercept() - 1.0).abs() < 1e-9);
/// assert!((m.coefficients()[0] - 2.0).abs() < 1e-9);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LeastSquares {
    coef: Vec<f64>,
    intercept: f64,
}

impl LeastSquares {
    /// Fits the model.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on empty/ragged/mismatched input.
    pub fn fit(x: &[Vec<f64>], y: &[f64]) -> Result<Self, LearnError> {
        check_xy(x, y.len())?;
        let design = Matrix::from_rows(x).with_bias_column();
        let w = design.qr().solve_least_squares(y);
        Ok(LeastSquares { intercept: w[0], coef: w[1..].to_vec() })
    }

    /// Reassembles a model from persisted weights — the inverse of the
    /// accessors below, used by `edm::persist`.
    pub fn from_parts(coef: Vec<f64>, intercept: f64) -> Self {
        LeastSquares { coef, intercept }
    }

    /// The learned weights (one per feature).
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Predicts `wᵀx + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.intercept + edm_linalg::dot(&self.coef, x)
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Ridge regression `min_w ‖Xw + b − y‖² + λ‖w‖²` (intercept not
/// penalized), solved via the regularized normal equations with
/// Cholesky.
///
/// This is regularization in its plainest form — the `E + λC` objective
/// the paper's §2.3 uses to explain how overfitting is controlled.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Ridge {
    coef: Vec<f64>,
    intercept: f64,
    lambda: f64,
}

impl Ridge {
    /// Fits with regularization strength `lambda`.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidParameter`] if `lambda < 0`;
    /// [`LearnError::InvalidInput`] on inconsistent input;
    /// [`LearnError::Numeric`] if the normal matrix is singular (only
    /// possible at `lambda == 0`).
    pub fn fit(x: &[Vec<f64>], y: &[f64], lambda: f64) -> Result<Self, LearnError> {
        if !(lambda >= 0.0) {
            return Err(LearnError::InvalidParameter {
                name: "lambda",
                value: lambda,
                constraint: "must be non-negative",
            });
        }
        let d = check_xy(x, y.len())?;
        let n = x.len() as f64;
        // Center to avoid penalizing the intercept.
        let xm = Matrix::from_rows(x);
        let means = edm_linalg::stats::column_means(&xm);
        let y_mean = edm_linalg::mean(y);
        let xc_rows: Vec<Vec<f64>> =
            x.iter().map(|r| r.iter().zip(&means).map(|(&v, &m)| v - m).collect()).collect();
        let xc = Matrix::from_rows(&xc_rows);
        let yc: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();
        // (XᵀX + λI) w = Xᵀ y
        let mut a = xc.gram();
        for i in 0..d {
            a[(i, i)] += lambda;
        }
        // tiny jitter keeps Cholesky happy for rank-deficient X at λ=0
        if lambda == 0.0 {
            for i in 0..d {
                a[(i, i)] += 1e-12 * n.max(1.0);
            }
        }
        let rhs = xc.vec_mat(&yc);
        let chol = a.cholesky().map_err(LearnError::from)?;
        let coef = chol.solve(&rhs);
        let intercept = y_mean - edm_linalg::dot(&coef, &means);
        Ok(Ridge { coef, intercept, lambda })
    }

    /// Reassembles a model from persisted weights — the inverse of the
    /// accessors below, used by `edm::persist`.
    pub fn from_parts(coef: Vec<f64>, intercept: f64, lambda: f64) -> Self {
        Ridge { coef, intercept, lambda }
    }

    /// The learned weights.
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The regularization strength used at fit time.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Predicts `wᵀx + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.intercept + edm_linalg::dot(&self.coef, x)
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Expands samples with polynomial powers of each feature:
/// `x → (x₁, x₁², …, x₁ᵈ, x₂, …)` (no cross terms).
///
/// The model-complexity axis of the Fig. 5 overfitting experiment —
/// degree sweeps trade training error against validation error.
///
/// # Panics
///
/// Panics if `degree == 0`.
pub fn polynomial_features(x: &[Vec<f64>], degree: u32) -> Vec<Vec<f64>> {
    assert!(degree >= 1, "polynomial degree must be >= 1");
    x.iter()
        .map(|row| {
            let mut out = Vec::with_capacity(row.len() * degree as usize);
            for &v in row {
                let mut p = v;
                for _ in 0..degree {
                    out.push(p);
                    p *= v;
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_plane() {
        // y = 2 + 3a - b
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 5) as f64, (i / 5) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 + 3.0 * r[0] - r[1]).collect();
        let m = LeastSquares::fit(&x, &y).unwrap();
        assert!((m.intercept() - 2.0).abs() < 1e-9);
        assert!((m.coefficients()[0] - 3.0).abs() < 1e-9);
        assert!((m.coefficients()[1] + 1.0).abs() < 1e-9);
        assert!((m.predict(&[10.0, 10.0]) - 22.0).abs() < 1e-8);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0]).collect();
        let none = Ridge::fit(&x, &y, 0.0).unwrap();
        let strong = Ridge::fit(&x, &y, 1e4).unwrap();
        assert!((none.coefficients()[0] - 2.0).abs() < 1e-6);
        assert!(strong.coefficients()[0].abs() < none.coefficients()[0].abs());
        assert!(strong.coefficients()[0] > 0.0);
    }

    #[test]
    fn ridge_handles_collinear_features() {
        // Second feature duplicates the first: OLS normal equations are
        // singular, ridge is fine.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 4.0 * i as f64).collect();
        let m = Ridge::fit(&x, &y, 1.0).unwrap();
        // weight mass split between the twins
        let total = m.coefficients()[0] + m.coefficients()[1];
        assert!((total - 4.0).abs() < 0.1);
        assert!((m.coefficients()[0] - m.coefficients()[1]).abs() < 1e-9);
    }

    #[test]
    fn polynomial_features_expand() {
        let f = polynomial_features(&[vec![2.0, 3.0]], 3);
        assert_eq!(f[0], vec![2.0, 4.0, 8.0, 3.0, 9.0, 27.0]);
    }

    #[test]
    fn poly_ols_fits_quadratic() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.2 - 2.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 1.0 - r[0] + 0.5 * r[0] * r[0]).collect();
        let xp = polynomial_features(&x, 2);
        let m = LeastSquares::fit(&xp, &y).unwrap();
        let probe = polynomial_features(&[vec![1.3]], 2);
        let want = 1.0 - 1.3 + 0.5 * 1.3 * 1.3;
        assert!((m.predict(&probe[0]) - want).abs() < 1e-9);
    }

    #[test]
    fn negative_lambda_rejected() {
        assert!(matches!(
            Ridge::fit(&[vec![0.0]], &[0.0], -1.0),
            Err(LearnError::InvalidParameter { name: "lambda", .. })
        ));
    }
}
