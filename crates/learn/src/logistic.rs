//! L2-regularized logistic regression trained with Newton/IRLS.
//!
//! A model-based learner (paper §2.1) whose outputs are calibrated
//! probabilities — useful when a flow needs a ranked "how sure are we"
//! rather than a hard label.

use edm_linalg::Matrix;
use serde::Serialize;

use crate::{error::check_xy, LearnError};

/// Hyperparameters for logistic-regression training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LogisticParams {
    /// L2 penalty λ on the weights (intercept unpenalized).
    pub lambda: f64,
    /// Convergence threshold on the max absolute weight update.
    pub tol: f64,
    /// Newton iteration cap.
    pub max_iter: usize,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams { lambda: 1e-4, tol: 1e-8, max_iter: 100 }
    }
}

/// A trained binary logistic model `P(y=1|x) = σ(wᵀx + b)`.
///
/// # Example
///
/// ```
/// use edm_learn::logistic::{LogisticParams, LogisticRegression};
///
/// let x = vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]];
/// let y = vec![0, 0, 1, 1];
/// let m = LogisticRegression::fit(&x, &y, LogisticParams::default())?;
/// assert!(m.predict_proba(&[0.0]) < 0.5);
/// assert!(m.predict_proba(&[1.0]) > 0.5);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LogisticRegression {
    coef: Vec<f64>,
    intercept: f64,
    iterations: usize,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Fits on labels in `{0, 1}`.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on inconsistent input or labels
    /// outside `{0, 1}`; [`LearnError::Numeric`] if the Newton system is
    /// singular (raise `lambda`).
    pub fn fit(x: &[Vec<f64>], y: &[i32], params: LogisticParams) -> Result<Self, LearnError> {
        let d = check_xy(x, y.len())?;
        if y.iter().any(|&l| l != 0 && l != 1) {
            return Err(LearnError::InvalidInput("labels must be 0 or 1".into()));
        }
        if !(params.lambda >= 0.0) {
            return Err(LearnError::InvalidParameter {
                name: "lambda",
                value: params.lambda,
                constraint: "must be non-negative",
            });
        }
        let design = Matrix::from_rows(x).with_bias_column();
        let n = x.len();
        let dim = d + 1;
        let mut w = vec![0.0; dim];
        let mut iterations = 0;
        for _ in 0..params.max_iter {
            iterations += 1;
            // p_i = sigma(x_i . w); gradient and Hessian of the penalized
            // negative log-likelihood.
            let z = design.mat_vec(&w);
            let p: Vec<f64> = z.iter().map(|&v| sigmoid(v)).collect();
            let mut grad = vec![0.0; dim];
            for i in 0..n {
                let err = p[i] - y[i] as f64;
                for (g, &xi) in grad.iter_mut().zip(design.row(i)) {
                    *g += err * xi;
                }
            }
            for j in 1..dim {
                grad[j] += params.lambda * w[j];
            }
            let mut hess = Matrix::zeros(dim, dim);
            for i in 0..n {
                let s = (p[i] * (1.0 - p[i])).max(1e-10);
                let row = design.row(i);
                for a in 0..dim {
                    let ra = row[a] * s;
                    if ra == 0.0 {
                        continue;
                    }
                    for b in a..dim {
                        hess[(a, b)] += ra * row[b];
                    }
                }
            }
            for a in 0..dim {
                for b in 0..a {
                    hess[(a, b)] = hess[(b, a)];
                }
            }
            for j in 1..dim {
                hess[(j, j)] += params.lambda;
            }
            hess[(0, 0)] += 1e-10; // keep the intercept row non-singular
            let step = hess.cholesky().map_err(LearnError::from)?.solve(&grad);
            let mut max_step = 0.0_f64;
            for (wj, sj) in w.iter_mut().zip(&step) {
                *wj -= sj;
                max_step = max_step.max(sj.abs());
            }
            if max_step < params.tol {
                break;
            }
        }
        Ok(LogisticRegression { intercept: w[0], coef: w[1..].to_vec(), iterations })
    }

    /// `P(y = 1 | x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.intercept + edm_linalg::dot(&self.coef, x))
    }

    /// Hard label at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> i32 {
        i32::from(self.predict_proba(x) >= 0.5)
    }

    /// The learned weights.
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Newton iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_data_classified() {
        let x: Vec<Vec<f64>> =
            (0..20).map(|i| vec![i as f64 * 0.1 + if i >= 10 { 2.0 } else { 0.0 }]).collect();
        let y: Vec<i32> = (0..20).map(|i| i32::from(i >= 10)).collect();
        let m = LogisticRegression::fit(&x, &y, LogisticParams::default()).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi), yi);
        }
    }

    #[test]
    fn probabilities_are_monotone_along_weight_direction() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 0, 1, 1];
        let m = LogisticRegression::fit(&x, &y, LogisticParams::default()).unwrap();
        let p: Vec<f64> = (0..7).map(|i| m.predict_proba(&[i as f64 * 0.5])).collect();
        for w in p.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn regularization_bounds_weights_on_separable_data() {
        // Unregularized logistic diverges on separable data; λ keeps it finite.
        let x = vec![vec![-1.0], vec![1.0]];
        let y = vec![0, 1];
        let m =
            LogisticRegression::fit(&x, &y, LogisticParams { lambda: 1.0, ..Default::default() })
                .unwrap();
        assert!(m.coefficients()[0].is_finite());
        assert!(m.coefficients()[0].abs() < 10.0);
    }

    #[test]
    fn bad_labels_rejected() {
        assert!(matches!(
            LogisticRegression::fit(&[vec![0.0]], &[2], LogisticParams::default()),
            Err(LearnError::InvalidInput(_))
        ));
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }
}
