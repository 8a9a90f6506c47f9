use serde::Serialize;

use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, stored as the lower-triangular factor `L`.
///
/// Used throughout the workspace: solving regularized least squares,
/// Gaussian-process posteriors, multivariate-normal sampling, and
/// Mahalanobis distances.
///
/// # Example
///
/// ```
/// use edm_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![25.0, 15.0], vec![15.0, 18.0]]);
/// let chol = a.cholesky()?;
/// assert!((chol.det() - (25.0 * 18.0 - 15.0 * 15.0)).abs() < 1e-9);
/// # Ok::<(), edm_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes `a`.
    ///
    /// Only the lower triangle of `a` is read, so a numerically slightly
    /// asymmetric matrix (for example an accumulated Gram matrix) is fine.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] if `a` is not square;
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Rebuilds a factorization from a stored lower-triangular factor
    /// `L` (as returned by [`Cholesky::l`]) — used by model persistence
    /// to round-trip fitted posteriors without refactorizing. The
    /// factor is taken verbatim; solves with it are bitwise identical
    /// to the original.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not square.
    pub fn from_factor(l: Matrix) -> Self {
        assert!(l.is_square(), "Cholesky factor must be square");
        Cholesky { l }
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension `n` of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        y
    }

    /// Solves `Lᵀ x = y` (back substitution).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// Determinant of `A` (product of squared diagonal of `L`).
    pub fn det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)] * self.l[(i, i)]).product()
    }

    /// Log-determinant of `A`, numerically stable for large dimensions.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| 2.0 * self.l[(i, i)].ln()).sum()
    }

    /// Inverse of `A` (column-by-column solve).
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let x = self.solve(&e);
            for r in 0..n {
                inv[(r, c)] = x[r];
            }
            e[c] = 0.0;
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let recon = c.l().mat_mul(&c.l().transpose());
        assert!((&recon - &a).max_abs() < 1e-9);
    }

    #[test]
    fn known_factor() {
        // Classic textbook example: L = [[2,0,0],[6,1,0],[-8,5,3]]
        let c = spd3().cholesky().unwrap();
        assert!((c.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((c.l()[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((c.l()[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((c.l()[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_round_trip() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let x_true = [1.0, -1.0, 2.0];
        let b = a.mat_vec(&x_true);
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn det_and_log_det_agree() {
        let c = spd3().cholesky().unwrap();
        assert!((c.det().ln() - c.log_det()).abs() < 1e-9);
        assert!((c.det() - 36.0).abs() < 1e-6); // (2*1*3)^2
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(a.cholesky(), Err(LinalgError::NotPositiveDefinite { pivot: 1 })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.cholesky(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn inverse_matches_lu_inverse() {
        let a = spd3();
        let inv_chol = a.cholesky().unwrap().inverse();
        let inv_lu = a.inverse().unwrap();
        assert!((&inv_chol - &inv_lu).max_abs() < 1e-8);
    }
}
