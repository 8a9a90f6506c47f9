use serde::Serialize;

use crate::{LinalgError, Matrix};

/// Eigen-decomposition `A = V Λ Vᵀ` of a real symmetric matrix, computed
/// with cyclic Jacobi rotations.
///
/// Eigenpairs are sorted by descending eigenvalue, which is the order PCA
/// and kernel centering want.
///
/// Jacobi is O(n³) per sweep and typically needs < 10 sweeps; for the
/// matrix sizes in this workspace (covariances and Gram matrices up to a
/// few hundred) it is both fast enough and highly accurate.
///
/// # Example
///
/// ```
/// use edm_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = a.symmetric_eigen()?;
/// assert!((eig.eigenvalues()[0] - 3.0).abs() < 1e-10);
/// assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-10);
/// # Ok::<(), edm_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Columns are eigenvectors, in the same order as `eigenvalues`.
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Maximum number of Jacobi sweeps before giving up.
    const MAX_SWEEPS: usize = 64;

    /// Decomposes the symmetric matrix `a`.
    ///
    /// Only requires `a` to be symmetric up to roundoff; the strictly
    /// upper triangle is used for rotations.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] if `a` is not square;
    /// [`LinalgError::NoConvergence`] if off-diagonal mass does not vanish
    /// within the sweep budget (practically unreachable for symmetric
    /// input).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut m = a.clone();
        let mut v = Matrix::identity(n);
        if n <= 1 {
            let eigenvalues = if n == 1 { vec![m[(0, 0)]] } else { vec![] };
            return Ok(SymmetricEigen { eigenvalues, eigenvectors: v });
        }
        let scale = m.max_abs().max(1e-300);
        let tol = 1e-14 * scale;
        let mut converged = false;
        for _sweep in 0..Self::MAX_SWEEPS {
            let mut off = 0.0_f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    off = off.max(m[(p, q)].abs());
                }
            }
            if off <= tol {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol * 1e-2 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = 0.5 * (aqq - app) / apq;
                    // Stable computation of tan of the rotation angle.
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows/columns p and q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        if !converged {
            // One final check: the last sweep may have converged.
            let mut off = 0.0_f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    off = off.max(m[(p, q)].abs());
                }
            }
            if off > tol {
                return Err(LinalgError::NoConvergence { iterations: Self::MAX_SWEEPS });
            }
        }
        // Sort by descending eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).expect("finite eigenvalues"));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
        let mut eigenvectors = Matrix::zeros(n, n);
        for (new_c, &old_c) in order.iter().enumerate() {
            for r in 0..n {
                eigenvectors[(r, new_c)] = v[(r, old_c)];
            }
        }
        Ok(SymmetricEigen { eigenvalues, eigenvectors })
    }

    /// Eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvector matrix `V`; column `i` pairs with `eigenvalues()[i]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Copy of eigenvector `i` (a column of `V`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn eigenvector(&self, i: usize) -> Vec<f64> {
        self.eigenvectors.col(i)
    }

    /// Reconstructs `V Λ Vᵀ` (for testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let lambda = Matrix::from_diag(&self.eigenvalues);
        self.eigenvectors.mat_mul(&lambda).mat_mul(&self.eigenvectors.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two_known() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = a.symmetric_eigen().unwrap();
        assert!((e.eigenvalues()[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] - 1.0).abs() < 1e-12);
        // Eigenvector of λ=3 is (1,1)/√2 up to sign.
        let v = e.eigenvector(0);
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_error_small() {
        let a =
            Matrix::from_rows(&[vec![4.0, 1.0, -2.0], vec![1.0, 2.0, 0.0], vec![-2.0, 0.0, 3.0]]);
        let e = a.symmetric_eigen().unwrap();
        assert!((&e.reconstruct() - &a).max_abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![5.0, 2.0, 0.0, 1.0],
            vec![2.0, 6.0, 1.0, 0.0],
            vec![0.0, 1.0, 7.0, 3.0],
            vec![1.0, 0.0, 3.0, 8.0],
        ]);
        let e = a.symmetric_eigen().unwrap();
        let vtv = e.eigenvectors().transpose().mat_mul(e.eigenvectors());
        assert!((&vtv - &Matrix::identity(4)).max_abs() < 1e-10);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Matrix::from_rows(&[vec![1.0, 0.5, 0.2], vec![0.5, 2.0, -0.3], vec![0.2, -0.3, 3.0]]);
        let e = a.symmetric_eigen().unwrap();
        let sum: f64 = e.eigenvalues().iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_returns_sorted_diagonal() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = a.symmetric_eigen().unwrap();
        assert_eq!(e.eigenvalues(), &[5.0, 3.0, 1.0]);
    }

    #[test]
    fn handles_empty_and_single() {
        let e = Matrix::zeros(0, 0).symmetric_eigen().unwrap();
        assert!(e.eigenvalues().is_empty());
        let e1 = Matrix::from_diag(&[7.0]).symmetric_eigen().unwrap();
        assert_eq!(e1.eigenvalues(), &[7.0]);
    }
}
