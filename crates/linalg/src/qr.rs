use serde::Serialize;

use crate::Matrix;

/// Householder QR factorization `A = Q R` for an `m x n` matrix with
/// `m >= n`.
///
/// Primarily used for least-squares solves in `edm-learn` (the paper's
/// "LSF" baseline regressor family) where the normal equations would lose
/// precision.
///
/// # Example
///
/// ```
/// use edm_linalg::Matrix;
///
/// // Overdetermined system: best fit of y = 2x through (1,2.1), (2,3.9), (3,6.0)
/// let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
/// let coef = a.qr().solve_least_squares(&[2.1, 3.9, 6.0]);
/// assert!((coef[0] - 2.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Qr {
    q: Matrix,
    r: Matrix,
}

impl Qr {
    /// Factorizes `a` using Householder reflections.
    ///
    /// `Q` is returned in its thin `m x n` form and `R` as `n x n`.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() < a.cols()` (underdetermined systems are not
    /// supported).
    pub fn new(a: &Matrix) -> Self {
        let (m, n) = a.shape();
        assert!(m >= n, "QR requires rows >= cols, got {m}x{n}");
        let mut r = a.clone();
        // Accumulate Q as a full m x m product, then thin it.
        let mut q = Matrix::identity(m);
        for k in 0..n {
            // Householder vector for column k below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            for i in k..m {
                v[i] = r[(i, k)];
            }
            v[k] -= alpha;
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / ‖v‖² to R (columns k..n).
            for c in k..n {
                let mut s = 0.0;
                for i in k..m {
                    s += v[i] * r[(i, c)];
                }
                let f = 2.0 * s / vnorm2;
                for i in k..m {
                    r[(i, c)] -= f * v[i];
                }
            }
            // Accumulate into Q: Q = Q H (apply H on the right).
            for row in 0..m {
                let mut s = 0.0;
                for i in k..m {
                    s += q[(row, i)] * v[i];
                }
                let f = 2.0 * s / vnorm2;
                for i in k..m {
                    q[(row, i)] -= f * v[i];
                }
            }
        }
        // Thin Q to m x n and R to n x n.
        let idx_rows: Vec<usize> = (0..m).collect();
        let idx_cols: Vec<usize> = (0..n).collect();
        let q_thin = q.select(&idx_rows, &idx_cols);
        let r_thin = r.select(&idx_cols, &idx_cols);
        Qr { q: q_thin, r: r_thin }
    }

    /// The thin orthonormal factor `Q` (`m x n`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Solves `min_x ‖A x - b‖₂` via `R x = Qᵀ b`.
    ///
    /// Rank-deficient columns (zero diagonal in `R`) get coefficient 0.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != Q.rows()`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.q.rows(), "rhs length mismatch");
        let qtb = self.q.vec_mat(b);
        let n = self.r.rows();
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let d = self.r[(i, i)];
            if d.abs() < 1e-12 {
                x[i] = 0.0;
                continue;
            }
            let mut s = qtb[i];
            for k in (i + 1)..n {
                s -= self.r[(i, k)] * x[k];
            }
            x[i] = s / d;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_is_orthonormal_and_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![12.0, -51.0, 4.0],
            vec![6.0, 167.0, -68.0],
            vec![-4.0, 24.0, -41.0],
        ]);
        let qr = a.qr();
        let qtq = qr.q().transpose().mat_mul(qr.q());
        assert!((&qtq - &Matrix::identity(3)).max_abs() < 1e-10);
        let recon = qr.q().mat_mul(qr.r());
        assert!((&recon - &a).max_abs() < 1e-9);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a =
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0], vec![7.0, 8.5]]);
        let qr = a.qr();
        for i in 0..qr.r().rows() {
            for j in 0..i {
                assert!(qr.r()[(i, j)].abs() < 1e-10);
            }
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        // y = 1 + 2x with noise-free data: exact recovery.
        let a =
            Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0], vec![1.0, 3.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = a.qr().solve_least_squares(&b);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_column_gets_zero() {
        // Second column is all zeros.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0], vec![3.0, 0.0]]);
        let x = a.qr().solve_least_squares(&[2.0, 4.0, 6.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert_eq!(x[1], 0.0);
    }
}
