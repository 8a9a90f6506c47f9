use serde::Serialize;

use crate::{LinalgError, Matrix};

/// LU factorization with partial pivoting: `P A = L U`.
///
/// `L` (unit lower triangular) and `U` (upper triangular) are packed into
/// a single matrix; `perm` records the row permutation.
///
/// # Example
///
/// ```
/// use edm_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]);
/// let x = a.lu()?.solve(&[3.0, 4.0]);
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), edm_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Lu {
    packed: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl Lu {
    /// Factorizes `a` with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] if `a` is not square;
    /// [`LinalgError::Singular`] if no usable pivot exists in some column.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut m = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Pivot: largest |value| in column k at or below the diagonal.
            let mut p = k;
            let mut best = m[(k, k)].abs();
            for i in (k + 1)..n {
                let v = m[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 || !best.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for c in 0..n {
                    let t = m[(k, c)];
                    m[(k, c)] = m[(p, c)];
                    m[(p, c)] = t;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = m[(k, k)];
            for i in (k + 1)..n {
                let f = m[(i, k)] / pivot;
                m[(i, k)] = f;
                for c in (k + 1)..n {
                    let u = m[(k, c)];
                    m[(i, c)] -= f * u;
                }
            }
        }
        Ok(Lu { packed: m, perm, sign })
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.packed.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation, then forward/back substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for k in 0..i {
                s -= self.packed[(i, k)] * x[k];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= self.packed[(i, k)] * x[k];
            }
            x[i] = s / self.packed[(i, i)];
        }
        x
    }

    /// Determinant of `A`.
    pub fn det(&self) -> f64 {
        self.sign * (0..self.dim()).map(|i| self.packed[(i, i)]).product::<f64>()
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

    #[test]
    fn solve_with_pivoting() {
        // Leading zero forces a pivot swap.
        let a =
            Matrix::from_rows(&[vec![0.0, 2.0, 1.0], vec![1.0, 1.0, 1.0], vec![2.0, 0.0, -1.0]]);
        let x_true = [1.0, 2.0, 3.0];
        let b = a.mat_vec(&x_true);
        let x = a.lu().unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn det_known_values() {
        let a = Matrix::from_rows(&[vec![3.0, 8.0], vec![4.0, 6.0]]);
        assert!((a.lu().unwrap().det() + 14.0).abs() < 1e-12);
        assert!((Matrix::identity(4).lu().unwrap().det() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn det_sign_tracks_permutation() {
        // A row swap of the identity has determinant -1.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!((a.lu().unwrap().det() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn inverse_round_trip() {
        let a =
            Matrix::from_rows(&[vec![2.0, -1.0, 0.0], vec![-1.0, 2.0, -1.0], vec![0.0, -1.0, 2.0]]);
        let inv = a.lu().unwrap().inverse();
        assert!((&a.mat_mul(&inv) - &Matrix::identity(3)).max_abs() < 1e-12);
    }
}
