use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use serde::Serialize;

use crate::{Cholesky, LinalgError, Lu, Qr, SymmetricEigen};

/// Lower-triangle cells per band of [`Matrix::mirror_upper_to_lower`]:
/// 64 Ki cells (512 KiB of writes, roughly 100 µs of copying) per
/// dispatch, so a large mirror forks after its first band and a small
/// one stays on the caller.
const MIRROR_BAND_CELLS: usize = 1 << 16;

/// A dense, row-major `f64` matrix.
///
/// This is the one matrix type shared by every crate in the workspace.
/// It intentionally keeps a small API surface: construction, element and
/// row access, the arithmetic the learners need, and entry points into the
/// decompositions ([`Matrix::cholesky`], [`Matrix::lu`], [`Matrix::qr`],
/// [`Matrix::symmetric_eigen`]).
///
/// # Example
///
/// ```
/// use edm_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = a.transpose();
/// let c = a.mat_mul(&b);
/// assert_eq!(c[(0, 0)], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not all the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {}, expected {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of bounds ({})", self.cols);
        if self.rows == 0 {
            return Vec::new();
        }
        // One strided pass over the buffer; the iterator form avoids the
        // per-element index arithmetic and bounds check of `self[(r, c)]`.
        self.data[c..].iter().step_by(self.cols).copied().collect()
    }

    /// Iterator over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The transpose `Aᵀ`.
    ///
    /// Tile-blocked: workers take bands of output rows and copy the
    /// input in square-ish tiles, so the strided side of the copy
    /// revisits each cache line while it is still resident instead of
    /// streaming the whole matrix once per output row. Each element is
    /// a single copy, so blocked, serial, and parallel results are all
    /// identical.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return t;
        }
        let spec = crate::BlockSpec::from_env();
        let (rows, cols) = (self.rows, self.cols);
        let data = &self.data;
        edm_par::for_each_band(&mut t.data, rows, spec.band_rows, |b, band| {
            let c0 = b * spec.band_rows;
            for r0 in (0..rows).step_by(spec.col_tile) {
                let rend = (r0 + spec.col_tile).min(rows);
                for (dc, trow) in band.chunks_mut(rows).enumerate() {
                    let c = c0 + dc;
                    for (slot, r) in trow[r0..rend].iter_mut().zip(r0..) {
                        *slot = data[r * cols + c];
                    }
                }
            }
        });
        t
    }

    /// Matrix–vector product `A v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mat_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length {} != cols {}", v.len(), self.cols);
        self.iter_rows().map(|row| crate::dot(row, v)).collect()
    }

    /// Vector–matrix product `vᵀ A` (returned as a plain vector).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn vec_mat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length {} != rows {}", v.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for (r, row) in self.iter_rows().enumerate() {
            let s = v[r];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += s * x;
            }
        }
        out
    }

    /// Matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mat_mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions disagree: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.rows == 0 || other.cols == 0 {
            return out;
        }
        // Cache-blocked i-k-j: workers take bands of output rows, and
        // within a band the columns are swept one `col_tile`-wide panel
        // of B at a time, so the panel stays cache-resident while every
        // row of the band streams over it. Each C element still
        // accumulates in k-ascending order with the same zero skip as
        // the naive loop, so the product is bitwise identical to the
        // serial i-k-j path.
        let spec = crate::BlockSpec::from_env();
        let n = other.cols;
        edm_par::for_each_band(&mut out.data, n, spec.band_rows, |bi, band| {
            let i0 = bi * spec.band_rows;
            for j0 in (0..n).step_by(spec.col_tile) {
                let jend = (j0 + spec.col_tile).min(n);
                for (di, crow) in band.chunks_mut(n).enumerate() {
                    let arow = self.row(i0 + di);
                    let ctile = &mut crow[j0..jend];
                    for (k, &a) in arow.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        crate::block::axpy_run(a, &other.data[k * n + j0..k * n + jend], ctile);
                    }
                }
            }
        });
        out
    }

    /// The Gram product `AᵀA` (always symmetric positive semidefinite).
    ///
    /// Only the upper triangle is computed (in parallel bands of rows,
    /// streaming `A` once per band instead of once per row), then
    /// mirrored tile-by-tile. Every element accumulates its sample
    /// terms in the same ascending sample order as the serial loop (and
    /// with the same skip of zero factors), so the result is bitwise
    /// identical either way.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        if d == 0 {
            return g;
        }
        let spec = crate::BlockSpec::from_env();
        edm_par::for_each_band(&mut g.data, d, spec.band_rows, |b, band| {
            let i0 = b * spec.band_rows;
            for row in self.data.chunks_exact(d) {
                for (di, grow) in band.chunks_mut(d).enumerate() {
                    let i = i0 + di;
                    let ri = row[i];
                    if ri == 0.0 {
                        continue;
                    }
                    crate::block::axpy_run(ri, &row[i..], &mut grow[i..]);
                }
            }
        });
        g.mirror_upper_to_lower();
        g
    }

    /// Copies the strict upper triangle onto the lower one, making the
    /// matrix exactly symmetric: `a[(i, j)] = a[(j, i)]` for `j < i`.
    ///
    /// Each row is split at its diagonal: the lower halves (what is
    /// written) are handed out in bands of whole 64-row blocks, about
    /// `MIRROR_BAND_CELLS` cells or more each, through
    /// [`edm_par::for_each_chunk`], while every band reads the upper
    /// halves (diagonal onwards) through shared borrows. Inside a band
    /// the copy walks 64 × 64 blocks, each transposed through a small
    /// stack buffer so that both its reads and its writes are
    /// contiguous runs. Every cell is one copy, so any band split and
    /// thread count give the same matrix. Used by the symmetric
    /// builders here and in `edm-kernels` after filling only one
    /// triangle.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn mirror_upper_to_lower(&mut self) {
        assert!(self.is_square(), "mirror requires a square matrix");
        const BLOCK: usize = 64;
        let n = self.rows;
        let mut uppers: Vec<&[f64]> = Vec::with_capacity(n);
        let mut bands: Vec<Vec<&mut [f64]>> = vec![Vec::new()];
        let mut cells = 0;
        for (i, row) in self.data.chunks_exact_mut(n.max(1)).enumerate() {
            let (lower, upper) = row.split_at_mut(i);
            uppers.push(upper);
            // Bands are whole blocks of rows, so every upper-half line
            // a block reads is used by all the block's rows at once.
            if cells >= MIRROR_BAND_CELLS && i % BLOCK == 0 {
                bands.push(Vec::new());
                cells = 0;
            }
            cells += i;
            bands.last_mut().expect("bands start non-empty").push(lower);
        }
        // Bands start at multiples of BLOCK, so a band's row blocks are
        // the matrix's.
        let mut i0 = 0;
        let firsts: Vec<usize> = bands
            .iter()
            .map(|band| {
                let first = i0;
                i0 += band.len();
                first
            })
            .collect();
        // One band per chunk: the chunk is the band's row list.
        edm_par::for_each_chunk(&mut bands, 1, |b, band| {
            let mut block = [[0.0; BLOCK]; BLOCK];
            for (t, tile) in band[0].chunks_mut(BLOCK).enumerate() {
                let (i0, i1) = (firsts[b] + t * BLOCK, firsts[b] + t * BLOCK + tile.len());
                for j0 in (0..i1 - 1).step_by(BLOCK) {
                    let j1 = (j0 + BLOCK).min(i1 - 1);
                    // Transpose through `block`: contiguous runs of the
                    // upper halves (row j's starts at its diagonal) in,
                    // contiguous runs of the lower halves out.
                    for (j, col) in (j0..j1).zip(block.iter_mut()) {
                        let lo = i0.max(j + 1);
                        col[lo - i0..i1 - i0].copy_from_slice(&uppers[j][lo - j..i1 - j]);
                    }
                    for (ii, lower) in tile.iter_mut().enumerate() {
                        let run = &mut lower[j0..j1.min(i0 + ii)];
                        for (v, col) in run.iter_mut().zip(&block) {
                            *v = col[ii];
                        }
                    }
                }
            }
        });
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Scales every element by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Whether `|aᵢⱼ - aⱼᵢ| <= tol` everywhere.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the sub-matrix of the given rows and columns.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (i, &r) in row_idx.iter().enumerate() {
            for (j, &c) in col_idx.iter().enumerate() {
                out[(i, j)] = self[(r, c)];
            }
        }
        out
    }

    /// Appends a column of ones on the left (bias/intercept column).
    pub fn with_bias_column(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            out[(r, 0)] = 1.0;
            out.row_mut(r)[1..].copy_from_slice(self.row(r));
        }
        out
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or
    /// [`LinalgError::NotPositiveDefinite`].
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::new(self)
    }

    /// Householder QR factorization.
    pub fn qr(&self) -> Qr {
        Qr::new(self)
    }

    /// Eigen-decomposition of a symmetric matrix by cyclic Jacobi sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::NoConvergence`].
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen, LinalgError> {
        SymmetricEigen::new(self)
    }

    /// Solves `A x = b` via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; see [`Matrix::lu`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Ok(self.lu()?.solve(b))
    }

    /// Inverse via LU.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; see [`Matrix::lu`].
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.lu().map(|lu| lu.inverse())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mat_mul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.mat_mul(&i), a);
        assert_eq!(i.mat_mul(&a), a);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mat_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.mat_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn vec_mat_is_transpose_mat_vec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 0.5], vec![3.0, 4.0, -1.0]]);
        let v = [2.0, -1.0];
        assert_eq!(a.vec_mat(&v), a.transpose().mat_vec(&v));
    }

    #[test]
    fn gram_is_symmetric_and_matches_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().mat_mul(&a);
        assert!(g.is_symmetric(0.0));
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x_true = [1.0, -2.0];
        let b = a.mat_vec(&x_true);
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.mat_mul(&inv);
        let i = Matrix::identity(2);
        assert!((&prod - &i).max_abs() < 1e-12);
    }

    #[test]
    fn select_extracts_submatrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]);
        let s = a.select(&[0, 2], &[1]);
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s[(0, 0)], 2.0);
        assert_eq!(s[(1, 0)], 8.0);
    }

    #[test]
    fn with_bias_column_prepends_ones() {
        let a = Matrix::from_rows(&[vec![5.0], vec![6.0]]);
        let b = a.with_bias_column();
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.row(0), &[1.0, 5.0]);
        assert_eq!(b.row(1), &[1.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mat_mul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.mat_mul(&b);
    }

    #[test]
    fn trace_and_norms() {
        let a = Matrix::from_rows(&[vec![3.0, -4.0], vec![0.0, 1.0]]);
        assert_eq!(a.trace(), 4.0);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.frobenius_norm() - (9.0_f64 + 16.0 + 1.0).sqrt()).abs() < 1e-15);
    }
}
