//! Gram-matrix construction and feature-space utilities.
//!
//! The Gram matrix `Kᵢⱼ = k(xᵢ, xⱼ)` is the only view of the data a
//! kernel learner sees (paper Fig. 4). These helpers build it for any
//! sample type, center it in feature space (needed by kernel PCA-style
//! analyses), and empirically check positive semidefiniteness of custom
//! kernels.

use std::borrow::Borrow;

use edm_linalg::{BlockSpec, Matrix};

use crate::Kernel;

/// Builds the symmetric Gram matrix `Kᵢⱼ = k(items[i], items[j])`.
///
/// `items` may hold any owned form of the kernel's sample type (e.g.
/// `Vec<f64>` for a `Kernel<[f64]>`). Only the upper triangle is
/// evaluated; symmetry is filled in, so a slightly asymmetric (buggy)
/// kernel is symmetrized rather than propagated.
///
/// The fill is cache-blocked: worker threads take *bands* of rows (not
/// single rows), and each band sweeps the upper triangle one
/// [`BlockSpec::col_tile`]-wide panel of samples at a time, so the
/// panel stays L1/L2-resident while every row of the band evaluates
/// against it. At industrial n the naive row loop streams the entire
/// sample set through cache once per row; the tiled walk streams it
/// once per *band*, which is what makes the build memory-lean enough
/// to scale. Each row of a tile is one [`Kernel::eval_many`] call
/// against the panel, and each entry is bitwise the single kernel
/// evaluation `k(items[i], items[j])` in every configuration, so
/// serial, parallel, and any tile shape give bitwise identical
/// results.
///
/// Emits `kernels.gram.tiles` and `kernels.gram.mirrored_cells`
/// counters when tracing is on.
pub fn gram_matrix<S, K, I>(kernel: &K, items: &[I]) -> Matrix
where
    S: ?Sized,
    K: Kernel<S> + ?Sized,
    I: Borrow<S> + Sync,
{
    let n = items.len();
    let mut g = Matrix::zeros(n, n);
    if n == 0 {
        return g;
    }
    let spec = BlockSpec::from_env();
    let (band_rows, tile) = (spec.band_rows, spec.col_tile);
    // Phase 1: bands of rows fill their upper-triangle cells tile by
    // tile. A band starting at row i0 only owns cells with j >= i, so
    // it can skip every column tile left of the one holding i0.
    edm_par::for_each_band(g.as_mut_slice(), n, band_rows, |b, band| {
        let i0 = b * band_rows;
        let mut j0 = i0 - i0 % tile;
        let mut panel = Vec::with_capacity(tile.min(n));
        while j0 < n {
            let jend = (j0 + tile).min(n);
            panel.clear();
            panel.extend(items[j0..jend].iter().map(Borrow::borrow));
            for (di, row) in band.chunks_mut(n).enumerate() {
                let i = i0 + di;
                // A band taller than a tile has rows whose diagonal
                // lies right of this panel: they own none of its cells.
                let lo = j0.max(i).min(jend);
                kernel.eval_many(items[i].borrow(), &panel[lo - j0..], &mut row[lo..jend]);
            }
            j0 = jend;
        }
    });
    if edm_trace::enabled() {
        // Tile count is a pure function of (n, spec): per band, the
        // panels from the diagonal one through the last.
        let panels = n.div_ceil(tile);
        let tiles: u64 = (0..n).step_by(band_rows).map(|i0| (panels - i0 / tile) as u64).sum();
        edm_trace::counter_add("kernels.gram.tiles", tiles);
        edm_trace::counter_add("kernels.gram.mirrored_cells", (n * (n - 1) / 2) as u64);
    }
    // Phase 2: mirror the triangle — tile-blocked copies, cheap next
    // to the kernel evaluations above.
    g.mirror_upper_to_lower();
    g
}

/// Evaluates one row of kernel values `k(x, items[i])` — what a trained
/// kernel model needs to score a new sample.
///
/// Long rows are split into chunks scored by worker threads, one
/// [`Kernel::eval_many`] call per chunk; each entry is bitwise the
/// single evaluation `k(x, items[i])`, so serial and parallel results
/// are bitwise identical.
pub fn gram_row<S, K, I>(kernel: &K, x: &S, items: &[I]) -> Vec<f64>
where
    S: Sync + ?Sized,
    K: Kernel<S> + ?Sized,
    I: Borrow<S> + Sync,
{
    let mut out = vec![0.0; items.len()];
    edm_par::for_each_chunk(&mut out, GRAM_ROW_CHUNK, |c, run| {
        let t0 = c * GRAM_ROW_CHUNK;
        let bs: Vec<&S> = items[t0..t0 + run.len()].iter().map(Borrow::borrow).collect();
        kernel.eval_many(x, &bs, run);
    });
    out
}

/// Columns per parallel chunk of a row: large enough that the
/// per-chunk dispatch cost is negligible next to the kernel
/// evaluations, small enough that the chunk's samples (512 × 32
/// features = 128 KiB) stay cache-resident.
const GRAM_ROW_CHUNK: usize = 512;

/// Centers a Gram matrix in feature space:
/// `K' = K − 1ₙK − K1ₙ + 1ₙK1ₙ` where `1ₙ` is the constant `1/n` matrix.
///
/// After centering, the implicit feature vectors have zero mean, which is
/// the precondition for kernel PCA and for interpreting kernel values as
/// covariances.
///
/// # Panics
///
/// Panics if `gram` is not square or not symmetric.
///
/// # Symmetry
///
/// A Gram matrix is symmetric by definition, and the centering formula
/// is only meaningful for symmetric input, so this asserts
/// `gram.is_symmetric(tol)` with a small roundoff allowance rather than
/// silently folding row means into column positions.
pub fn center_gram(gram: &Matrix) -> Matrix {
    assert!(gram.is_square(), "gram matrix must be square");
    let n = gram.rows();
    if n == 0 {
        return gram.clone();
    }
    let sym_tol = 1e-9 * gram.max_abs().max(1.0);
    assert!(
        gram.is_symmetric(sym_tol),
        "center_gram requires a symmetric matrix (tolerance {sym_tol:.3e})"
    );
    let nf = n as f64;
    // By symmetry the column means equal the row means.
    let row_means: Vec<f64> = (0..n).map(|i| gram.row(i).iter().sum::<f64>() / nf).collect();
    let grand = row_means.iter().sum::<f64>() / nf;
    // Single output allocation; the fill is row-parallel (each output
    // row depends only on the matching input row and the shared means).
    let mut out = gram.clone();
    edm_par::for_each_row(out.as_mut_slice(), n, |i, row| {
        let mi = row_means[i];
        for (v, mj) in row.iter_mut().zip(&row_means) {
            *v = *v - mi - mj + grand;
        }
    });
    out
}

/// Empirically checks positive semidefiniteness: all eigenvalues of the
/// symmetrized matrix are `>= -tol * max(|λ|)`.
///
/// Intended for validating hand-written kernels in tests; it is O(n³).
///
/// # Panics
///
/// Panics if `gram` is not square.
pub fn is_psd(gram: &Matrix, tol: f64) -> bool {
    assert!(gram.is_square(), "gram matrix must be square");
    if gram.rows() == 0 {
        return true;
    }
    // Symmetrize to guard against roundoff before the eigen solve.
    let sym = {
        let t = gram.transpose();
        (gram + &t).scaled(0.5)
    };
    match sym.symmetric_eigen() {
        Ok(e) => {
            let max_abs = e.eigenvalues().iter().fold(0.0_f64, |m, &v| m.max(v.abs())).max(1e-300);
            e.eigenvalues().iter().all(|&v| v >= -tol * max_abs)
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistogramIntersectionKernel, LinearKernel, RbfKernel, SpectrumKernel};

    fn cloud() -> Vec<Vec<f64>> {
        vec![vec![0.0, 0.1], vec![1.0, -0.5], vec![0.3, 2.0], vec![-1.0, 1.0], vec![0.7, 0.7]]
    }

    #[test]
    fn gram_is_symmetric_with_unit_diagonal_for_rbf() {
        let g = gram_matrix(&RbfKernel::new(0.5), &cloud());
        assert!(g.is_symmetric(0.0));
        for i in 0..g.rows() {
            assert_eq!(g[(i, i)], 1.0);
        }
    }

    #[test]
    fn standard_kernels_are_psd() {
        let items = cloud();
        assert!(is_psd(&gram_matrix(&LinearKernel::new(), &items), 1e-9));
        assert!(is_psd(&gram_matrix(&RbfKernel::new(1.3), &items), 1e-9));
        // HI kernel on non-negative inputs
        let hists = vec![
            vec![1.0, 2.0, 0.0],
            vec![0.5, 0.5, 3.0],
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ];
        assert!(is_psd(&gram_matrix(&HistogramIntersectionKernel::new(), &hists), 1e-9));
    }

    #[test]
    fn spectrum_gram_over_programs_is_psd() {
        let programs: Vec<Vec<u8>> =
            vec![vec![1, 2, 3, 4], vec![2, 3, 4, 1], vec![1, 1, 1, 1], vec![4, 3, 2, 1]];
        let g = gram_matrix(&SpectrumKernel::new(3), &programs);
        assert!(is_psd(&g, 1e-9));
    }

    #[test]
    fn non_psd_matrix_detected() {
        // [[0,1],[1,0]] has eigenvalues ±1.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(!is_psd(&m, 1e-9));
    }

    #[test]
    fn centering_zeroes_row_sums() {
        let g = gram_matrix(&LinearKernel::new(), &cloud());
        let c = center_gram(&g);
        for i in 0..c.rows() {
            let rs: f64 = c.row(i).iter().sum();
            assert!(rs.abs() < 1e-10, "row {i} sum {rs}");
        }
        // centering preserves PSD
        assert!(is_psd(&c, 1e-9));
    }

    #[test]
    fn gram_row_matches_matrix_row() {
        let items = cloud();
        let k = RbfKernel::new(0.8);
        let g = gram_matrix(&k, &items);
        let row = gram_row(&k, &items[2], &items);
        for (a, b) in row.iter().zip(g.row(2)) {
            assert!((a - b).abs() < 1e-15);
        }
    }
}
