use edm_linalg::Matrix;
use rand::Rng;
use serde::Serialize;

use crate::{TransformError, Whitener};

/// Parameters for FastICA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IcaParams {
    /// Independent components to extract.
    pub n_components: usize,
    /// Fixed-point iteration cap.
    pub max_iter: usize,
    /// Convergence tolerance on the rotation update.
    pub tol: f64,
}

impl Default for IcaParams {
    fn default() -> Self {
        IcaParams { n_components: 2, max_iter: 300, tol: 1e-6 }
    }
}

/// FastICA with the `tanh` (log-cosh) contrast and symmetric
/// decorrelation.
///
/// Recovers statistically independent sources from linear mixtures — the
/// paper's ref \[23\], applied to IDDQ defect screening in ref \[25\]:
/// a defect current is independent of the (shared) functional currents,
/// so it surfaces as its own component.
///
/// # Example
///
/// ```
/// use edm_transform::{FastIca, IcaParams};
/// use rand::SeedableRng;
///
/// // Mix two independent non-Gaussian sources.
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sources: Vec<(f64, f64)> = (0..500)
///     .map(|i| (((i * 7) % 13) as f64 - 6.0, (((i * 11) % 17) as f64 - 8.0) * 0.5))
///     .collect();
/// let x: Vec<Vec<f64>> = sources
///     .iter()
///     .map(|&(s1, s2)| vec![0.7 * s1 + 0.3 * s2, 0.4 * s1 - 0.6 * s2])
///     .collect();
/// let ica = FastIca::fit(&x, IcaParams::default(), &mut rng)?;
/// assert_eq!(ica.transform(&x[0]).len(), 2);
/// # Ok::<(), edm_transform::TransformError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct FastIca {
    whitener: Whitener,
    /// Unmixing rotation in whitened space (`n_components` rows).
    w: Matrix,
    iterations: usize,
}

impl FastIca {
    /// Fits the unmixing matrix.
    ///
    /// # Errors
    ///
    /// [`TransformError::InvalidParameter`] if `n_components` exceeds the
    /// whitened dimension; propagates whitening errors.
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        params: IcaParams,
        rng: &mut R,
    ) -> Result<Self, TransformError> {
        let whitener = Whitener::fit(x, 1e-12)?;
        let dim = whitener.n_components();
        let c = params.n_components;
        if c == 0 || c > dim {
            return Err(TransformError::InvalidParameter {
                name: "n_components",
                value: c as f64,
                constraint: "must be in 1..=whitened dimension",
            });
        }
        let z = whitener.transform_batch(x);
        let n = z.len() as f64;

        // Random init, then symmetric-decorrelation fixed point.
        let mut w = Matrix::zeros(c, dim);
        for r in 0..c {
            let v: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            w.row_mut(r).copy_from_slice(&edm_linalg::normalize(&v));
        }
        w = symmetric_decorrelate(&w)?;
        let mut iterations = 0;
        for _ in 0..params.max_iter {
            iterations += 1;
            let mut w_new = Matrix::zeros(c, dim);
            for r in 0..c {
                let wr = w.row(r).to_vec();
                // w+ = E[z·g(wᵀz)] − E[g'(wᵀz)]·w, g = tanh.
                let mut ez_g = vec![0.0; dim];
                let mut eg_prime = 0.0;
                for zi in &z {
                    let u = edm_linalg::dot(&wr, zi);
                    let g = u.tanh();
                    let gp = 1.0 - g * g;
                    eg_prime += gp;
                    for (acc, &zv) in ez_g.iter_mut().zip(zi) {
                        *acc += zv * g;
                    }
                }
                for ((out, &acc), &wv) in w_new.row_mut(r).iter_mut().zip(&ez_g).zip(&wr) {
                    *out = acc / n - (eg_prime / n) * wv;
                }
            }
            let w_next = symmetric_decorrelate(&w_new)?;
            // Convergence: |diag(W_next Wᵀ)| all ≈ 1.
            let overlap = w_next.mat_mul(&w.transpose());
            let delta = (0..c).map(|i| (overlap[(i, i)].abs() - 1.0).abs()).fold(0.0_f64, f64::max);
            w = w_next;
            if delta < params.tol {
                break;
            }
        }
        Ok(FastIca { whitener, w, iterations })
    }

    /// Number of independent components.
    pub fn n_components(&self) -> usize {
        self.w.rows()
    }

    /// Fixed-point iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Maps a sample to its independent-component coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        self.w.mat_vec(&self.whitener.transform(x))
    }

    /// Maps a batch.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

/// `W ← (W Wᵀ)^(−1/2) W` via the eigen-decomposition of `W Wᵀ`.
fn symmetric_decorrelate(w: &Matrix) -> Result<Matrix, TransformError> {
    let wwt = w.mat_mul(&w.transpose());
    let eig = wwt.symmetric_eigen().map_err(TransformError::from)?;
    let c = w.rows();
    let mut inv_sqrt = Matrix::zeros(c, c);
    for i in 0..c {
        let lam = eig.eigenvalues()[i].max(1e-12);
        let s = 1.0 / lam.sqrt();
        for a in 0..c {
            for b in 0..c {
                inv_sqrt[(a, b)] += s * eig.eigenvectors()[(a, i)] * eig.eigenvectors()[(b, i)];
            }
        }
    }
    Ok(inv_sqrt.mat_mul(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two independent uniform sources, linearly mixed.
    fn mixed(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<(f64, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut s = Vec::with_capacity(n);
        for _ in 0..n {
            let s1: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let s2: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            s.push((s1, s2));
            x.push(vec![0.6 * s1 + 0.4 * s2, 0.45 * s1 - 0.55 * s2]);
        }
        (x, s)
    }

    #[test]
    fn recovers_independent_sources_up_to_permutation_and_sign() {
        let (x, s) = mixed(4000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let ica = FastIca::fit(&x, IcaParams::default(), &mut rng).unwrap();
        let y = ica.transform_batch(&x);
        let s1: Vec<f64> = s.iter().map(|&(a, _)| a).collect();
        let s2: Vec<f64> = s.iter().map(|&(_, b)| b).collect();
        let y1: Vec<f64> = y.iter().map(|r| r[0]).collect();
        let y2: Vec<f64> = y.iter().map(|r| r[1]).collect();
        // Each recovered component correlates strongly with exactly one
        // source (up to sign/permutation).
        let c = |a: &[f64], b: &[f64]| edm_linalg::stats::pearson(a, b).abs();
        let m11 = c(&y1, &s1);
        let m12 = c(&y1, &s2);
        let m21 = c(&y2, &s1);
        let m22 = c(&y2, &s2);
        let direct = m11.min(m22);
        let swapped = m12.min(m21);
        assert!(
            direct > 0.95 || swapped > 0.95,
            "poor separation: [{m11:.2} {m12:.2}; {m21:.2} {m22:.2}]"
        );
    }

    #[test]
    fn unmixing_rows_are_orthonormal_in_whitened_space() {
        let (x, _) = mixed(1000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let ica = FastIca::fit(&x, IcaParams::default(), &mut rng).unwrap();
        let wwt = ica.w.mat_mul(&ica.w.transpose());
        assert!((&wwt - &Matrix::identity(2)).max_abs() < 1e-6);
    }

    #[test]
    fn too_many_components_rejected() {
        let (x, _) = mixed(100, 5);
        let mut rng = StdRng::seed_from_u64(6);
        assert!(FastIca::fit(&x, IcaParams { n_components: 5, ..Default::default() }, &mut rng)
            .is_err());
    }
}
