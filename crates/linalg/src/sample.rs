//! Gaussian sampling without external distribution crates.
//!
//! [`Normal`] is a Box–Muller standard-normal transformer with location
//! and scale; [`MultivariateNormal`] draws correlated vectors through a
//! Cholesky factor. These power every stochastic substrate in the
//! workspace — parametric test data, silicon delay variation, litho dose
//! and focus corners — so that the only random dependency is `rand`
//! itself.

use rand::Rng;
use serde::Serialize;

use crate::{LinalgError, Matrix};

/// A univariate normal distribution `N(mean, std²)` sampled with the
/// Box–Muller transform.
///
/// # Example
///
/// ```
/// use edm_linalg::Normal;
/// use rand::SeedableRng;
///
/// let n = Normal::new(10.0, 2.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let xs: Vec<f64> = (0..2000).map(|_| n.sample(&mut rng)).collect();
/// let mean = edm_linalg::mean(&xs);
/// assert!((mean - 10.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates `N(mean, std²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std < 0` or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite() && std.is_finite(), "normal parameters must be finite");
        assert!(std >= 0.0, "standard deviation must be non-negative, got {std}");
        Normal { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, std: 1.0 }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// One standard-normal draw via Box–Muller.
///
/// Uses the polar-free basic form; the log argument is guarded away from
/// zero so the result is always finite.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A multivariate normal `N(μ, Σ)` sampled as `μ + L z` with `Σ = L Lᵀ`.
///
/// # Example
///
/// ```
/// use edm_linalg::{Matrix, MultivariateNormal};
/// use rand::SeedableRng;
///
/// let cov = Matrix::from_rows(&[vec![1.0, 0.8], vec![0.8, 1.0]]);
/// let mvn = MultivariateNormal::new(vec![0.0, 0.0], &cov)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = mvn.sample(&mut rng);
/// assert_eq!(x.len(), 2);
/// # Ok::<(), edm_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    chol_l: Matrix,
}

impl MultivariateNormal {
    /// Creates `N(mean, cov)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `mean` and `cov`
    /// disagree, or a Cholesky error if `cov` is not positive definite
    /// (add a small diagonal jitter for semidefinite covariances).
    pub fn new(mean: Vec<f64>, cov: &Matrix) -> Result<Self, LinalgError> {
        if cov.rows() != mean.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: mean.len(),
                actual: cov.rows(),
            });
        }
        let chol = cov.cholesky()?;
        Ok(MultivariateNormal { mean, chol_l: chol.l().clone() })
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Distribution mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Draws one vector sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let d = self.dim();
        let z: Vec<f64> = (0..d).map(|_| standard_normal(rng)).collect();
        let mut x = self.mean.clone();
        for i in 0..d {
            for k in 0..=i {
                x[i] += self.chol_l[(i, k)] * z[k];
            }
        }
        x
    }

    /// Draws `n` samples as the rows of a matrix.
    pub fn sample_matrix<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n).map(|_| self.sample(rng)).collect();
        Matrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(crate::mean(&xs).abs() < 0.03);
        assert!((crate::variance(&xs) - 1.0).abs() < 0.05);
    }

    #[test]
    fn normal_location_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = Normal::new(-3.0, 0.5);
        let xs = n.sample_n(&mut rng, 20_000);
        assert!((crate::mean(&xs) + 3.0).abs() < 0.02);
        assert!((crate::variance(&xs).sqrt() - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_rejects_negative_std() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn mvn_reproduces_covariance() {
        let cov = Matrix::from_rows(&[vec![2.0, 1.2], vec![1.2, 1.0]]);
        let mvn = MultivariateNormal::new(vec![5.0, -5.0], &cov).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let x = mvn.sample_matrix(&mut rng, 30_000);
        let means = stats::column_means(&x);
        assert!((means[0] - 5.0).abs() < 0.05);
        assert!((means[1] + 5.0).abs() < 0.05);
        let c = stats::covariance(&x);
        assert!((c[(0, 0)] - 2.0).abs() < 0.1);
        assert!((c[(0, 1)] - 1.2).abs() < 0.1);
        assert!((c[(1, 1)] - 1.0).abs() < 0.05);
    }

    #[test]
    fn mvn_dimension_mismatch() {
        let cov = Matrix::identity(3);
        assert!(matches!(
            MultivariateNormal::new(vec![0.0; 2], &cov),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
