//! Linear and quadratic discriminant analysis — the paper's third
//! "basic idea" (§2.1): estimate each class as a multivariate normal
//! `N(μ_c, Σ_c)` and decide by the log-density ratio, the paper's Eq. 1:
//!
//! ```text
//! D(x) = log [ P(x | N(μ₁, Σ₁)) / P(x | N(μ₂, Σ₂)) ]
//! ```
//!
//! LDA pools one covariance across classes (linear boundary); QDA keeps a
//! covariance per class (quadratic boundary).

use edm_linalg::{Cholesky, Matrix};
use serde::Serialize;

use crate::{error::check_xy, LearnError};

#[derive(Debug, Clone, Serialize)]
struct ClassDensity {
    label: i32,
    log_prior: f64,
    mean: Vec<f64>,
    /// Cholesky factor of this class's covariance (shared for LDA).
    chol: Cholesky,
    log_det: f64,
}

/// Which covariance structure to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Covariance {
    /// One pooled covariance for all classes (LDA, linear boundaries).
    Pooled,
    /// A covariance per class (QDA, quadratic boundaries).
    PerClass,
}

/// A trained discriminant-analysis classifier (LDA or QDA).
///
/// # Example
///
/// ```
/// use edm_learn::discriminant::{Covariance, DiscriminantAnalysis};
///
/// let x = vec![vec![0.0, 0.0], vec![0.4, 0.3], vec![3.0, 3.0], vec![3.3, 2.8]];
/// let y = vec![0, 0, 1, 1];
/// let m = DiscriminantAnalysis::fit(&x, &y, Covariance::Pooled)?;
/// assert_eq!(m.predict(&[0.2, 0.2]), 0);
/// assert_eq!(m.predict(&[3.1, 3.1]), 1);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct DiscriminantAnalysis {
    classes: Vec<ClassDensity>,
    covariance: Covariance,
}

impl DiscriminantAnalysis {
    /// Fits class densities.
    ///
    /// Covariances get a small diagonal ridge (scaled to the data) so
    /// near-degenerate classes stay factorizable.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on inconsistent input or fewer than
    /// two classes; [`LearnError::Numeric`] if a covariance cannot be
    /// factorized even with the ridge.
    pub fn fit(x: &[Vec<f64>], y: &[i32], covariance: Covariance) -> Result<Self, LearnError> {
        let d = check_xy(x, y.len())?;
        let n = x.len();
        let mut labels: Vec<i32> = y.to_vec();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() < 2 {
            return Err(LearnError::InvalidInput(
                "discriminant analysis requires at least two classes".into(),
            ));
        }

        // Per-class means and scatter matrices.
        let mut stats = Vec::new();
        for &label in &labels {
            let rows: Vec<&Vec<f64>> =
                x.iter().zip(y).filter(|&(_, &l)| l == label).map(|(r, _)| r).collect();
            let m = rows.len();
            let mut mean = vec![0.0; d];
            for r in &rows {
                for (mu, &v) in mean.iter_mut().zip(r.iter()) {
                    *mu += v;
                }
            }
            for mu in &mut mean {
                *mu /= m as f64;
            }
            let mut scatter = Matrix::zeros(d, d);
            for r in &rows {
                let dev: Vec<f64> = r.iter().zip(&mean).map(|(&v, &mu)| v - mu).collect();
                for a in 0..d {
                    if dev[a] == 0.0 {
                        continue;
                    }
                    for b in a..d {
                        scatter[(a, b)] += dev[a] * dev[b];
                    }
                }
            }
            for a in 0..d {
                for b in 0..a {
                    scatter[(a, b)] = scatter[(b, a)];
                }
            }
            stats.push((label, m, mean, scatter));
        }

        let ridge_scale = {
            let mut max_diag = 0.0_f64;
            for (_, m, _, scatter) in &stats {
                for i in 0..d {
                    max_diag = max_diag.max(scatter[(i, i)] / (*m as f64));
                }
            }
            (1e-8 * max_diag).max(1e-10)
        };

        let factor = |cov: &Matrix| -> Result<(Cholesky, f64), LearnError> {
            let mut c = cov.clone();
            for i in 0..d {
                c[(i, i)] += ridge_scale;
            }
            let chol = c.cholesky().map_err(LearnError::from)?;
            let log_det = chol.log_det();
            Ok((chol, log_det))
        };

        let mut classes = Vec::new();
        match covariance {
            Covariance::Pooled => {
                let mut pooled = Matrix::zeros(d, d);
                for (_, _, _, scatter) in &stats {
                    pooled = &pooled + scatter;
                }
                let denom = (n - labels.len()).max(1) as f64;
                pooled = pooled.scaled(1.0 / denom);
                let (chol, log_det) = factor(&pooled)?;
                for (label, m, mean, _) in stats {
                    classes.push(ClassDensity {
                        label,
                        log_prior: (m as f64 / n as f64).ln(),
                        mean,
                        chol: chol.clone(),
                        log_det,
                    });
                }
            }
            Covariance::PerClass => {
                for (label, m, mean, scatter) in stats {
                    let cov = scatter.scaled(1.0 / (m.max(2) - 1) as f64);
                    let (chol, log_det) = factor(&cov)?;
                    classes.push(ClassDensity {
                        label,
                        log_prior: (m as f64 / n as f64).ln(),
                        mean,
                        chol,
                        log_det,
                    });
                }
            }
        }
        Ok(DiscriminantAnalysis { classes, covariance })
    }

    /// The covariance structure used at fit time.
    pub fn covariance(&self) -> Covariance {
        self.covariance
    }

    /// Log posterior (up to a shared constant) per class, ascending by
    /// label: `log P(class) − ½ log|Σ| − ½ (x−μ)ᵀ Σ⁻¹ (x−μ)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn scores(&self, x: &[f64]) -> Vec<(i32, f64)> {
        self.classes
            .iter()
            .map(|c| {
                assert_eq!(x.len(), c.mean.len(), "feature count mismatch");
                let dev: Vec<f64> = x.iter().zip(&c.mean).map(|(&v, &mu)| v - mu).collect();
                // Mahalanobis via Cholesky: ‖L⁻¹ dev‖².
                let z = c.chol.solve_lower(&dev);
                let maha: f64 = z.iter().map(|v| v * v).sum();
                (c.label, c.log_prior - 0.5 * c.log_det - 0.5 * maha)
            })
            .collect()
    }

    /// The paper's Eq. 1 for a binary problem: the log-density ratio of
    /// the two classes (positive favors the *smaller* label, listed
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if the model has more than two classes.
    pub fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(self.classes.len(), 2, "Eq. 1 decision is binary-only");
        let s = self.scores(x);
        s[0].1 - s[1].1
    }

    /// Predicts the maximum-score label.
    pub fn predict(&self, x: &[f64]) -> i32 {
        self.scores(x)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
            .expect("at least one class")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f64>>, Vec<i32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            let t = (i % 4) as f64 * 0.2;
            let u = (i / 4) as f64 * 0.2;
            x.push(vec![t, u]);
            y.push(0);
            x.push(vec![t + 4.0, u + 4.0]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn lda_separates_blobs() {
        let (x, y) = blobs();
        let m = DiscriminantAnalysis::fit(&x, &y, Covariance::Pooled).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi), yi);
        }
    }

    #[test]
    fn qda_handles_unequal_spreads() {
        // Class 0 tight at origin, class 1 wide around it: QDA assigns a
        // distant point to the wide class even though means coincide-ish.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let a = i as f64 * std::f64::consts::TAU / 12.0;
            x.push(vec![0.1 * a.cos(), 0.1 * a.sin()]);
            y.push(0);
            x.push(vec![5.0 * a.cos(), 5.0 * a.sin()]);
            y.push(1);
        }
        let m = DiscriminantAnalysis::fit(&x, &y, Covariance::PerClass).unwrap();
        assert_eq!(m.predict(&[0.0, 0.05]), 0);
        assert_eq!(m.predict(&[4.0, 0.0]), 1);
    }

    #[test]
    fn equation1_sign_flips_across_boundary() {
        let (x, y) = blobs();
        let m = DiscriminantAnalysis::fit(&x, &y, Covariance::Pooled).unwrap();
        assert!(m.decision(&[0.0, 0.0]) > 0.0); // favors class 0
        assert!(m.decision(&[4.0, 4.0]) < 0.0); // favors class 1
    }

    #[test]
    fn single_class_rejected() {
        assert!(matches!(
            DiscriminantAnalysis::fit(&[vec![0.0], vec![1.0]], &[3, 3], Covariance::Pooled),
            Err(LearnError::InvalidInput(_))
        ));
    }

    #[test]
    fn lda_boundary_is_linear_qda_is_not_constrained() {
        // For pooled covariance the decision function is linear in x:
        // check additivity on a line.
        let (x, y) = blobs();
        let m = DiscriminantAnalysis::fit(&x, &y, Covariance::Pooled).unwrap();
        let f = |p: &[f64]| m.decision(p);
        let a = f(&[0.0, 0.0]);
        let b = f(&[1.0, 1.0]);
        let mid = f(&[0.5, 0.5]);
        assert!((mid - 0.5 * (a + b)).abs() < 1e-9);
    }
}
