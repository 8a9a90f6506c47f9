//! Gaussian naive Bayes — the paper's fourth "basic idea" (§2.1):
//! `P(class|x) ∝ P(class)·P(x|class)` with the likelihood factorized
//! under the mutual-independence assumption, each factor a per-feature
//! normal estimated from the feature's column of the dataset.

use serde::Serialize;

use crate::{error::check_xy, LearnError};

#[derive(Debug, Clone, PartialEq, Serialize)]
struct ClassStats {
    label: i32,
    log_prior: f64,
    means: Vec<f64>,
    vars: Vec<f64>,
}

/// A trained Gaussian naive Bayes classifier.
///
/// # Example
///
/// ```
/// use edm_learn::nbayes::GaussianNb;
///
/// let x = vec![vec![0.0, 0.1], vec![0.2, 0.0], vec![5.0, 5.1], vec![5.2, 4.9]];
/// let y = vec![0, 0, 1, 1];
/// let m = GaussianNb::fit(&x, &y)?;
/// assert_eq!(m.predict(&[0.1, 0.1]), 0);
/// assert_eq!(m.predict(&[5.0, 5.0]), 1);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaussianNb {
    classes: Vec<ClassStats>,
    var_floor: f64,
}

impl GaussianNb {
    /// Fits per-class feature means/variances and class priors.
    ///
    /// Variances are floored at a small fraction of the largest feature
    /// variance so constant features do not produce infinite densities.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on inconsistent or empty input.
    pub fn fit(x: &[Vec<f64>], y: &[i32]) -> Result<Self, LearnError> {
        let d = check_xy(x, y.len())?;
        let n = x.len();
        let mut labels: Vec<i32> = y.to_vec();
        labels.sort_unstable();
        labels.dedup();
        // Global variance floor.
        let mut global_var = 0.0_f64;
        for j in 0..d {
            let col: Vec<f64> = x.iter().map(|r| r[j]).collect();
            global_var = global_var.max(edm_linalg::variance(&col));
        }
        let var_floor = (1e-9 * global_var).max(1e-12);

        let mut classes = Vec::with_capacity(labels.len());
        for &label in &labels {
            let members: Vec<&Vec<f64>> =
                x.iter().zip(y).filter(|&(_, &l)| l == label).map(|(r, _)| r).collect();
            let m = members.len() as f64;
            let mut means = vec![0.0; d];
            for r in &members {
                for (mu, &v) in means.iter_mut().zip(r.iter()) {
                    *mu += v;
                }
            }
            for mu in &mut means {
                *mu /= m;
            }
            let mut vars = vec![0.0; d];
            for r in &members {
                for ((s, &v), &mu) in vars.iter_mut().zip(r.iter()).zip(&means) {
                    *s += (v - mu) * (v - mu);
                }
            }
            for s in &mut vars {
                *s = (*s / m).max(var_floor);
            }
            classes.push(ClassStats { label, log_prior: (m / n as f64).ln(), means, vars });
        }
        Ok(GaussianNb { classes, var_floor })
    }

    /// Joint log-likelihood `log P(class) + Σⱼ log N(xⱼ; μ, σ²)` per
    /// class, in ascending label order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn log_joint(&self, x: &[f64]) -> Vec<(i32, f64)> {
        self.classes
            .iter()
            .map(|c| {
                assert_eq!(x.len(), c.means.len(), "feature count mismatch");
                let mut ll = c.log_prior;
                for ((&v, &mu), &var) in x.iter().zip(&c.means).zip(&c.vars) {
                    ll += -0.5
                        * ((v - mu) * (v - mu) / var
                            + var.ln()
                            + (2.0 * std::f64::consts::PI).ln());
                }
                (c.label, ll)
            })
            .collect()
    }

    /// Predicts the maximum-a-posteriori label.
    pub fn predict(&self, x: &[f64]) -> i32 {
        self.log_joint(x)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite log-likelihood"))
            .expect("at least one class")
            .0
    }

    /// Posterior probabilities per class (ascending label order),
    /// normalized with the log-sum-exp trick.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<(i32, f64)> {
        let joint = self.log_joint(x);
        let max = joint.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = joint.iter().map(|&(_, v)| (v - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        joint.iter().zip(&exps).map(|(&(l, _), &e)| (l, e / z)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_blobs() {
        let x = vec![
            vec![0.0, 0.0],
            vec![0.5, 0.2],
            vec![0.1, 0.4],
            vec![9.0, 9.0],
            vec![9.5, 8.8],
            vec![9.2, 9.3],
        ];
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = GaussianNb::fit(&x, &y).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi), yi);
        }
    }

    #[test]
    fn posterior_sums_to_one() {
        let x = vec![vec![0.0], vec![1.0], vec![4.0], vec![5.0]];
        let y = vec![0, 0, 1, 1];
        let m = GaussianNb::fit(&x, &y).unwrap();
        let p = m.predict_proba(&[2.5]);
        let total: f64 = p.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // midpoint is maximally uncertain
        assert!((p[0].1 - 0.5).abs() < 0.05);
    }

    #[test]
    fn prior_breaks_ties() {
        // Identical likelihoods; class 0 has 3x the prior.
        let x = vec![vec![0.0], vec![0.0], vec![0.0], vec![0.0]];
        let y = vec![0, 0, 0, 1];
        let m = GaussianNb::fit(&x, &y).unwrap();
        assert_eq!(m.predict(&[0.0]), 0);
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let x = vec![vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 10.0], vec![1.0, 11.0]];
        let y = vec![0, 0, 1, 1];
        let m = GaussianNb::fit(&x, &y).unwrap();
        assert_eq!(m.predict(&[1.0, 0.5]), 0);
        assert_eq!(m.predict(&[1.0, 10.5]), 1);
        assert!(m.log_joint(&[1.0, 0.5])[0].1.is_finite());
    }
}
