use edm_kernels::{Kernel, RbfKernel};
use serde::{Deserialize, Serialize};

use crate::error::check_positive;
use crate::qmatrix::{CachedQ, SvrQ, DEFAULT_CACHE_BYTES};
use crate::solver::{solve, DualProblem, SolverOptions, WorkingSet};
use crate::{SvmError, SvrModel};

/// Hyperparameters for ε-SVR training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Box constraint `C`.
    pub c: f64,
    /// Width of the ε-insensitive tube: residuals smaller than `epsilon`
    /// cost nothing.
    pub epsilon: f64,
    /// KKT stopping tolerance.
    pub tol: f64,
    /// SMO iteration cap.
    pub max_iter: usize,
    /// Byte budget of the Q-row cache used during training
    /// ([`DEFAULT_CACHE_BYTES`] by default; `0` disables caching).
    pub cache_bytes: usize,
    /// SMO shrinking heuristic (on by default; `false` reproduces the
    /// unshrunk solver).
    pub shrinking: bool,
    /// SMO working-set selection rule (second order by default).
    pub working_set: WorkingSet,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            c: 1.0,
            epsilon: 0.1,
            tol: 1e-3,
            max_iter: 200_000,
            cache_bytes: DEFAULT_CACHE_BYTES,
            shrinking: true,
            working_set: WorkingSet::SecondOrder,
        }
    }
}

impl SvrParams {
    /// Sets the box constraint `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the tube width ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the Q-row cache byte budget (`0` disables caching).
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Enables or disables the SMO shrinking heuristic.
    pub fn with_shrinking(mut self, shrinking: bool) -> Self {
        self.shrinking = shrinking;
        self
    }

    /// Sets the SMO working-set selection rule.
    pub fn with_working_set(mut self, working_set: WorkingSet) -> Self {
        self.working_set = working_set;
        self
    }

    pub(crate) fn solver_opts(&self) -> SolverOptions {
        SolverOptions {
            working_set: self.working_set,
            shrinking: self.shrinking,
            shrink_interval: 0,
        }
    }

    fn validate(&self) -> Result<(), SvmError> {
        check_positive("c", self.c)?;
        if !(self.epsilon >= 0.0) {
            return Err(SvmError::InvalidParameter {
                name: "epsilon",
                value: self.epsilon,
                constraint: "must be non-negative",
            });
        }
        check_positive("tol", self.tol)
    }
}

/// ε-SVR trainer, generic over the kernel.
///
/// One of the five regressor families the paper's ref \[20\] compared for
/// chip Fmax prediction (alongside nearest-neighbor, LSF, regularized
/// LSF, and Gaussian processes — see `edm-learn`).
///
/// # Example
///
/// ```
/// use edm_kernels::LinearKernel;
/// use edm_svm::{SvrParams, SvrTrainer};
///
/// // y = 2x
/// let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1]).collect();
/// let y: Vec<f64> = x.iter().map(|v| 2.0 * v[0]).collect();
/// let m = SvrTrainer::new(SvrParams::default().with_c(100.0).with_epsilon(0.01))
///     .kernel(LinearKernel::new())
///     .fit(&x, &y)?;
/// assert!((m.predict(&[0.75]) - 1.5).abs() < 0.05);
/// # Ok::<(), edm_svm::SvmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SvrTrainer<K = RbfKernel> {
    params: SvrParams,
    kernel: K,
}

impl SvrTrainer<RbfKernel> {
    /// Creates a trainer with the default RBF kernel (γ = 1).
    pub fn new(params: SvrParams) -> Self {
        SvrTrainer { params, kernel: RbfKernel::new(1.0) }
    }
}

impl<K> SvrTrainer<K> {
    /// Replaces the kernel (builder-style).
    pub fn kernel<K2: Kernel<[f64]>>(self, kernel: K2) -> SvrTrainer<K2> {
        SvrTrainer { params: self.params, kernel }
    }

    /// The training hyperparameters.
    pub fn params(&self) -> &SvrParams {
        &self.params
    }
}

impl<K: Kernel<[f64]> + Clone> SvrTrainer<K> {
    /// Trains on vector samples with continuous targets.
    ///
    /// # Errors
    ///
    /// [`SvmError::InvalidInput`] on empty/ragged/mismatched input;
    /// [`SvmError::NoConvergence`] if the SMO cap is hit.
    pub fn fit(&self, x: &[Vec<f64>], y: &[f64]) -> Result<SvrModel<K>, SvmError> {
        let _span = edm_trace::span("svm.svr.fit");
        self.params.validate()?;
        if x.is_empty() {
            return Err(SvmError::InvalidInput("empty training set".into()));
        }
        if x.len() != y.len() {
            return Err(SvmError::InvalidInput(format!(
                "{} samples but {} targets",
                x.len(),
                y.len()
            )));
        }
        let d = x[0].len();
        if x.iter().any(|r| r.len() != d) {
            return Err(SvmError::InvalidInput("ragged sample rows".into()));
        }
        let m = x.len();

        // LIBSVM 2m-variable formulation: variables 0..m are α (sign +1),
        // m..2m are α* (sign −1); Q_ij = s_i s_j K(base_i, base_j). The
        // block structure lives in SvrQ, which computes each kernel row
        // on demand behind the LRU cache — the Gram matrix is never
        // materialized.
        let sign = |t: usize| if t < m { 1.0 } else { -1.0 };
        let mut q =
            CachedQ::new(SvrQ::<[f64], _, _>::new(&self.kernel, x), self.params.cache_bytes);
        let mut p = Vec::with_capacity(2 * m);
        for &yi in y {
            p.push(self.params.epsilon - yi);
        }
        for &yi in y {
            p.push(self.params.epsilon + yi);
        }
        let problem = DualProblem {
            p,
            y: (0..2 * m).map(sign).collect(),
            c: vec![self.params.c; 2 * m],
            alpha0: vec![0.0; 2 * m],
            tol: self.params.tol,
            max_iter: self.params.max_iter,
            opts: self.params.solver_opts(),
        };
        let sol = solve(&mut q, &problem)?;
        // β_i = α_i − α*_i; keep nonzero coefficients.
        let beta = (0..m).map(|i| sol.alpha[i] - sol.alpha[i + m]);
        Ok(SvrModel::from_dual(self.kernel.clone(), x, beta, sol.rho, sol.iterations, q.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_kernels::LinearKernel;

    #[test]
    fn fits_linear_function() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v[0] - 1.0).collect();
        let m = SvrTrainer::new(SvrParams::default().with_c(1000.0).with_epsilon(0.01))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        for probe in [0.0, 1.0, 2.5] {
            assert!(
                (m.predict(&[probe]) - (3.0 * probe - 1.0)).abs() < 0.1,
                "probe {probe}: got {}",
                m.predict(&[probe])
            );
        }
    }

    #[test]
    fn fits_nonlinear_function_with_rbf() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0]).sin()).collect();
        let m = SvrTrainer::new(SvrParams::default().with_c(100.0).with_epsilon(0.01))
            .kernel(RbfKernel::new(1.0))
            .fit(&x, &y)
            .unwrap();
        for probe in [0.5, 2.0, 4.5] {
            assert!(
                (m.predict(&[probe]) - probe.sin()).abs() < 0.1,
                "probe {probe}: got {} want {}",
                m.predict(&[probe]),
                probe.sin()
            );
        }
    }

    #[test]
    fn epsilon_tube_sparsifies() {
        // With a wide tube, points inside it need no support vectors.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.05 * v[0]).collect();
        let narrow = SvrTrainer::new(SvrParams::default().with_c(10.0).with_epsilon(0.001))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        let wide = SvrTrainer::new(SvrParams::default().with_c(10.0).with_epsilon(1.0))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        // y spans [0, 0.145]: a tube of ±1 swallows the whole signal.
        assert_eq!(wide.n_support(), 0);
        assert!(narrow.n_support() > 0);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let t = SvrTrainer::new(SvrParams::default().with_epsilon(-0.5));
        assert!(matches!(
            t.fit(&[vec![0.0]], &[0.0]),
            Err(SvmError::InvalidParameter { name: "epsilon", .. })
        ));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 10];
        let m = SvrTrainer::new(SvrParams::default().with_epsilon(0.01))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        assert!((m.predict(&[4.5]) - 5.0).abs() < 0.1);
    }
}
