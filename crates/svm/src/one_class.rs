use edm_kernels::{Kernel, RbfKernel};
use edm_linalg::Matrix;
use serde::Serialize;

use crate::error::check_positive;
use crate::qmatrix::{CachedQ, DenseQ, KernelQ, QMatrix, DEFAULT_CACHE_BYTES};
use crate::solver::{solve, DualProblem, SolverOptions, WorkingSet};
use crate::{OneClassModel, SvmError};

/// Hyperparameters for ν one-class SVM training (Schölkopf et al.).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OneClassParams {
    /// `ν ∈ (0, 1]`: an upper bound on the fraction of training samples
    /// treated as outliers and a lower bound on the fraction of support
    /// vectors.
    pub nu: f64,
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

impl Default for OneClassParams {
    fn default() -> Self {
        OneClassParams {
            nu: 0.1,
            tol: 1e-4,
            max_iter: 100_000,
            cache_bytes: DEFAULT_CACHE_BYTES,
            shrinking: true,
            working_set: WorkingSet::SecondOrder,
        }
    }
}

impl OneClassParams {
    /// Sets ν.
    pub fn with_nu(mut self, nu: f64) -> Self {
        self.nu = nu;
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
        if !(self.nu > 0.0 && self.nu <= 1.0) {
            return Err(SvmError::InvalidParameter {
                name: "nu",
                value: self.nu,
                constraint: "must be in (0, 1]",
            });
        }
        check_positive("tol", self.tol)
    }
}

/// ν one-class SVM trainer — the paper's novelty-detection workhorse.
///
/// Learns the support of the training distribution; new samples scoring
/// negative are *novel*. Used by the novel-test-selection flow (Fig. 7)
/// over a spectrum kernel on assembly programs, and by the layout
/// variability study (Fig. 9) alongside binary SVC.
///
/// # Example
///
/// ```
/// use edm_kernels::RbfKernel;
/// use edm_svm::{OneClassParams, OneClassSvm};
///
/// // A tight cluster near the origin...
/// let x: Vec<Vec<f64>> = (0..20)
///     .map(|i| vec![(i % 5) as f64 * 0.05, (i / 5) as f64 * 0.05])
///     .collect();
/// let m = OneClassSvm::new(OneClassParams::default().with_nu(0.2))
///     .kernel(RbfKernel::new(1.0))
///     .fit(&x)?;
/// // ...flags a far-away point as novel.
/// assert!(m.is_novel(&[5.0, 5.0]));
/// assert!(!m.is_novel(&[0.1, 0.1]));
/// # Ok::<(), edm_svm::SvmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OneClassSvm<K = RbfKernel> {
    params: OneClassParams,
    kernel: K,
}

impl OneClassSvm<RbfKernel> {
    /// Creates a trainer with the default RBF kernel (γ = 1).
    pub fn new(params: OneClassParams) -> Self {
        OneClassSvm { params, kernel: RbfKernel::new(1.0) }
    }
}

impl<K> OneClassSvm<K> {
    /// Replaces the kernel (builder-style).
    pub fn kernel<K2>(self, kernel: K2) -> OneClassSvm<K2> {
        OneClassSvm { params: self.params, kernel }
    }

    /// The training hyperparameters.
    pub fn params(&self) -> &OneClassParams {
        &self.params
    }
}

impl<K: Kernel<[f64]> + Clone> OneClassSvm<K> {
    /// Trains on unlabeled vector samples.
    ///
    /// # Errors
    ///
    /// [`SvmError::InvalidInput`] on empty or ragged input, invalid ν, or
    /// SMO non-convergence.
    pub fn fit(&self, x: &[Vec<f64>]) -> Result<OneClassModel<K>, SvmError> {
        let _span = edm_trace::span("svm.one_class.fit");
        if x.is_empty() {
            return Err(SvmError::InvalidInput("empty training set".into()));
        }
        let d = x[0].len();
        if x.iter().any(|r| r.len() != d) {
            return Err(SvmError::InvalidInput("ragged sample rows".into()));
        }
        self.params.validate()?;
        // One-class Q is the kernel matrix itself; rows are computed on
        // demand behind the LRU cache, never materializing the Gram.
        let source = KernelQ::<[f64], _, _>::new(&self.kernel, x, None);
        let mut q = CachedQ::new(source, self.params.cache_bytes);
        let (alpha, rho, iterations) = solve_one_class_q(&mut q, x.len(), &self.params)?;
        Ok(OneClassModel::from_dual(self.kernel.clone(), x, alpha, rho, iterations, q.stats()))
    }
}

/// Solves the one-class dual over a precomputed Gram matrix; returns
/// `(alpha, rho, iterations)`.
///
/// The kernel-only entry point for non-vector samples (assembly
/// programs, layout clips): callers score a new sample `x` as
/// `Σᵢ αᵢ k(x, xᵢ) − ρ` using [`edm_kernels::gram_row`], negative =
/// novel. This is how the Fig. 7 flow in `edm-core` consumes it.
///
/// # Errors
///
/// [`SvmError::InvalidInput`] if `gram` is empty or not square, or an
/// invalid ν / non-convergence error.
pub fn solve_one_class(
    gram: &Matrix,
    params: &OneClassParams,
) -> Result<(Vec<f64>, f64, usize), SvmError> {
    params.validate()?;
    let n = gram.rows();
    if n == 0 || !gram.is_square() {
        return Err(SvmError::InvalidInput(format!(
            "gram must be square and non-empty, got {}x{}",
            gram.rows(),
            gram.cols()
        )));
    }
    // Q = K exactly, so rows are borrowed zero-copy from the caller's
    // matrix — no cache needed (shrinking swaps switch the view to
    // gathered rows without copying the matrix).
    let mut q = DenseQ::new(gram, None);
    solve_one_class_q(&mut q, n, params)
}

/// Shared one-class dual assembly over any [`QMatrix`] (`Q = K`).
fn solve_one_class_q(
    q: &mut dyn QMatrix,
    n: usize,
    params: &OneClassParams,
) -> Result<(Vec<f64>, f64, usize), SvmError> {
    // Feasible start: Σα = νn with 0 ≤ α ≤ 1 (LIBSVM's initialization).
    let total = params.nu * n as f64;
    let full = total.floor() as usize;
    let mut alpha0 = vec![0.0; n];
    for a in alpha0.iter_mut().take(full.min(n)) {
        *a = 1.0;
    }
    if full < n {
        alpha0[full] = total - full as f64;
    }
    let problem = DualProblem {
        p: vec![0.0; n],
        y: vec![1.0; n],
        c: vec![1.0; n],
        alpha0,
        tol: params.tol,
        max_iter: params.max_iter,
        opts: params.solver_opts(),
    };
    let sol = solve(q, &problem)?;
    Ok((sol.alpha, sol.rho, sol.iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_kernels::{gram_matrix, gram_row};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cluster(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| vec![rng.gen::<f64>() * 0.4, rng.gen::<f64>() * 0.4]).collect()
    }

    #[test]
    fn far_points_are_novel_near_points_are_not() {
        let x = cluster(60, 1);
        let m = OneClassSvm::new(OneClassParams::default().with_nu(0.1))
            .kernel(RbfKernel::new(2.0))
            .fit(&x)
            .unwrap();
        assert!(m.is_novel(&[3.0, 3.0]));
        assert!(m.is_novel(&[-2.0, 0.2]));
        assert!(!m.is_novel(&[0.2, 0.2]));
    }

    #[test]
    fn nu_bounds_training_outlier_fraction() {
        // ν upper-bounds the fraction of training samples scored novel.
        let x = cluster(100, 2);
        for nu in [0.05, 0.2, 0.5] {
            let m = OneClassSvm::new(OneClassParams::default().with_nu(nu))
                .kernel(RbfKernel::new(1.0))
                .fit(&x)
                .unwrap();
            let outliers = x.iter().filter(|p| m.decision_function(p) < -1e-9).count();
            let frac = outliers as f64 / x.len() as f64;
            assert!(frac <= nu + 0.05, "nu = {nu}: training outlier fraction {frac} exceeds bound");
        }
    }

    #[test]
    fn nu_controls_support_vector_count() {
        let x = cluster(100, 3);
        let m = OneClassSvm::new(OneClassParams::default().with_nu(0.5))
            .kernel(RbfKernel::new(1.0))
            .fit(&x)
            .unwrap();
        // ν lower-bounds the SV fraction.
        assert!(m.n_support() as f64 >= 0.5 * x.len() as f64 - 1.0);
    }

    #[test]
    fn invalid_nu_rejected() {
        let t = OneClassSvm::new(OneClassParams::default().with_nu(0.0));
        assert!(matches!(t.fit(&[vec![0.0]]), Err(SvmError::InvalidParameter { name: "nu", .. })));
        let t = OneClassSvm::new(OneClassParams::default().with_nu(1.5));
        assert!(matches!(t.fit(&[vec![0.0]]), Err(SvmError::InvalidParameter { name: "nu", .. })));
    }

    #[test]
    fn gram_only_path_scores_like_model() {
        let k = RbfKernel::new(1.5);
        let params = OneClassParams::default().with_nu(0.15);
        // The original cluster plus seeded clusters of n = 30..80.
        let sizes = [40, 30, 37, 44, 51, 58, 65, 72, 79];
        for (seed, &n) in (4u64..).zip(&sizes) {
            let x = cluster(n, seed);
            let model = OneClassSvm::new(params).kernel(k).fit(&x).unwrap();
            let gram = gram_matrix(&k, &x);
            let (alpha, rho, iterations) = solve_one_class(&gram, &params).unwrap();
            // The Gram path solves the same dual bit for bit.
            assert_eq!(rho.to_bits(), model.rho().to_bits());
            assert_eq!(iterations, model.iterations());
            let kept: Vec<u64> =
                alpha.iter().filter(|a| a.abs() > 1e-12).map(|a| a.to_bits()).collect();
            let want: Vec<u64> = model.coefficients().iter().map(|c| c.to_bits()).collect();
            assert_eq!(kept, want);
            let probe = vec![0.9, 0.1];
            let row = gram_row(&k, probe.as_slice(), &x);
            let f = edm_linalg::dot(&row, &alpha) - rho;
            assert!((f - model.decision_function(&probe)).abs() < 1e-9);
        }
    }
}
