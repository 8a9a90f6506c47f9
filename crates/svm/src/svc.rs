use edm_kernels::{Kernel, RbfKernel};
use edm_linalg::Matrix;
use serde::{Deserialize, Serialize};

use crate::error::check_positive;
use crate::qmatrix::{CachedQ, GramQ, KernelQ, QMatrix, DEFAULT_CACHE_BYTES};
use crate::solver::{solve, DualProblem, SolverOptions, WorkingSet};
use crate::{SvcModel, SvmError};

/// Hyperparameters for C-SVC training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvcParams {
    /// Box constraint `C` — the regularization knob trading training
    /// error against model complexity (the paper's `E + λC` objective;
    /// large `C` ≈ small λ).
    pub c: f64,
    /// KKT stopping tolerance.
    pub tol: f64,
    /// SMO iteration cap.
    pub max_iter: usize,
    /// Byte budget of the Q-row cache used during training
    /// ([`DEFAULT_CACHE_BYTES`] by default; `0` disables caching so
    /// every row access recomputes its kernel evaluations).
    pub cache_bytes: usize,
    /// SMO shrinking heuristic (on by default; `false` reproduces the
    /// unshrunk solver).
    pub shrinking: bool,
    /// SMO working-set selection rule (second order by default).
    pub working_set: WorkingSet,
}

impl Default for SvcParams {
    fn default() -> Self {
        SvcParams {
            c: 1.0,
            tol: 1e-3,
            max_iter: 100_000,
            cache_bytes: DEFAULT_CACHE_BYTES,
            shrinking: true,
            working_set: WorkingSet::SecondOrder,
        }
    }
}

impl SvcParams {
    /// Sets the box constraint `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
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
        check_positive("tol", self.tol)
    }
}

/// Binary C-SVC trainer, generic over the kernel.
///
/// Labels are `+1.0` / `−1.0`. See the [crate root](crate) for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct SvcTrainer<K = RbfKernel> {
    params: SvcParams,
    kernel: K,
}

impl SvcTrainer<RbfKernel> {
    /// Creates a trainer with the default RBF kernel (γ = 1).
    pub fn new(params: SvcParams) -> Self {
        SvcTrainer { params, kernel: RbfKernel::new(1.0) }
    }
}

impl<K> SvcTrainer<K> {
    /// Replaces the kernel (builder-style).
    pub fn kernel<K2: Kernel<[f64]>>(self, kernel: K2) -> SvcTrainer<K2> {
        SvcTrainer { params: self.params, kernel }
    }

    /// The training hyperparameters.
    pub fn params(&self) -> &SvcParams {
        &self.params
    }
}

impl<K: Kernel<[f64]> + Clone> SvcTrainer<K> {
    /// Trains on vector samples with labels in `{−1, +1}`.
    ///
    /// # Errors
    ///
    /// * [`SvmError::InvalidInput`] — empty data, ragged rows, length
    ///   mismatch, or labels outside `{−1, +1}`.
    /// * [`SvmError::SingleClass`] — all labels identical.
    /// * [`SvmError::NoConvergence`] — SMO iteration cap reached.
    pub fn fit(&self, x: &[Vec<f64>], y: &[f64]) -> Result<SvcModel<K>, SvmError> {
        let _span = edm_trace::span("svm.svc.fit");
        self.params.validate()?;
        validate_labels(x, y)?;
        if !(y.contains(&1.0) && y.contains(&-1.0)) {
            return Err(SvmError::SingleClass);
        }
        // Kernel rows are computed on demand behind the LRU row cache —
        // the n×n Gram matrix is never materialized.
        let source = KernelQ::<[f64], _, _>::new(&self.kernel, x, Some(y));
        let mut q = CachedQ::new(source, self.params.cache_bytes);
        let (alpha, rho, iterations) = solve_svc_q(&mut q, y, &self.params)?;
        let coef = y.iter().zip(&alpha).map(|(&yi, &a)| yi * a);
        Ok(SvcModel::from_dual(self.kernel.clone(), x, coef, rho, iterations, q.stats()))
    }
}

/// Solves the C-SVC dual over a precomputed Gram matrix; returns
/// `(alpha, rho, iterations)`.
///
/// This is the paper-Fig.-4 entry point: samples never appear, only
/// their pairwise kernel values. Callers score new samples as
/// `Σᵢ yᵢ αᵢ k(x, xᵢ) − ρ`.
///
/// # Errors
///
/// As for [`SvcTrainer::fit`].
pub fn solve_svc(
    gram: &Matrix,
    y: &[f64],
    params: &SvcParams,
) -> Result<(Vec<f64>, f64, usize), SvmError> {
    params.validate()?;
    let n = y.len();
    if gram.rows() != n || gram.cols() != n {
        return Err(SvmError::InvalidInput(format!(
            "gram is {}x{}, expected {n}x{n}",
            gram.rows(),
            gram.cols()
        )));
    }
    if n == 0 {
        return Err(SvmError::InvalidInput("empty training set".into()));
    }
    if !(y.contains(&1.0) && y.contains(&-1.0)) {
        return Err(SvmError::SingleClass);
    }
    let mut q = CachedQ::new(GramQ::new(gram, Some(y)), params.cache_bytes);
    solve_svc_q(&mut q, y, params)
}

/// Shared C-SVC dual assembly over any [`QMatrix`] (`Q = yᵢyⱼKᵢⱼ`
/// already folded into `q`).
fn solve_svc_q(
    q: &mut dyn QMatrix,
    y: &[f64],
    params: &SvcParams,
) -> Result<(Vec<f64>, f64, usize), SvmError> {
    let n = y.len();
    let problem = DualProblem {
        p: vec![-1.0; n],
        y: y.to_vec(),
        c: vec![params.c; n],
        alpha0: vec![0.0; n],
        tol: params.tol,
        max_iter: params.max_iter,
        opts: params.solver_opts(),
    };
    let sol = solve(q, &problem)?;
    Ok((sol.alpha, sol.rho, sol.iterations))
}

pub(crate) fn validate_labels(x: &[Vec<f64>], y: &[f64]) -> Result<(), SvmError> {
    if x.is_empty() {
        return Err(SvmError::InvalidInput("empty training set".into()));
    }
    if x.len() != y.len() {
        return Err(SvmError::InvalidInput(format!("{} samples but {} labels", x.len(), y.len())));
    }
    let d = x[0].len();
    if x.iter().any(|r| r.len() != d) {
        return Err(SvmError::InvalidInput("ragged sample rows".into()));
    }
    if y.iter().any(|&l| l != 1.0 && l != -1.0) {
        return Err(SvmError::InvalidInput("labels must be +1.0 or -1.0".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_kernels::{gram_matrix, LinearKernel, PolyKernel};

    fn blobs() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            let t = i as f64 * 0.1;
            x.push(vec![t, t + 0.1]);
            y.push(-1.0);
            x.push(vec![t + 3.0, t + 3.1]);
            y.push(1.0);
        }
        (x, y)
    }

    #[test]
    fn linearly_separable_blobs_classified() {
        let (x, y) = blobs();
        let m =
            SvcTrainer::new(SvcParams::default()).kernel(LinearKernel::new()).fit(&x, &y).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi), yi);
        }
        // well away from the boundary
        assert_eq!(m.predict(&[-1.0, -1.0]), -1.0);
        assert_eq!(m.predict(&[5.0, 5.0]), 1.0);
    }

    #[test]
    fn xor_needs_nonlinear_kernel() {
        let x = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        // RBF separates XOR perfectly.
        let rbf = SvcTrainer::new(SvcParams::default().with_c(100.0))
            .kernel(RbfKernel::new(2.0))
            .fit(&x, &y)
            .unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(rbf.predict(xi), yi, "rbf failed at {xi:?}");
        }
        // Linear cannot: at least one training point is misclassified.
        let lin = SvcTrainer::new(SvcParams::default().with_c(100.0))
            .kernel(LinearKernel::new())
            .fit(&x, &y)
            .unwrap();
        let errors = x.iter().zip(&y).filter(|(xi, &yi)| lin.predict(xi) != yi).count();
        assert!(errors > 0, "linear model cannot shatter XOR");
    }

    #[test]
    fn figure3_ring_vs_disc_poly2() {
        // Inner disc (class -1) vs outer ring (class +1): not linearly
        // separable in input space, separable under <x,x'>^2 (Fig. 3).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..16 {
            let a = i as f64 * std::f64::consts::TAU / 16.0;
            x.push(vec![0.5 * a.cos(), 0.5 * a.sin()]);
            y.push(-1.0);
            x.push(vec![2.0 * a.cos(), 2.0 * a.sin()]);
            y.push(1.0);
        }
        let m = SvcTrainer::new(SvcParams::default().with_c(10.0))
            .kernel(PolyKernel::homogeneous(2))
            .fit(&x, &y)
            .unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi), yi);
        }
    }

    #[test]
    fn complexity_grows_with_c() {
        // Overlapping classes: a looser box (larger C) buys a more complex
        // model (larger Σα) — the regularization story of Fig. 5.
        let x: Vec<Vec<f64>> =
            (0..20).map(|i| vec![(i % 10) as f64 * 0.2 + if i < 10 { 0.0 } else { 0.9 }]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { -1.0 } else { 1.0 }).collect();
        let small = SvcTrainer::new(SvcParams::default().with_c(0.01))
            .kernel(RbfKernel::new(1.0))
            .fit(&x, &y)
            .unwrap();
        let large = SvcTrainer::new(SvcParams::default().with_c(10.0))
            .kernel(RbfKernel::new(1.0))
            .fit(&x, &y)
            .unwrap();
        assert!(large.complexity() > small.complexity());
    }

    #[test]
    fn input_validation() {
        let t = SvcTrainer::new(SvcParams::default());
        assert!(matches!(t.fit(&[], &[]), Err(SvmError::InvalidInput(_))));
        assert!(matches!(t.fit(&[vec![0.0]], &[2.0]), Err(SvmError::InvalidInput(_))));
        assert!(matches!(t.fit(&[vec![0.0], vec![1.0]], &[1.0, 1.0]), Err(SvmError::SingleClass)));
        let bad = SvcTrainer::new(SvcParams { c: -1.0, ..SvcParams::default() });
        assert!(matches!(
            bad.fit(&[vec![0.0], vec![1.0]], &[1.0, -1.0]),
            Err(SvmError::InvalidParameter { name: "c", .. })
        ));
    }

    #[test]
    fn model_exposes_cache_stats_and_trace_counters() {
        edm_trace::set_level(edm_trace::Level::Summary);
        let trace_on = edm_trace::compiled();
        let (x, y) = blobs();
        let m =
            SvcTrainer::new(SvcParams::default()).kernel(RbfKernel::new(0.5)).fit(&x, &y).unwrap();
        let s = m.cache_stats();
        assert!(s.misses > 0, "training must compute Q rows");
        assert!(s.hits > 0, "SMO revisits working-set rows through the cache");
        assert!(s.evictions <= s.misses, "can only evict rows that were filled");
        // The dropped CachedQ and the solver flushed global counters
        // (only when the probe machinery is compiled in).
        if trace_on {
            let r = edm_trace::collect();
            assert!(r.counter("svm.smo.iterations") > 0);
            assert!(r.counter("svm.qcache.hits") >= s.hits);
            assert!(r.counter("svm.qcache.misses") >= s.misses);
            assert!(r.span_count("svm.smo.solve") > 0);
        }
        edm_trace::set_level(edm_trace::Level::Off);
    }

    #[test]
    fn gram_path_matches_vector_path() {
        let (x, y) = blobs();
        let k = RbfKernel::new(0.5);
        let params = SvcParams::default();
        let model = SvcTrainer::new(params).kernel(k).fit(&x, &y).unwrap();
        let gram = gram_matrix(&k, &x);
        let (alpha, rho, _) = solve_svc(&gram, &y, &params).unwrap();
        // Decision values agree on a probe point.
        let probe = vec![1.5, 1.5];
        let from_gram: f64 = x
            .iter()
            .zip(y.iter().zip(&alpha))
            .map(|(xi, (&yi, &ai))| yi * ai * k.eval(&probe, xi))
            .sum::<f64>()
            - rho;
        assert!((model.decision_function(&probe) - from_gram).abs() < 1e-9);
    }
}
