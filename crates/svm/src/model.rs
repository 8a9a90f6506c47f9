use edm_kernels::Kernel;
use edm_linalg::LanePanel;
use serde::{Serialize, Value};

use crate::qmatrix::CacheStats;

/// What tells the three trained support-vector families apart: a family
/// tag and the mapping from the decision value `M(x)` to the model's
/// output. Everything else — the kernel expansion, its parts and their
/// persistence — is [`SvModel`], shared.
pub trait SvFamily: Copy + Default + Send + Sync + 'static {
    /// The family tag: `edm::Predictor::name` and the header of a
    /// saved model container.
    const TAG: &'static str;

    /// Maps a decision value to [`SvModel::predict`]'s output.
    fn output(decision: f64) -> f64;
}

/// C-SVC classification: the output is the label `±1.0` (ties break
/// positive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Svc;

/// ε-SVR regression: the output is the decision value itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Svr;

/// ν one-class novelty detection: the output is `+1.0` for inliers and
/// `−1.0` for novel points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OneClass;

impl SvFamily for Svc {
    const TAG: &'static str = "svc";

    fn output(decision: f64) -> f64 {
        if decision >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

impl SvFamily for Svr {
    const TAG: &'static str = "svr";

    fn output(decision: f64) -> f64 {
        decision
    }
}

impl SvFamily for OneClass {
    const TAG: &'static str = "one_class_svm";

    fn output(decision: f64) -> f64 {
        if decision < 0.0 {
            -1.0
        } else {
            1.0
        }
    }
}

/// A trained C-SVC model: `M(x) = Σᵢ yᵢαᵢ k(x, xᵢ) − ρ`, positive means
/// class `+1`.
pub type SvcModel<K> = SvModel<K, Svc>;

/// A trained ε-SVR model: `f(x) = Σᵢ βᵢ k(x, xᵢ) − ρ` with
/// `βᵢ = αᵢ − αᵢ*`.
pub type SvrModel<K> = SvModel<K, Svr>;

/// A trained one-class model: `f(x) = Σᵢ αᵢ k(x, xᵢ) − ρ`, novel iff
/// `f(x) < 0`.
pub type OneClassModel<K> = SvModel<K, OneClass>;

/// A trained support-vector machine — the kernel expansion of paper
/// Eq. 2, `M(x) = Σᵢ cᵢ k(x, xᵢ) − ρ`, over the retained support
/// vectors `xᵢ`. The family marker `F` ([`Svc`], [`Svr`], [`OneClass`])
/// only picks the output mapping and the tag; scoring, accessors and
/// reassembly are one implementation for all three.
///
/// Every constructor packs the support vectors into the kernel's
/// [`LanePanel`] when it has one ([`Kernel::pack_panel`]), so scoring
/// reads them feature-major; the panel is derived data, left out of
/// the serialized and persisted forms.
#[derive(Debug, Clone)]
pub struct SvModel<K, F> {
    kernel: K,
    family: F,
    n_features: usize,
    support: Vec<Vec<f64>>,
    /// `support` packed for [`Kernel::eval_panel`], if the kernel packs.
    panel: Option<LanePanel>,
    /// `cᵢ` per support vector: `yᵢαᵢ` (SVC), `βᵢ` (SVR), `αᵢ`
    /// (one-class).
    coef: Vec<f64>,
    rho: f64,
    iterations: usize,
    cache: CacheStats,
}

impl<K: Kernel<[f64]>, F: SvFamily> SvModel<K, F> {
    /// Builds a model from a dual solution: `coef[i]` is sample `i`'s
    /// coefficient, and samples with `|cᵢ| ≤ 1e-12` are dropped.
    pub(crate) fn from_dual(
        kernel: K,
        x: &[Vec<f64>],
        coef: impl IntoIterator<Item = f64>,
        rho: f64,
        iterations: usize,
        cache: CacheStats,
    ) -> Self {
        let (support, coef) = x
            .iter()
            .zip(coef)
            .filter(|(_, c)| c.abs() > 1e-12)
            .map(|(xi, c)| (xi.clone(), c))
            .unzip();
        Self::from_parts(kernel, x[0].len(), support, coef, rho, iterations, cache)
    }

    /// Reassembles a model from its persisted parts — the inverse of
    /// the accessors below, used by `edm::persist` to reload saved
    /// models. The parts are stored verbatim, so a model rebuilt from
    /// its own accessors scores bitwise identically.
    ///
    /// # Panics
    ///
    /// If `support` and `coef` differ in length.
    pub fn from_parts(
        kernel: K,
        n_features: usize,
        support: Vec<Vec<f64>>,
        coef: Vec<f64>,
        rho: f64,
        iterations: usize,
        cache: CacheStats,
    ) -> Self {
        assert_eq!(support.len(), coef.len(), "one coefficient per support vector");
        let refs: Vec<&[f64]> = support.iter().map(Vec::as_slice).collect();
        let panel = kernel.pack_panel(&refs);
        SvModel {
            kernel,
            family: F::default(),
            n_features,
            support,
            panel,
            coef,
            rho,
            iterations,
            cache,
        }
    }
}

impl<K, F: SvFamily> SvModel<K, F> {
    /// The kernel the model scores with.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The support vectors.
    pub fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support
    }

    /// The coefficients `cᵢ`, aligned with
    /// [`SvModel::support_vectors`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// Number of support vectors retained.
    pub fn n_support(&self) -> usize {
        self.support.len()
    }

    /// Dimensionality of the training samples; every sample scored by
    /// this model must have exactly this many features. (A wide-tube
    /// SVR can retain zero support vectors, so this is recorded at fit
    /// time rather than derived from them.)
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The model complexity `Σᵢ |cᵢ|` (`Σᵢ αᵢ` for SVC and one-class)
    /// — the measure the paper's §2.3 uses to explain regularization
    /// and overfitting (Fig. 5). Summed from `+0.0` in support-vector
    /// order, so a model without support vectors reports `+0.0`.
    pub fn complexity(&self) -> f64 {
        self.coef.iter().fold(0.0, |s, c| s + c.abs())
    }

    /// The offset `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// SMO iterations used in training.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Q-row cache behaviour during this model's training run.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }
}

impl<K: Serialize, F: Serialize> Serialize for SvModel<K, F> {
    /// The model's parts; the packed panel is derived from `support`.
    fn to_value(&self) -> Value {
        let field = |name: &str, v: Value| (name.to_string(), v);
        Value::Map(vec![
            field("kernel", self.kernel.to_value()),
            field("family", self.family.to_value()),
            field("n_features", self.n_features.to_value()),
            field("support", self.support.to_value()),
            field("coef", self.coef.to_value()),
            field("rho", self.rho.to_value()),
            field("iterations", self.iterations.to_value()),
            field("cache", self.cache.to_value()),
        ])
    }
}

/// Support vectors scored per [`Kernel::eval_panel`] (or
/// [`Kernel::eval_many`]) call in [`SvModel::decision_function`]: the
/// stack buffers stay small (1.5 KiB) while each call still runs whole
/// lane groups.
const SV_CHUNK: usize = 64;

impl<K: Kernel<[f64]>, F: SvFamily> SvModel<K, F> {
    /// The decision value `M(x)`, accumulated serially in
    /// support-vector order.
    ///
    /// The kernel values come 64 support vectors at a time into a
    /// stack buffer, from one [`Kernel::eval_panel`] call over the
    /// packed support vectors (or one [`Kernel::eval_many`] call when
    /// the kernel packs none), and `s += cᵢ·kᵢ` then runs from `-0.0`
    /// in support-vector order — bitwise the per-pair sum
    /// `Σᵢ cᵢ·k(x, xᵢ)`.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        let mut s = -0.0;
        let mut refs: [&[f64]; SV_CHUNK] = [&[]; SV_CHUNK];
        let mut k = [0.0; SV_CHUNK];
        for (c, coef) in self.coef.chunks(SV_CHUNK).enumerate() {
            let cols = c * SV_CHUNK..c * SV_CHUNK + coef.len();
            let k = &mut k[..coef.len()];
            match &self.panel {
                Some(panel) => self.kernel.eval_panel(x, panel, cols, k),
                None => {
                    for (r, sv) in refs.iter_mut().zip(&self.support[cols]) {
                        *r = sv;
                    }
                    self.kernel.eval_many(x, &refs[..coef.len()], k);
                }
            }
            for (&c, &kv) in coef.iter().zip(k.iter()) {
                s += c * kv;
            }
        }
        s - self.rho
    }

    /// The model output for `x`: the label `±1.0` (SVC), the predicted
    /// target (SVR), or `+1.0` inlier / `−1.0` novel (one-class).
    pub fn predict(&self, x: &[f64]) -> f64 {
        F::output(self.decision_function(x))
    }

    /// Decision values for a batch of samples, one support-vector sweep
    /// per sample distributed across worker threads. Each value is
    /// computed exactly as [`SvModel::decision_function`] would, so the
    /// result is bitwise identical to the serial loop regardless of
    /// thread count.
    pub fn decision_function_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.map_batch(xs, Self::decision_function)
    }

    /// Predicts a batch of samples (parallel; bitwise identical to
    /// mapping [`SvModel::predict`] over `xs`).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.map_batch(xs, Self::predict)
    }

    fn map_batch<T: Send>(&self, xs: &[Vec<f64>], f: impl Fn(&Self, &[f64]) -> T + Sync) -> Vec<T> {
        edm_par::map_indexed(xs.len(), |i| f(self, &xs[i]))
    }
}

impl<K: Kernel<[f64]>> OneClassModel<K> {
    /// Whether `x` lies outside the learned support region.
    pub fn is_novel(&self, x: &[f64]) -> bool {
        self.decision_function(x) < 0.0
    }

    /// Novelty flags for a batch of samples (parallel; bitwise
    /// identical to mapping [`SvModel::is_novel`]).
    pub fn is_novel_batch(&self, xs: &[Vec<f64>]) -> Vec<bool> {
        self.map_batch(xs, Self::is_novel)
    }
}
