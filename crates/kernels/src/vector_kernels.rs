use edm_linalg::{dot, dot_lanes, min_sum, min_sum_lanes, sq_dist, sq_dist_lanes, LANES};
use serde::Serialize;

use crate::Kernel;

/// The linear kernel `k(x, y) = ⟨x, y⟩` — learning in the input space
/// itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LinearKernel;

impl LinearKernel {
    /// Creates the linear kernel.
    pub fn new() -> Self {
        LinearKernel
    }
}

impl Kernel<[f64]> for LinearKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        dot(a, b)
    }

    fn eval_many(&self, a: &[f64], bs: &[&[f64]], out: &mut [f64]) {
        in_lanes(bs, out, |g| dot_lanes(a, g), |b| self.eval(a, b));
    }
}

/// The polynomial kernel `k(x, y) = (γ⟨x, y⟩ + c)ᵈ`.
///
/// With `γ = 1, c = 0, d = 2` this is exactly the paper's Figure 3 kernel
/// `⟨x, y⟩²`, whose implicit feature space makes ring-vs-disc data
/// linearly separable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PolyKernel {
    degree: u32,
    gamma: f64,
    coef0: f64,
}

impl PolyKernel {
    /// Creates `(γ⟨x,y⟩ + c)ᵈ`.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0` or `gamma <= 0`.
    pub fn new(degree: u32, gamma: f64, coef0: f64) -> Self {
        assert!(degree > 0, "polynomial degree must be >= 1");
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        PolyKernel { degree, gamma, coef0 }
    }

    /// The homogeneous polynomial kernel `⟨x, y⟩ᵈ` (γ = 1, c = 0).
    pub fn homogeneous(degree: u32) -> Self {
        PolyKernel::new(degree, 1.0, 0.0)
    }

    /// The polynomial degree `d`.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The scale `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The offset `c`.
    pub fn coef0(&self) -> f64 {
        self.coef0
    }

    /// `(γ·d + c)ᵈ` for the inner product `d`.
    fn finish(&self, dot: f64) -> f64 {
        (self.gamma * dot + self.coef0).powi(self.degree as i32)
    }
}

impl Kernel<[f64]> for PolyKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.finish(dot(a, b))
    }

    fn eval_many(&self, a: &[f64], bs: &[&[f64]], out: &mut [f64]) {
        in_lanes(bs, out, |g| dot_lanes(a, g).map(|d| self.finish(d)), |b| self.eval(a, b));
    }
}

/// The Gaussian RBF kernel `k(x, y) = exp(−γ ‖x − y‖²)`.
///
/// Larger `γ` means a narrower bandwidth and a more complex implicit
/// model — the knob swept by the Fig. 5 overfitting experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RbfKernel {
    gamma: f64,
}

impl RbfKernel {
    /// Creates the RBF kernel with bandwidth parameter `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma <= 0`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        RbfKernel { gamma }
    }

    /// The bandwidth parameter `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// `exp(−γ·d)` for the squared distance `d`.
    fn finish(&self, sq_dist: f64) -> f64 {
        (-self.gamma * sq_dist).exp()
    }
}

impl Kernel<[f64]> for RbfKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.finish(sq_dist(a, b))
    }

    fn eval_many(&self, a: &[f64], bs: &[&[f64]], out: &mut [f64]) {
        in_lanes(bs, out, |g| sq_dist_lanes(a, g).map(|d| self.finish(d)), |b| self.eval(a, b));
    }
}

/// The sigmoid kernel `k(x, y) = tanh(γ⟨x, y⟩ + c)`.
///
/// Not PSD for all parameter choices — kept for completeness with the
/// classic SVM literature; prefer [`RbfKernel`] unless you know you need
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SigmoidKernel {
    gamma: f64,
    coef0: f64,
}

impl SigmoidKernel {
    /// Creates `tanh(γ⟨x,y⟩ + c)`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma <= 0`.
    pub fn new(gamma: f64, coef0: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        SigmoidKernel { gamma, coef0 }
    }

    /// The scale `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The offset `c`.
    pub fn coef0(&self) -> f64 {
        self.coef0
    }

    /// `tanh(γ·d + c)` for the inner product `d`.
    fn finish(&self, dot: f64) -> f64 {
        (self.gamma * dot + self.coef0).tanh()
    }
}

impl Kernel<[f64]> for SigmoidKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.finish(dot(a, b))
    }

    fn eval_many(&self, a: &[f64], bs: &[&[f64]], out: &mut [f64]) {
        in_lanes(bs, out, |g| dot_lanes(a, g).map(|d| self.finish(d)), |b| self.eval(a, b));
    }
}

/// The histogram-intersection kernel `k(h, g) = Σᵢ min(hᵢ, gᵢ)`.
///
/// The kernel the paper's layout-variability work used (\[13\], Fig. 9):
/// samples are density histograms of layout clips, and the intersection
/// measures how much mass two patterns share. PSD for non-negative
/// inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HistogramIntersectionKernel;

impl HistogramIntersectionKernel {
    /// Creates the histogram-intersection kernel.
    pub fn new() -> Self {
        HistogramIntersectionKernel
    }
}

impl Kernel<[f64]> for HistogramIntersectionKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        min_sum(a, b)
    }

    fn eval_many(&self, a: &[f64], bs: &[&[f64]], out: &mut [f64]) {
        in_lanes(bs, out, |g| min_sum_lanes(a, g), |b| self.eval(a, b));
    }
}

/// The (exponential) χ² kernel
/// `k(h, g) = exp(−γ Σᵢ (hᵢ − gᵢ)² / (hᵢ + gᵢ))`.
///
/// An alternative histogram kernel, sharper than intersection for
/// near-identical histograms. Zero-sum bins contribute nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Chi2Kernel {
    gamma: f64,
}

impl Chi2Kernel {
    /// Creates the χ² kernel with scale `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma <= 0`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        Chi2Kernel { gamma }
    }

    /// The scale `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Kernel<[f64]> for Chi2Kernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "histogram length mismatch");
        let chi2: f64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let s = x + y;
                if s.abs() < 1e-300 {
                    0.0
                } else {
                    (x - y) * (x - y) / s
                }
            })
            .sum();
        (-self.gamma * chi2).exp()
    }
}

/// Fills `out[t]` for every `bs[t]`: whole groups of [`LANES`]
/// samples through `group`, the leftover tail one at a time through
/// `one`. The `eval_many` body of every lane-reducing kernel.
fn in_lanes(
    bs: &[&[f64]],
    out: &mut [f64],
    group: impl Fn(&[&[f64]; LANES]) -> [f64; LANES],
    one: impl Fn(&[f64]) -> f64,
) {
    assert_eq!(bs.len(), out.len(), "one output slot per sample");
    let (groups, tail) = bs.as_chunks::<LANES>();
    let (out_groups, out_tail) = out.as_chunks_mut::<LANES>();
    for (g, o) in groups.iter().zip(out_groups) {
        *o = group(g);
    }
    for (b, o) in tail.iter().zip(out_tail) {
        *o = one(b);
    }
    #[cfg(test)]
    probe::LANE_GROUPS.with(|c| c.set(c.get() + groups.len()));
}

/// Counts lane groups run on this thread, so unit tests can tell an
/// `eval_many` override from the per-pair default (their results are
/// bitwise equal by contract).
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    thread_local! {
        pub(crate) static LANE_GROUPS: Cell<usize> = const { Cell::new(0) };
    }

    /// Lane groups run on this thread since the last call.
    pub(crate) fn take() -> usize {
        LANE_GROUPS.with(|c| c.replace(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot() {
        assert_eq!(LinearKernel::new().eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn poly_matches_figure3_feature_map() {
        let k = PolyKernel::homogeneous(2);
        let (x, y) = ([0.5, -1.5], [2.0, 1.0]);
        let d = 0.5 * 2.0 + (-1.5) * 1.0;
        assert!((k.eval(&x, &y) - d * d).abs() < 1e-12);
    }

    #[test]
    fn rbf_range_and_identity() {
        let k = RbfKernel::new(0.7);
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        let v = k.eval(&[0.0, 0.0], &[10.0, 10.0]);
        assert!(v > 0.0 && v < 1e-10);
    }

    #[test]
    fn rbf_is_symmetric() {
        let k = RbfKernel::new(2.0);
        let (a, b) = ([1.0, -2.0, 0.5], [0.0, 3.0, 1.0]);
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn histogram_intersection_known_value() {
        let k = HistogramIntersectionKernel::new();
        assert_eq!(k.eval(&[1.0, 3.0, 0.0], &[2.0, 1.0, 5.0]), 2.0);
        // self-similarity is the total mass
        assert_eq!(k.eval(&[1.0, 3.0], &[1.0, 3.0]), 4.0);
    }

    #[test]
    fn chi2_identity_is_one() {
        let k = Chi2Kernel::new(1.0);
        assert_eq!(k.eval(&[0.2, 0.8], &[0.2, 0.8]), 1.0);
        assert!(k.eval(&[1.0, 0.0], &[0.0, 1.0]) < 1.0);
        // zero-sum bins are ignored, not NaN
        assert!(k.eval(&[0.0, 1.0], &[0.0, 1.0]).is_finite());
    }

    #[test]
    fn sigmoid_bounded() {
        let k = SigmoidKernel::new(0.5, -1.0);
        let v = k.eval(&[3.0, 3.0], &[3.0, 3.0]);
        assert!(v > -1.0 && v < 1.0);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn rbf_rejects_bad_gamma() {
        let _ = RbfKernel::new(0.0);
    }

    #[test]
    fn kernel_by_reference_matches_value() {
        let k = RbfKernel::new(1.0);
        let a = [1.0, 2.0];
        let b = [2.0, 1.0];
        let by_ref: &dyn Kernel<[f64]> = &k;
        assert_eq!(by_ref.eval(&a, &b), k.eval(&a, &b));
    }
}
