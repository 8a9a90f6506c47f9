//! A closed enum over the six vector kernels, used by model
//! persistence: a saved kernel-generic model (`SvcModel<K>` etc.) is
//! reloaded as `Model<AnyKernel>`, which delegates every evaluation to
//! the concrete kernel it wraps — bitwise identical to evaluating that
//! kernel directly, so save → load round trips preserve decision
//! values exactly.

use serde::Serialize;

use crate::vector_kernels::{
    Chi2Kernel, HistogramIntersectionKernel, LinearKernel, PolyKernel, RbfKernel, SigmoidKernel,
};
use crate::Kernel;

/// Any of the workspace's vector kernels, dispatched at runtime.
///
/// `eval` and `eval_many` forward to the wrapped kernel's own methods,
/// so an `AnyKernel` scores exactly like (and as fast as) the kernel it
/// was built from.
// Deliberately exhaustive: the persistence format enumerates exactly
// these kinds, so adding a variant is a schema change and should break
// every match that needs updating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AnyKernel {
    /// [`LinearKernel`].
    Linear(LinearKernel),
    /// [`PolyKernel`].
    Poly(PolyKernel),
    /// [`RbfKernel`].
    Rbf(RbfKernel),
    /// [`SigmoidKernel`].
    Sigmoid(SigmoidKernel),
    /// [`HistogramIntersectionKernel`].
    HistogramIntersection(HistogramIntersectionKernel),
    /// [`Chi2Kernel`].
    Chi2(Chi2Kernel),
}

impl AnyKernel {
    /// A short stable tag identifying the wrapped kernel kind, used as
    /// the on-disk discriminant by `edm::persist`.
    pub fn tag(&self) -> &'static str {
        match self {
            AnyKernel::Linear(_) => "linear",
            AnyKernel::Poly(_) => "poly",
            AnyKernel::Rbf(_) => "rbf",
            AnyKernel::Sigmoid(_) => "sigmoid",
            AnyKernel::HistogramIntersection(_) => "hist_intersection",
            AnyKernel::Chi2(_) => "chi2",
        }
    }
}

impl Kernel<[f64]> for AnyKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            AnyKernel::Linear(k) => k.eval(a, b),
            AnyKernel::Poly(k) => k.eval(a, b),
            AnyKernel::Rbf(k) => k.eval(a, b),
            AnyKernel::Sigmoid(k) => k.eval(a, b),
            AnyKernel::HistogramIntersection(k) => k.eval(a, b),
            AnyKernel::Chi2(k) => k.eval(a, b),
        }
    }

    fn eval_many(&self, a: &[f64], bs: &[&[f64]], out: &mut [f64]) {
        match self {
            AnyKernel::Linear(k) => k.eval_many(a, bs, out),
            AnyKernel::Poly(k) => k.eval_many(a, bs, out),
            AnyKernel::Rbf(k) => k.eval_many(a, bs, out),
            AnyKernel::Sigmoid(k) => k.eval_many(a, bs, out),
            AnyKernel::HistogramIntersection(k) => k.eval_many(a, bs, out),
            AnyKernel::Chi2(k) => k.eval_many(a, bs, out),
        }
    }
}

impl From<LinearKernel> for AnyKernel {
    fn from(k: LinearKernel) -> Self {
        AnyKernel::Linear(k)
    }
}

impl From<PolyKernel> for AnyKernel {
    fn from(k: PolyKernel) -> Self {
        AnyKernel::Poly(k)
    }
}

impl From<RbfKernel> for AnyKernel {
    fn from(k: RbfKernel) -> Self {
        AnyKernel::Rbf(k)
    }
}

impl From<SigmoidKernel> for AnyKernel {
    fn from(k: SigmoidKernel) -> Self {
        AnyKernel::Sigmoid(k)
    }
}

impl From<HistogramIntersectionKernel> for AnyKernel {
    fn from(k: HistogramIntersectionKernel) -> Self {
        AnyKernel::HistogramIntersection(k)
    }
}

impl From<Chi2Kernel> for AnyKernel {
    fn from(k: Chi2Kernel) -> Self {
        AnyKernel::Chi2(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegates_bitwise() {
        let a = [0.3, 1.7, -2.2];
        let b = [1.1, 0.0, 4.5];
        let cases: Vec<(AnyKernel, f64)> = vec![
            (LinearKernel::new().into(), LinearKernel::new().eval(&a, &b)),
            (PolyKernel::new(3, 0.5, 1.0).into(), PolyKernel::new(3, 0.5, 1.0).eval(&a, &b)),
            (RbfKernel::new(0.7).into(), RbfKernel::new(0.7).eval(&a, &b)),
            (SigmoidKernel::new(0.2, -1.0).into(), SigmoidKernel::new(0.2, -1.0).eval(&a, &b)),
        ];
        for (any, want) in cases {
            assert_eq!(any.eval(&a, &b).to_bits(), want.to_bits(), "{}", any.tag());
        }
        // Histogram kernels need non-negative inputs.
        let h = [0.2, 0.5, 0.3];
        let g = [0.1, 0.6, 0.3];
        let any: AnyKernel = Chi2Kernel::new(1.0).into();
        assert_eq!(any.eval(&h, &g).to_bits(), Chi2Kernel::new(1.0).eval(&h, &g).to_bits());
        let any: AnyKernel = HistogramIntersectionKernel::new().into();
        assert_eq!(
            any.eval(&h, &g).to_bits(),
            HistogramIntersectionKernel::new().eval(&h, &g).to_bits()
        );
    }

    /// A reloaded model scores through `AnyKernel`: its `eval_many`
    /// must reach the wrapped kernel's lane override, not the per-pair
    /// default (the two agree bitwise, so only the probe tells them
    /// apart).
    #[test]
    fn eval_many_reaches_the_lane_override() {
        let a = [0.2, 0.5, 0.3];
        let rows: Vec<[f64; 3]> = (0..19).map(|t| [0.1 * t as f64, 0.4, 0.05]).collect();
        let bs: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
        let mut out = vec![0.0; bs.len()];
        let kernels: [AnyKernel; 5] = [
            LinearKernel::new().into(),
            PolyKernel::new(3, 0.5, 1.0).into(),
            RbfKernel::new(0.7).into(),
            SigmoidKernel::new(0.2, -1.0).into(),
            HistogramIntersectionKernel::new().into(),
        ];
        for any in kernels {
            crate::vector_kernels::probe::take();
            any.eval_many(&a, &bs, &mut out);
            assert_eq!(crate::vector_kernels::probe::take(), 2, "{}", any.tag());
            <&AnyKernel as Kernel<[f64]>>::eval_many(&&any, &a, &bs, &mut out);
            assert_eq!(crate::vector_kernels::probe::take(), 2, "&{}", any.tag());
        }
    }
}
