//! Kernel combinators.
//!
//! Sums, products, and positive scalings of PSD kernels are PSD, so these
//! wrappers let a methodology mix knowledge sources — e.g. a spectrum
//! kernel on instruction streams plus a linear kernel on operand
//! statistics — without leaving the valid-kernel family.

use serde::Serialize;

use crate::Kernel;

/// The sum `k(a, b) = k₁(a, b) + k₂(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SumKernel<K1, K2> {
    k1: K1,
    k2: K2,
}

impl<K1, K2> SumKernel<K1, K2> {
    /// Creates `k₁ + k₂`.
    pub fn new(k1: K1, k2: K2) -> Self {
        SumKernel { k1, k2 }
    }
}

impl<S: ?Sized, K1: Kernel<S>, K2: Kernel<S>> Kernel<S> for SumKernel<K1, K2> {
    fn eval(&self, a: &S, b: &S) -> f64 {
        self.k1.eval(a, b) + self.k2.eval(a, b)
    }
}

/// The product `k(a, b) = k₁(a, b) · k₂(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProductKernel<K1, K2> {
    k1: K1,
    k2: K2,
}

impl<K1, K2> ProductKernel<K1, K2> {
    /// Creates `k₁ · k₂`.
    pub fn new(k1: K1, k2: K2) -> Self {
        ProductKernel { k1, k2 }
    }
}

impl<S: ?Sized, K1: Kernel<S>, K2: Kernel<S>> Kernel<S> for ProductKernel<K1, K2> {
    fn eval(&self, a: &S, b: &S) -> f64 {
        self.k1.eval(a, b) * self.k2.eval(a, b)
    }
}

/// The scaling `k(a, b) = c · k₁(a, b)` with `c > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScaledKernel<K> {
    inner: K,
    scale: f64,
}

impl<K> ScaledKernel<K> {
    /// Creates `c · k`.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` (a non-positive scale would break PSD-ness).
    pub fn new(inner: K, scale: f64) -> Self {
        assert!(scale > 0.0, "kernel scale must be positive, got {scale}");
        ScaledKernel { inner, scale }
    }
}

impl<S: ?Sized, K: Kernel<S>> Kernel<S> for ScaledKernel<K> {
    fn eval(&self, a: &S, b: &S) -> f64 {
        self.scale * self.inner.eval(a, b)
    }
}

/// Cosine normalization
/// `k(a, b) = k₁(a, b) / √(k₁(a, a) · k₁(b, b))`, mapping self-similarity
/// to 1.
///
/// Essential for the spectrum kernel, where raw self-similarity grows
/// with sequence length (a long test would otherwise look "similar" to
/// everything). Returns `0.0` when either self-similarity is zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NormalizedKernel<K> {
    inner: K,
}

impl<K> NormalizedKernel<K> {
    /// Wraps `k` in cosine normalization.
    pub fn new(inner: K) -> Self {
        NormalizedKernel { inner }
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &K {
        &self.inner
    }
}

impl<S: ?Sized, K: Kernel<S>> Kernel<S> for NormalizedKernel<K> {
    fn eval(&self, a: &S, b: &S) -> f64 {
        let kaa = self.inner.eval(a, a);
        let kbb = self.inner.eval(b, b);
        let denom = (kaa * kbb).sqrt();
        if denom < 1e-300 {
            0.0
        } else {
            self.inner.eval(a, b) / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearKernel, RbfKernel, SpectrumKernel};

    #[test]
    fn sum_and_product_combine() {
        let a = [1.0, 0.0];
        let b = [0.5, 0.5];
        let lin = LinearKernel::new();
        let rbf = RbfKernel::new(1.0);
        let s = SumKernel::new(lin, rbf);
        let p = ProductKernel::new(lin, rbf);
        assert!((s.eval(&a, &b) - (lin.eval(&a, &b) + rbf.eval(&a, &b))).abs() < 1e-15);
        assert!((p.eval(&a, &b) - lin.eval(&a, &b) * rbf.eval(&a, &b)).abs() < 1e-15);
    }

    #[test]
    fn scaled_multiplies() {
        let k = ScaledKernel::new(LinearKernel::new(), 2.5);
        assert_eq!(k.eval(&[2.0], &[3.0]), 15.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scale_must_be_positive() {
        let _ = ScaledKernel::new(LinearKernel::new(), -1.0);
    }

    #[test]
    fn normalized_self_similarity_is_one() {
        let k = NormalizedKernel::new(SpectrumKernel::new(2));
        let s = [3u8, 1, 4, 1, 5];
        assert!((k.eval(&s[..], &s[..]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_is_bounded_by_one() {
        let k = NormalizedKernel::new(SpectrumKernel::new(3));
        let a = [1u8, 2, 3, 4, 1, 2];
        let b = [2u8, 3, 4, 4, 4];
        let v = k.eval(&a[..], &b[..]);
        assert!((0.0..=1.0 + 1e-12).contains(&v));
    }

    #[test]
    fn normalized_zero_self_similarity_is_zero() {
        let k = NormalizedKernel::new(SpectrumKernel::new(1));
        let empty: [u8; 0] = [];
        let b = [1u8];
        assert_eq!(k.eval(&empty[..], &b[..]), 0.0);
    }
}
