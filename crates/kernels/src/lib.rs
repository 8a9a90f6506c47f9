//! # edm-kernels — kernel functions and Gram-matrix utilities
//!
//! Implements the paper's §2.2: the separation between *learning
//! algorithm* and *learning space*. A [`Kernel`] measures similarity
//! between two samples; the learning algorithms in `edm-svm` (and the
//! kernel-based detectors in `edm-novelty`) access the data **only**
//! through the kernel (the paper's Fig. 4), which is what lets them learn
//! over samples that are not vectors at all — layout clips, assembly
//! programs.
//!
//! The trait is generic over the *unsized* sample type, so the same
//! machinery covers:
//!
//! * numeric vectors (`Kernel<[f64]>`): [`LinearKernel`], [`PolyKernel`],
//!   [`RbfKernel`], [`SigmoidKernel`], [`HistogramIntersectionKernel`]
//!   (the HI kernel the paper used for layout variability, Fig. 9),
//!   [`Chi2Kernel`];
//! * token sequences (`Kernel<[T]>`): [`SpectrumKernel`], the n-gram
//!   kernel used for assembly-program novelty detection (Fig. 7, paper
//!   ref \[14\]).
//!
//! Composite wrappers ([`SumKernel`], [`ProductKernel`], [`ScaledKernel`],
//! [`NormalizedKernel`]) preserve positive-semidefiniteness by the closure
//! properties of the PSD cone.
//!
//! # Example: the kernel trick of the paper's Figure 3
//!
//! ```
//! use edm_kernels::{Kernel, PolyKernel};
//!
//! // k(x, x') = <x, x'>^2 corresponds to the explicit feature map
//! // Φ(x) = (x1², x2², √2·x1·x2).
//! let k = PolyKernel::homogeneous(2);
//! let x = [1.0, 2.0];
//! let y = [3.0, -1.0];
//! let phi = |v: &[f64]| [v[0] * v[0], v[1] * v[1], 2f64.sqrt() * v[0] * v[1]];
//! let (px, py) = (phi(&x), phi(&y));
//! let explicit: f64 = px.iter().zip(&py).map(|(a, b)| a * b).sum();
//! assert!((k.eval(&x, &y) - explicit).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

mod any;
mod composite;
mod gram;
mod sequence;
mod vector_kernels;

pub use any::AnyKernel;
pub use composite::{NormalizedKernel, ProductKernel, ScaledKernel, SumKernel};
pub use gram::{center_gram, gram_matrix, gram_row, gram_rows, is_psd};
pub use sequence::{SpectrumKernel, SpectrumProfile};
pub use vector_kernels::{
    Chi2Kernel, HistogramIntersectionKernel, LinearKernel, PolyKernel, RbfKernel, SigmoidKernel,
};

/// A similarity function `k(a, b)` over samples of (unsized) type `S`.
///
/// Implementations should be symmetric and positive semidefinite so that
/// the optimization problems in `edm-svm` stay convex; [`is_psd`] offers
/// an empirical check for custom kernels.
///
/// The sample type is the *borrowed* form (`[f64]`, `[Token]`, `str`), so
/// one implementation serves owned and borrowed data alike; the Gram
/// helpers accept any owned container that [`std::borrow::Borrow`]s `S`.
///
/// `Sync` is a supertrait: the Gram builders and the SMO Q-row cache
/// evaluate kernels from worker threads, and every kernel here is plain
/// immutable data. `eval` takes `&self`, so implementations have no
/// sanctioned way to mutate state that `Sync` would forbid.
pub trait Kernel<S: ?Sized>: Sync {
    /// Evaluates `k(a, b)`.
    fn eval(&self, a: &S, b: &S) -> f64;
}

impl<S: ?Sized, K: Kernel<S> + ?Sized> Kernel<S> for &K {
    fn eval(&self, a: &S, b: &S) -> f64 {
        K::eval(self, a, b)
    }
}
