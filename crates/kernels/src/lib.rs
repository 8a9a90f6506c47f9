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
//! Scoring one sample against many is the inner loop of every learner
//! here, so the trait has two batched forms beside [`Kernel::eval`],
//! each bitwise equal to it: [`Kernel::eval_many`] over gathered
//! samples, and [`Kernel::eval_panel`] over samples packed once into
//! an [`edm_linalg::LanePanel`] by [`Kernel::pack_panel`] (groups of
//! [`edm_linalg::LANES`] samples, feature-major inside a group, so the
//! lane loop reads one contiguous column per feature). The five dense
//! lane kernels pack; [`gram_matrix`], the SMO Q-row source and
//! trained support-vector models use the panel when there is one.
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

use std::ops::Range;

use edm_linalg::LanePanel;

mod any;
mod composite;
mod gram;
mod sequence;
mod vector_kernels;

pub use any::AnyKernel;
pub use composite::{NormalizedKernel, ProductKernel, ScaledKernel, SumKernel};
pub use gram::{center_gram, gram_matrix, gram_row, is_psd};
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

    /// Evaluates one sample against many: `out[t] = k(a, bs[t])`.
    ///
    /// Every hot loop that scores a sample against a run of others
    /// (Q-row fills, Gram tiles and rows, support-vector sweeps) calls
    /// this, or [`Kernel::eval_panel`] when the kernel packs a panel,
    /// rather than [`Kernel::eval`] per pair. `out[t]` must be
    /// bitwise equal to `self.eval(a, bs[t])`; the default body is that
    /// loop. The RBF, linear, polynomial, sigmoid and
    /// histogram-intersection kernels override it to run
    /// [`edm_linalg::LANES`] independent reductions in one loop, which
    /// overlaps their add latencies without reordering any sum.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != bs.len()`, and wherever `eval` would.
    fn eval_many(&self, a: &S, bs: &[&S], out: &mut [f64]) {
        assert_eq!(bs.len(), out.len(), "one output slot per sample");
        for (v, b) in out.iter_mut().zip(bs) {
            *v = self.eval(a, b);
        }
    }

    /// Packs `items` into the [`LanePanel`] that [`Kernel::eval_panel`]
    /// scores against, or `None` when this kernel scores pair by pair
    /// (the default: sequence and composite kernels) or the items
    /// differ in width.
    ///
    /// A caller that scores many samples against the same items packs
    /// them once (a Gram build, a fit's Q rows, a model's support
    /// vectors) and then reads each lane group's feature column with
    /// one load instead of [`edm_linalg::LANES`] gathered ones. The
    /// linear, polynomial, RBF, sigmoid and histogram-intersection
    /// kernels pack.
    fn pack_panel(&self, items: &[&S]) -> Option<LanePanel> {
        let _ = items;
        None
    }

    /// Scores `a` against a run of packed items:
    /// `out[t] = self.eval(a, items[cols.start + t])`, bitwise, where
    /// `panel` is what [`Kernel::pack_panel`] returned for `items` (or
    /// that panel renumbered by [`LanePanel::swap_indices`], scoring
    /// the correspondingly permuted items).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols.len()` or `cols` runs past the
    /// panel, and wherever `eval` would. The default panics always: it
    /// is reached only by a kernel whose `pack_panel` returns `None`.
    fn eval_panel(&self, a: &S, panel: &LanePanel, cols: Range<usize>, out: &mut [f64]) {
        let _ = (a, panel, cols, out);
        panic!("this kernel scores pair by pair: it packs no lane panel");
    }
}

impl<S: ?Sized, K: Kernel<S> + ?Sized> Kernel<S> for &K {
    fn eval(&self, a: &S, b: &S) -> f64 {
        K::eval(self, a, b)
    }

    fn eval_many(&self, a: &S, bs: &[&S], out: &mut [f64]) {
        K::eval_many(self, a, bs, out)
    }

    fn pack_panel(&self, items: &[&S]) -> Option<LanePanel> {
        K::pack_panel(self, items)
    }

    fn eval_panel(&self, a: &S, panel: &LanePanel, cols: Range<usize>, out: &mut [f64]) {
        K::eval_panel(self, a, panel, cols, out)
    }
}
