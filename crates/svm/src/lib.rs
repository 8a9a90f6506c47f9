//! # edm-svm — support vector machines over arbitrary kernels
//!
//! The SVM family is the paper's workhorse (§2.3): a learned model of the
//! form
//!
//! ```text
//! M(x) = Σᵢ αᵢ k(x, xᵢ) + b          (paper Eq. 2)
//! ```
//!
//! with model complexity `C = Σᵢ αᵢ` controlled by regularization. This
//! crate provides the three members the paper's applications use:
//!
//! * [`SvcTrainer`] — binary C-SVC classification (layout good/bad,
//!   Fig. 9);
//! * [`SvrTrainer`] — ε-insensitive regression (one of the five Fmax
//!   regressor families of paper ref \[20\]);
//! * [`OneClassSvm`] — Schölkopf ν one-class novelty detection (novel
//!   test selection Fig. 7, customer returns Fig. 11).
//!
//! All three are solved by one sequential-minimal-optimization core
//! ([`solver`]) over the dual problem, in the LIBSVM formulation with
//! second-order (WSS2) working-set selection and the shrinking
//! heuristic, both on by default and switchable per trainer through the
//! `shrinking` / `working_set` params (see [`solver::SolverOptions`]).
//! The solver reads `Q` through the row-oriented [`qmatrix::QMatrix`]
//! trait, which lends rows ([`qmatrix::Rows`]) for the length of one
//! fetch; the vector `fit` entry points compute kernel rows on demand
//! behind a byte-budgeted LRU row cache ([`qmatrix::CachedQ`],
//! LIBSVM-style) so the n×n Gram matrix is never materialized, while
//! the precomputed-Gram entry points read rows straight from the
//! caller's matrix. The cache budget is the `cache_bytes` knob on each
//! params struct: one slab, committed as rows fill and released when
//! the fit returns. Caching and parallel row fills never change
//! results: rows are bitwise identical however they are produced. Batch
//! prediction (`predict_batch` / `decision_function_batch`) fans
//! samples out across worker threads with the same bitwise-determinism
//! guarantee.
//!
//! Following the paper's Figure 4, the solvers touch training data only
//! through kernel values. [`solve_svc`] and [`solve_one_class`] take a
//! precomputed Gram matrix and return the dual solution, which is how
//! non-vector samples (assembly programs, layout clips) are trained on;
//! SVR has no Gram entry point. The vector `fit` entry points compute
//! the same kernel values on demand from a
//! [`Kernel<[f64]>`](edm_kernels::Kernel).
//!
//! # One trained model
//!
//! All three `fit`s return the same [`SvModel<K, F>`](SvModel): the
//! support vectors, their coefficients `cᵢ` and the offset `ρ` of
//! `M(x) = Σᵢ cᵢ k(x, xᵢ) − ρ`, plus training statistics. The
//! zero-sized family marker `F` ([`Svc`], [`Svr`], [`OneClass`])
//! implements [`SvFamily`]: a family tag and the mapping from the
//! decision value to [`SvModel::predict`]'s output (the sign for SVC
//! and one-class, the value itself for SVR). [`SvcModel`], [`SvrModel`]
//! and [`OneClassModel`] are aliases of it, so scoring, batching, the
//! accessors and [`SvModel::from_parts`] exist once, and
//! [`SvModel::complexity`] is `Σᵢ |cᵢ|` for every family.
//!
//! # Example
//!
//! ```
//! use edm_kernels::RbfKernel;
//! use edm_svm::{SvcParams, SvcTrainer};
//!
//! let x = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.2], vec![0.9, 1.0], vec![1.0, 0.8],
//! ];
//! let y = vec![-1.0, -1.0, 1.0, 1.0];
//! let model = SvcTrainer::new(SvcParams::default())
//!     .kernel(RbfKernel::new(1.0))
//!     .fit(&x, &y)?;
//! assert_eq!(model.predict(&[0.05, 0.1]), -1.0);
//! assert_eq!(model.predict(&[0.95, 0.9]), 1.0);
//! # Ok::<(), edm_svm::SvmError>(())
//! ```

#![forbid(unsafe_code)]

mod error;
mod model;
mod one_class;
pub mod qmatrix;
pub mod solver;
mod svc;
mod svr;

pub use error::SvmError;
pub use model::{OneClass, OneClassModel, SvFamily, SvModel, Svc, SvcModel, Svr, SvrModel};
pub use one_class::{solve_one_class, OneClassParams, OneClassSvm};
pub use qmatrix::{CacheStats, CachedQ, DenseQ, KernelQ, QMatrix, QSource, Rows, SvrQ};
pub use solver::{SolverOptions, WorkingSet};
pub use svc::{solve_svc, SvcParams, SvcTrainer};
pub use svr::{SvrParams, SvrTrainer};

#[cfg(test)]
mod tests {
    use super::*;
    use edm_kernels::{gram_matrix, LinearKernel};

    #[test]
    fn non_positive_or_nan_tol_is_rejected_by_every_entry_point() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0], vec![1.5]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let gram = gram_matrix(&LinearKernel::new(), &x);
        for tol in [f64::NAN, 0.0, -1.0] {
            let svc = SvcParams { tol, ..SvcParams::default() };
            let svr = SvrParams { tol, ..SvrParams::default() };
            let one_class = OneClassParams { tol, ..OneClassParams::default() };
            let results = [
                ("svc fit", SvcTrainer::new(svc).fit(&x, &y).err()),
                ("svr fit", SvrTrainer::new(svr).fit(&x, &y).err()),
                ("one-class fit", OneClassSvm::new(one_class).fit(&x).err()),
                ("solve_svc", solve_svc(&gram, &y, &svc).err()),
                ("solve_one_class", solve_one_class(&gram, &one_class).err()),
            ];
            for (entry, err) in results {
                assert!(
                    matches!(err, Some(SvmError::InvalidParameter { name: "tol", .. })),
                    "{entry} with tol = {tol}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn labels_outside_plus_minus_one_are_rejected_by_both_svc_entry_points() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0], vec![1.5]];
        let gram = gram_matrix(&LinearKernel::new(), &x);
        let want = SvmError::InvalidInput("labels must be +1.0 or -1.0".into());
        for y in [[-1.0, 0.5, 1.0, 1.0], [-1.0, -1.0, 2.0, 1.0], [-1.0, f64::NAN, 1.0, 1.0]] {
            let params = SvcParams::default();
            let fit = SvcTrainer::new(params).fit(&x, &y).err();
            assert_eq!(fit, Some(want.clone()), "svc fit with y = {y:?}");
            let gram_path = solve_svc(&gram, &y, &params).err();
            assert_eq!(gram_path, Some(want.clone()), "solve_svc with y = {y:?}");
        }
    }
}
