//! # edm-learn — the paper's §2 learners that a reproduced result uses
//!
//! One module per algorithm family, each illustrating one of the four
//! "basic ideas" of §2.1, and each kept because a figure, table or
//! served model reaches it:
//!
//! | Basic idea | Modules |
//! |---|---|
//! | Nearest neighbor | [`knn`] |
//! | Model estimation | [`linreg`], [`tree`], [`forest`], [`rules`] |
//! | Density estimation | [`discriminant`] (Eq. 1) |
//! | Bayesian inference | [`gp`] |
//!
//! The five regression families compared by the paper's Fmax-prediction
//! reference \[20\] are all here or in `edm-svm`: nearest neighbor
//! ([`knn::KnnRegressor`]), least-squares fit ([`linreg::LeastSquares`]),
//! regularized LSF ([`linreg::Ridge`]), SVR (`edm_svm::SvrTrainer`), and
//! Gaussian processes ([`gp::GpRegressor`]). The tree classifier and
//! forest back ref \[3\]'s Boolean-learning harness.
//!
//! Rule learning ([`rules`]) is the knowledge-discovery backbone of the
//! paper's applications: CN2-SD subgroup discovery drives the
//! test-template refinement of Table 1 and the timing-path diagnosis of
//! Fig. 10; Apriori covers the unsupervised association-rule mining the
//! paper cites as \[26\].

#![forbid(unsafe_code)]

pub mod discriminant;
mod error;
pub mod forest;
pub mod gp;
pub mod knn;
pub mod linreg;
pub mod rules;
pub mod tree;

pub use error::LearnError;
