//! # edm — Data Mining in EDA
//!
//! A facade over the `edm` workspace, a Rust reproduction of
//! *“Data Mining In EDA — Basic Principles, Promises, and Constraints”*
//! (Li-C. Wang and Magdy S. Abadir, DAC 2014).
//!
//! The workspace has three layers:
//!
//! 1. **Learning toolkit** — [`linalg`], [`data`], [`kernels`], [`svm`],
//!    [`learn`], [`cluster`], [`transform`], [`novelty`]: the algorithm
//!    families of the paper's Section 2 that a reproduced result uses.
//! 2. **EDA substrates** — [`verif`], [`litho`], [`timing`], [`mfgtest`]:
//!    synthetic stand-ins for the industrial environments the paper
//!    evaluated on.
//! 3. **Methodology flows** — [`core`]: the paper's contribution, six
//!    application flows tying learners + kernels + domain knowledge into
//!    engineer-facing usage models.
//!
//! On top of those, the facade defines the cross-crate surface that flow
//! and serving code programs against: the [`Error`] sum type (every
//! per-crate error converts into it with `?`), the object-safe
//! [`Predictor`] trait (one scoring signature over every trained model,
//! which is what `edm-serve` dispatches through), and the [`prelude`].
//!
//! # Quickstart
//!
//! Train a kernel SVM on a small dataset and inspect its complexity
//! (the paper's Eq. 2):
//!
//! ```
//! use edm::prelude::*;
//!
//! let x = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.2], vec![0.9, 1.0], vec![1.0, 0.8],
//! ];
//! let y = vec![-1.0, -1.0, 1.0, 1.0];
//! let model = SvcTrainer::new(SvcParams::default())
//!     .kernel(RbfKernel::new(1.0))
//!     .fit(&x, &y)?;
//! assert_eq!(model.predict(&[0.05, 0.1]), -1.0);
//! assert!(model.complexity() > 0.0); // Σ αᵢ, the paper's model-complexity measure
//!
//! // Every trained model also scores through the object-safe Predictor
//! // trait — the dispatch surface of the edm-serve scoring service.
//! let served: &dyn Predictor = &model;
//! assert_eq!(served.predict_batch(&x)?, y);
//! # Ok::<(), edm::Error>(())
//! ```
//!
//! See `examples/` for the domain scenarios (verification coverage,
//! litho hotspot screening, customer-return screening) and
//! `crates/bench/src/harness/` for the harnesses that regenerate every
//! table and figure of the paper (run by the `figures` binary).

#![forbid(unsafe_code)]

use std::fmt;

pub use edm_cluster as cluster;
pub use edm_core as core;
pub use edm_data as data;
pub use edm_kernels as kernels;
pub use edm_learn as learn;
pub use edm_linalg as linalg;
pub use edm_litho as litho;
pub use edm_mfgtest as mfgtest;
pub use edm_model_io as model_io;
pub use edm_novelty as novelty;
pub use edm_svm as svm;
pub use edm_timing as timing;
pub use edm_trace as trace;
pub use edm_transform as transform;
pub use edm_verif as verif;

pub mod persist;

pub use persist::{
    fit_family, load_predictor, load_predictor_from_bytes, LoadedModel, PersistentPredictor,
    FAMILIES,
};

/// The workspace-wide error sum type.
///
/// Every per-crate error enum converts into it via `From`, so flow code
/// and [`Predictor`] implementations can `?` across crate boundaries
/// and return one type. The original error stays reachable through
/// [`std::error::Error::source`] (and can be downcast back to the
/// concrete per-crate type).
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// SVM training/scoring failed ([`svm::SvmError`]).
    Svm(svm::SvmError),
    /// A learner failed ([`learn::LearnError`]).
    Learn(learn::LearnError),
    /// A clustering algorithm failed ([`cluster::ClusterError`]).
    Cluster(cluster::ClusterError),
    /// A novelty detector failed ([`novelty::NoveltyError`]).
    Novelty(novelty::NoveltyError),
    /// A feature transform failed ([`transform::TransformError`]).
    Transform(transform::TransformError),
    /// A linear-algebra kernel failed ([`linalg::LinalgError`]).
    Linalg(linalg::LinalgError),
    /// Dataset assembly failed ([`data::DatasetError`]).
    Dataset(data::DatasetError),
    /// Model persistence failed ([`model_io::IoError`]): bad magic,
    /// unsupported schema version, checksum mismatch, truncation, a
    /// missing section, or a malformed payload.
    ModelIo(model_io::IoError),
    /// A scoring batch did not match the model's feature count — the
    /// shape contract [`Predictor::predict_batch`] enforces before
    /// touching the underlying model.
    Shape {
        /// Index of the offending row in the batch.
        row: usize,
        /// The model's feature count.
        expected: usize,
        /// The row's length.
        found: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Svm(e) => write!(f, "svm: {e}"),
            Error::Learn(e) => write!(f, "learn: {e}"),
            Error::Cluster(e) => write!(f, "cluster: {e}"),
            Error::Novelty(e) => write!(f, "novelty: {e}"),
            Error::Transform(e) => write!(f, "transform: {e}"),
            Error::Linalg(e) => write!(f, "linalg: {e}"),
            Error::Dataset(e) => write!(f, "dataset: {e}"),
            Error::ModelIo(e) => write!(f, "model-io: {e}"),
            Error::Shape { row, expected, found } => {
                write!(f, "batch row {row} has {found} features, model expects {expected}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Svm(e) => Some(e),
            Error::Learn(e) => Some(e),
            Error::Cluster(e) => Some(e),
            Error::Novelty(e) => Some(e),
            Error::Transform(e) => Some(e),
            Error::Linalg(e) => Some(e),
            Error::Dataset(e) => Some(e),
            Error::ModelIo(e) => Some(e),
            Error::Shape { .. } => None,
        }
    }
}

impl From<svm::SvmError> for Error {
    fn from(e: svm::SvmError) -> Self {
        Error::Svm(e)
    }
}

impl From<learn::LearnError> for Error {
    fn from(e: learn::LearnError) -> Self {
        Error::Learn(e)
    }
}

impl From<cluster::ClusterError> for Error {
    fn from(e: cluster::ClusterError) -> Self {
        Error::Cluster(e)
    }
}

impl From<novelty::NoveltyError> for Error {
    fn from(e: novelty::NoveltyError) -> Self {
        Error::Novelty(e)
    }
}

impl From<transform::TransformError> for Error {
    fn from(e: transform::TransformError) -> Self {
        Error::Transform(e)
    }
}

impl From<linalg::LinalgError> for Error {
    fn from(e: linalg::LinalgError) -> Self {
        Error::Linalg(e)
    }
}

impl From<data::DatasetError> for Error {
    fn from(e: data::DatasetError) -> Self {
        Error::Dataset(e)
    }
}

impl From<model_io::IoError> for Error {
    fn from(e: model_io::IoError) -> Self {
        Error::ModelIo(e)
    }
}

/// A trained model that scores feature-vector batches — the uniform
/// call surface the `edm-serve` scoring service dispatches through.
///
/// The trait is object-safe: a registry holds `dyn Predictor` trait
/// objects without caring which algorithm family produced them. Every
/// implementation validates the batch shape against
/// [`Predictor::n_features`] first (returning [`Error::Shape`] instead
/// of panicking) and then delegates to the model's inherent
/// `predict_batch`/`decision_function_batch` path, so scoring through
/// the trait object is bitwise identical to calling the concrete model
/// (pinned by proptests in `edm-serve`).
///
/// Output conventions per model family:
///
/// * classifiers (SVC, k-NN, forest) return their label as `f64`
///   (`±1.0` for SVC, the integer class for the others);
/// * regressors (SVR, OLS, ridge, GP, k-NN) return the predicted value;
/// * the one-class SVM returns `+1.0` for inliers and `−1.0` for novel
///   points (the sign of its decision function).
pub trait Predictor {
    /// Scores a batch: one output per input row.
    ///
    /// # Errors
    ///
    /// [`Error::Shape`] if any row's length differs from
    /// [`Predictor::n_features`].
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error>;

    /// Number of features each input row must have.
    fn n_features(&self) -> usize;

    /// A short static name for the model family (e.g. `"svc"`).
    fn name(&self) -> &'static str;
}

/// Shape gate shared by every [`Predictor`] implementation.
fn check_batch(xs: &[Vec<f64>], expected: usize) -> Result<(), Error> {
    for (row, x) in xs.iter().enumerate() {
        if x.len() != expected {
            return Err(Error::Shape { row, expected, found: x.len() });
        }
    }
    Ok(())
}

impl<K: kernels::Kernel<[f64]>, F: svm::SvFamily> Predictor for svm::SvModel<K, F> {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        check_batch(xs, self.n_features())?;
        Ok(svm::SvModel::predict_batch(self, xs))
    }

    fn n_features(&self) -> usize {
        svm::SvModel::n_features(self)
    }

    fn name(&self) -> &'static str {
        F::TAG
    }
}

impl Predictor for learn::linreg::LeastSquares {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        check_batch(xs, self.coefficients().len())?;
        Ok(learn::linreg::LeastSquares::predict_batch(self, xs))
    }

    fn n_features(&self) -> usize {
        self.coefficients().len()
    }

    fn name(&self) -> &'static str {
        "least_squares"
    }
}

impl Predictor for learn::linreg::Ridge {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        check_batch(xs, self.coefficients().len())?;
        Ok(learn::linreg::Ridge::predict_batch(self, xs))
    }

    fn n_features(&self) -> usize {
        self.coefficients().len()
    }

    fn name(&self) -> &'static str {
        "ridge"
    }
}

impl<K: kernels::Kernel<[f64]> + Clone> Predictor for learn::gp::GpRegressor<K> {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        check_batch(xs, self.n_features())?;
        Ok(learn::gp::GpRegressor::predict_batch(self, xs))
    }

    fn n_features(&self) -> usize {
        learn::gp::GpRegressor::n_features(self)
    }

    fn name(&self) -> &'static str {
        "gp_regressor"
    }
}

impl Predictor for learn::knn::KnnClassifier {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        check_batch(xs, self.n_features())?;
        Ok(learn::knn::KnnClassifier::predict_batch(self, xs).into_iter().map(f64::from).collect())
    }

    fn n_features(&self) -> usize {
        learn::knn::KnnClassifier::n_features(self)
    }

    fn name(&self) -> &'static str {
        "knn_classifier"
    }
}

impl Predictor for learn::knn::KnnRegressor {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        check_batch(xs, self.n_features())?;
        Ok(learn::knn::KnnRegressor::predict_batch(self, xs))
    }

    fn n_features(&self) -> usize {
        learn::knn::KnnRegressor::n_features(self)
    }

    fn name(&self) -> &'static str {
        "knn_regressor"
    }
}

impl Predictor for learn::forest::RandomForestClassifier {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        check_batch(xs, self.n_features())?;
        Ok(learn::forest::RandomForestClassifier::predict_batch(self, xs)
            .into_iter()
            .map(f64::from)
            .collect())
    }

    fn n_features(&self) -> usize {
        learn::forest::RandomForestClassifier::n_features(self)
    }

    fn name(&self) -> &'static str {
        "random_forest"
    }
}

/// One-stop imports for the learning toolkit: the trainer, parameter,
/// model, kernel, [`Predictor`], and [`Error`] types every example
/// starts from.
///
/// ```
/// use edm::prelude::*;
/// ```
pub mod prelude {
    pub use crate::{Error, Predictor};

    pub use crate::persist::{fit_family, load_predictor, LoadedModel, PersistentPredictor};

    pub use crate::kernels::{Kernel, LinearKernel, PolyKernel, RbfKernel};

    pub use crate::svm::{
        OneClassModel, OneClassParams, OneClassSvm, SvcModel, SvcParams, SvcTrainer, SvmError,
        SvrModel, SvrParams, SvrTrainer,
    };

    pub use crate::learn::forest::{ForestParams, RandomForestClassifier};
    pub use crate::learn::gp::GpRegressor;
    pub use crate::learn::knn::{KnnClassifier, KnnRegressor};
    pub use crate::learn::linreg::{LeastSquares, Ridge};
    pub use crate::learn::rules::cn2sd::{learn_rules, Cn2SdParams};
    pub use crate::learn::LearnError;

    pub use crate::novelty::{MahalanobisDetector, NoveltyDetector, NoveltyError};
}
