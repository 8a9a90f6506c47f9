//! # edm-data — datasets, preprocessing, and evaluation metrics
//!
//! Implements the "dataset seen by a learning algorithm" of the paper's
//! Figure 1: a sample matrix `X` with an optional target that may be a
//! class label vector, a continuous `y`, or a full matrix `Y`
//! (multivariate regression / CCA-style setups).
//!
//! On top of the dataset type this crate provides the preprocessing and
//! evaluation the flows and harnesses use:
//!
//! * seeded train/test, stratified and k-fold splitting ([`split`])
//! * z-score and min–max feature scaling ([`scale`])
//! * accuracy, RMSE and R² ([`metrics`])
//!
//! # Example
//!
//! ```
//! use edm_data::{Dataset, Target};
//!
//! let ds = Dataset::from_rows(
//!     vec![vec![1.0, 2.0], vec![3.0, 4.0]],
//!     Target::Labels(vec![0, 1]),
//! );
//! assert_eq!(ds.n_samples(), 2);
//! assert_eq!(ds.n_features(), 2);
//! assert_eq!(ds.labels().unwrap(), &[0, 1]);
//! ```

#![forbid(unsafe_code)]

mod dataset;
pub mod metrics;
pub mod scale;
pub mod split;

pub use dataset::{Dataset, DatasetError, Target};
pub use scale::{MinMaxScaler, StandardScaler};
pub use split::{train_test_split, KFold, StratifiedSplit, TrainTest};
