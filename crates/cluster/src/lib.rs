//! # edm-cluster — the clustering a reproduced result uses (paper §2.4)
//!
//! "Clustering is among the most widely used unsupervised learning
//! methods in data mining." Of the families the paper names, one backs a
//! reproduced result, and it is the one kept here:
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding, used by the
//!   Fig. 10 DSTC flow in `edm-core` and the ref \[32\] wafer-pattern
//!   harness.
//!
//! The paper's caveat applies verbatim: "the result may not be robust
//! \[and\] largely depends on the definition of the learning space" — the
//! Fig. 10 DSTC flow demonstrates the point by clustering paths in a
//! (predicted, measured) delay space where the structure is visible.
//!
//! [`metrics`] has silhouette scores, silhouette-based k selection and
//! the Rand index for validating a clustering against ground truth.

#![forbid(unsafe_code)]

pub mod kmeans;
pub mod metrics;

use std::fmt;

/// Errors from clustering.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The input was empty, ragged, or smaller than the requested k.
    InvalidInput(String),
    /// A parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidInput(m) => write!(f, "invalid clustering input: {m}"),
            ClusterError::InvalidParameter { name, value, constraint } => {
                write!(f, "parameter {name} = {value} {constraint}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

pub(crate) fn check_points(x: &[Vec<f64>]) -> Result<usize, ClusterError> {
    if x.is_empty() {
        return Err(ClusterError::InvalidInput("no points".into()));
    }
    let d = x[0].len();
    if x.iter().any(|r| r.len() != d) {
        return Err(ClusterError::InvalidInput("ragged point rows".into()));
    }
    Ok(d)
}
