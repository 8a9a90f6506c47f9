//! # edm-linalg — dense linear algebra and statistics for the `edm` workspace
//!
//! A small, dependency-light numeric core: a dense row-major [`Matrix`],
//! vector helpers, the matrix decompositions the learning crates need
//! (Cholesky, LU, QR, symmetric eigen via cyclic Jacobi), descriptive
//! statistics, Gaussian sampling (Box–Muller scalar normals and
//! Cholesky-based multivariate normals), and the lane-parallel
//! reductions the kernel layer scores with: over gathered rows
//! ([`sq_dist_lanes`] and siblings) or over a feature-major
//! [`LanePanel`].
//!
//! Everything is `f64`; the learning workloads in this workspace are
//! numerically small enough (thousands × hundreds) that a cache-tuned BLAS
//! is unnecessary, and keeping the solver code readable is worth more for
//! a reference reproduction.
//!
//! # Example
//!
//! ```
//! use edm_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
//! let chol = a.cholesky()?;
//! let x = chol.solve(&[2.0, 1.0]);
//! // A x = b
//! let b = a.mat_vec(&x);
//! assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
//! # Ok::<(), edm_linalg::LinalgError>(())
//! ```

#![forbid(unsafe_code)]

mod block;
mod cholesky;
mod eigen;
mod error;
mod lu;
mod matrix;
mod panel;
mod qr;
pub mod sample;
pub mod stats;
mod vector;

pub use block::BlockSpec;
pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use panel::LanePanel;
pub use qr::Qr;
pub use sample::{MultivariateNormal, Normal};
pub use vector::{
    axpy, dot, dot_lanes, l1_norm, l2_norm, linf_norm, mean, min_sum, min_sum_lanes, normalize,
    scale, sq_dist, sq_dist_lanes, sub, sum, variance, LANES,
};
