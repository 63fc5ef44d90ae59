//! # udm-kde
//!
//! Kernel density estimation with per-point error adjustment — the
//! *density based transform* at the heart of Aggarwal, ICDE 2007 (§2).
//!
//! Standard KDE replaces each discrete point `X_i` with a smooth bump of
//! width `h` (Eq. 1–2 of the paper). When a per-dimension error estimate
//! `ψ_j(X_i)` is available, the **error-based kernel** (Eq. 3) widens each
//! point's bump by its own error, so unreliable points spread their mass
//! over a wider region and dominate their exact locality less:
//!
//! ```text
//! Q'_h(x − X_i, ψ) ∝ exp( −(x − X_i)² / (2·(h² + ψ²)) )
//! ```
//!
//! The error-based density `f^Q(x)` (Eq. 4) is the average of these kernels,
//! and the multi-dimensional case takes the product over dimensions —
//! including over arbitrary *subspaces*, which is what the subspace
//! classifier in `udm-classify` exploits.
//!
//! Provided here:
//!
//! * [`backend`] — [`BackendSpec`], whose one value `Exact` the perf
//!   ledger still names,
//! * [`kernel`] — classic kernel functions (Gaussian, Epanechnikov, …),
//! * [`error_kernel`] — the paper's error-based Gaussian kernel (Eq. 3) in
//!   both paper-faithful and renormalized forms,
//! * [`bandwidth`] — Silverman / Scott / fixed bandwidth selection,
//! * [`estimator`] — the naive point-based density estimator over
//!   datasets and subspaces (Eqs. 1, 4),
//! * [`columns`] — the factorized per-query kernel-column cache that the
//!   subspace roll-up reuses across every subspace it enumerates, stored
//!   dimension-major (SoA) for SIMD-friendly subspace products; one
//!   constructor, one evaluation loop, and non-finite caches rejected
//!   (its one builder is `MicroClusterKde::kernel_columns` in
//!   `udm-microcluster`),
//! * [`chunked`] — the contiguous inner loops behind the columnar path
//!   (column multiply, ordered reduction, column build),
//! * [`fastexp`] — the kernel exponential: a branch-free `exp` within
//!   `1e-8` absolute of libm, the only one any kernel evaluation calls,
//! * [`grid`] — dense grid evaluation for plotting and numeric checks,
//! * [`quadrature`] — trapezoidal integration used to verify normalization,
//! * [`cdf`] — closed-form CDF/quantile/interval-mass queries for 1-D
//!   mixtures,
//! * [`sampling`] — exact sampling from fitted mixtures.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod ascii;
pub mod backend;
pub mod bandwidth;
pub mod cdf;
pub mod chunked;
pub mod classic;
pub mod columns;
pub mod error_kernel;
pub mod estimator;
pub mod fastexp;
pub mod grid;
pub mod kernel;
pub mod quadrature;
pub mod sampling;

pub use ascii::{chart, sparkline};
pub use backend::BackendSpec;
pub use bandwidth::{silverman_bandwidth, silverman_robust_bandwidth, BandwidthRule};
pub use cdf::{kde_cdf, kde_interval_mass, kde_quantile};
pub use classic::ClassicKde;
pub use columns::KernelColumns;
pub use error_kernel::{ErrorKernelForm, GaussianErrorKernel};
pub use estimator::{ErrorKde, KdeConfig};
pub use fastexp::{fast_exp, FAST_EXP_MAX_ABS_ERROR};
pub use grid::{Grid1D, Grid2D};
pub use kernel::{EpanechnikovKernel, GaussianKernel, Kernel, TriangularKernel, UniformKernel};
pub use sampling::{sample_dataset, sample_one};
