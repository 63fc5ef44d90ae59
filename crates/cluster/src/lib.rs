//! # udm-cluster
//!
//! Density-based clustering of uncertain data — the second application
//! family the paper points at (§3: "clustering algorithms such as DBSCAN
//! … work with joint probability densities as intermediate
//! representations. In all these cases, our approach provides a direct
//! (and scalable) solution to the corresponding problem").
//!
//! Provided:
//!
//! * [`dbscan`] — DBSCAN over uncertain points with an error-adjusted
//!   pairwise distance (the symmetric two-sided extension of Eq. 5),
//! * [`kmeans`] — k-means whose assignment step uses the paper's
//!   error-adjusted point-to-centroid distance (Eq. 5),
//! * [`macro_cluster`](mod@macro_cluster) — the CluStream-style offline phase: weighted
//!   k-means over micro-cluster pseudo-points, `O(q)` per iteration
//!   regardless of stream length,
//! * [`metrics`] — external cluster validation (purity, Rand index,
//!   adjusted Rand index, NMI) used by the clustering benches,
//! * [`outlier`] — density-based anomaly detection: low error-adjusted
//!   density = anomalous, with the point's own ψ discounting surprise.

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

pub mod dbscan;
pub mod kmeans;
pub mod macro_cluster;
pub mod metrics;
pub mod outlier;

pub use dbscan::{Dbscan, DbscanConfig, DbscanResult};
pub use kmeans::{KMeans, KMeansConfig, KMeansResult};
pub use macro_cluster::{macro_cluster, MacroClusterConfig, MacroClusters};
pub use metrics::{adjusted_rand_index, normalized_mutual_information, purity, rand_index};
pub use outlier::{OutlierConfig, OutlierDetector};
