//! # udm-microcluster
//!
//! Error-based micro-clustering (§2.1 of Aggarwal, ICDE 2007): the
//! compression substrate that makes error-adjusted density estimation
//! scale to very large data sets and streams.
//!
//! The paper condenses a data set into `q` micro-clusters, each summarized
//! by the additive sufficient statistics of **Definition 1**:
//!
//! ```text
//! CFT(C) = ( CF2x(C), EF2x(C), CF1x(C), n(C) )
//! ```
//!
//! where, per dimension `p`: `CF2x_p = Σ (x_p)²`, `EF2x_p = Σ ψ_p(X)²`,
//! `CF1x_p = Σ x_p`, and `n` is the member count. Incoming points are
//! assigned to the closest of the `q` centroids under the
//! **error-adjusted distance** of Eq. 5, and each micro-cluster is then
//! treated as a single *pseudo-point* whose error combines the cluster's
//! internal variance (bias) with its members' errors (**Lemma 1**):
//!
//! ```text
//! Δ_j(C)² = CF2x_j/r − (CF1x_j/r)² + EF2_j/r
//! ```
//!
//! The weighted mixture of error-based kernels over pseudo-points (Eqs.
//! 9–10) approximates the exact point-based density of `udm-kde` at a cost
//! proportional to `q` instead of `N`.
//!
//! Modules:
//!
//! * [`feature`] — the `CFT` statistics ([`MicroCluster`]), additive and
//!   mergeable,
//! * [`distance`] — Eq. 5 and baselines/ablations,
//! * [`maintainer`] — single-pass streaming maintenance with `q` fixed
//!   clusters (never created after warm-up, never discarded),
//! * [`pseudo`] — Lemma 1 pseudo-points,
//! * [`density`] — the micro-cluster density estimator (Eqs. 9–10),
//! * [`backend`] — [`CoresetKde`], the certified reduction that answers
//!   `coreset:EPS` (`exact` reads [`MicroClusterKde`] itself),
//! * [`snapshot`] — JSON persistence of maintainer state,
//! * [`ingest`] — fault-tolerant ingest: per-record Accept / Repair /
//!   Quarantine / Reject verdicts under a configurable degradation
//!   policy,
//! * [`checkpoint`] — versioned, checksummed checkpoints with atomic
//!   writes and replay-aware crash recovery,
//! * [`diagnostics`] — summary-health reporting (occupancy balance,
//!   radii, error mass) and ingest-policy counters,
//! * [`pyramid`] — the CluStream pyramidal time frame: geometrically
//!   spaced snapshots with additive subtraction for horizon queries,
//! * [`shard`] — sharded fault-domain ingest: mergeable model partials
//!   ([`MicroClusterModel`]), a shard supervisor with retry/backoff and
//!   warm restarts, and degraded-mode serving with a coverage fraction.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod checkpoint;
pub mod density;
pub mod diagnostics;
pub mod distance;
pub mod feature;
pub mod ingest;
pub mod maintainer;
pub mod pseudo;
pub mod pyramid;
pub mod shard;
pub mod snapshot;

pub use backend::CoresetKde;
pub use checkpoint::{
    load_checkpoint, load_checkpoint_with_fallback, save_checkpoint, CheckpointDriver,
    CheckpointPayload, SCHEMA_VERSION,
};
pub use density::MicroClusterKde;
pub use diagnostics::{diagnose, diagnose_ingest, IngestDiagnostics, SummaryDiagnostics};
pub use distance::AssignmentDistance;
pub use feature::MicroCluster;
pub use ingest::{
    AdmittedRecord, ExhaustedRecord, IngestCounters, IngestPolicy, Observed, QuarantinedRecord,
    ResilientIngestor, Verdict,
};
pub use maintainer::{ConcurrentMaintainer, MaintainerConfig, MicroClusterMaintainer};
pub use pseudo::PseudoPoint;
pub use pyramid::{subtract_clusters, subtract_snapshots, PyramidalStore, TimedSnapshot};
pub use shard::{
    AggregateCft, KillPlan, MicroClusterModel, ShardPlan, ShardRunReport, ShardState,
    ShardSupervisor,
};
