//! # udm-classify
//!
//! Density-based subspace classification of uncertain data — the concrete
//! application the paper builds on top of its error-adjusted density
//! transform (§3, Figure 3).
//!
//! For a test point `x`, the classifier searches for the subspaces `S` in
//! which the *instance-specific local accuracy* of some class is high:
//!
//! ```text
//! A(x, S, l_i) = |D_i| · g(x, S, D_i) / (|D| · g(x, S, D))     (Eq. 11)
//! ```
//!
//! where `g(·, S, ·)` are error-adjusted micro-cluster densities evaluated
//! over `S` only. Candidate subspaces are enumerated bottom-up
//! Apriori-style (`C_{i+1} = L_i ⋈ L_1`), thresholded at accuracy `a`, and
//! the label is the majority vote of the dominant classes of greedily
//! selected non-overlapping high-accuracy subspaces.
//!
//! Three classifiers are provided:
//!
//! * [`DensityClassifier`] — the paper's method (error-adjusted),
//! * the same with [`ClassifierConfig::unadjusted`] — the paper's
//!   "no error adjustment" baseline (identical code path, ψ ≡ 0),
//! * [`NnClassifier`] — the nearest-neighbor baseline.
//!
//! [`eval`] evaluates any [`Classifier`] (accuracy, confusion matrix,
//! timing), splitting large test sets over the host's cores.
//! [`degraded`] measures how much accuracy survives when the training
//! stream is corrupted and repaired by the fault-tolerant ingest
//! pipeline.

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

pub mod config;
pub mod degraded;
pub mod eval;
pub mod kfold;
pub mod model;
pub mod naive;
pub mod nn;
pub mod rollup;
pub mod subspace_select;
pub mod tune;

pub use config::{ClassifierConfig, Fallback};
pub use degraded::{
    evaluate_degraded, evaluate_sharded_degraded, survivors_of, ChaosSetup, DegradationReport,
    ShardedDegradationReport,
};
pub use eval::{evaluate, Classifier, EvalReport};
pub use kfold::{cross_validate, CrossValidationReport};
pub use model::{ClassificationOutcome, DensityClassifier};
pub use naive::NaiveDensityBayes;
pub use nn::NnClassifier;
pub use rollup::{AccuracyOracle, DiscriminativeSubspace, RollupLimits};
pub use subspace_select::select_non_overlapping;
pub use tune::{tune_threshold, ThresholdSweep, DEFAULT_THRESHOLD_GRID};
