//! # udm-serve
//!
//! Long-lived serving daemon for the density-based transforms: the
//! layer that turns the one-shot CLI pipeline (fit → query → exit)
//! into an online inference stack answering `/classify`, `/density`,
//! `/cluster`, `/healthz` and `/metrics` over a minimal hand-rolled
//! HTTP/1.1 protocol — no network dependencies beyond `std::net`.
//!
//! Architecture, in one pass through a request:
//!
//! 1. **Snapshots** ([`snapshot`]): the background ingest pump
//!    periodically merges the sharded micro-cluster partials, fits a
//!    KDE over them, and publishes the result as an immutable
//!    [`ModelSnapshot`] behind an atomically swapped `Arc`. Readers
//!    clone the `Arc` and evaluate lock-free; a publication can never
//!    tear a model a reader is using.
//! 2. **Batching** ([`batch`]): concurrent `/density` queries funnel
//!    through one worker that drains whatever has queued up, dedups by
//!    exact query identity, and builds each `KernelColumns` cache once
//!    per unique query — bit-identical to one-at-a-time evaluation,
//!    minus the redundant cache builds.
//! 3. **Ingest** ([`pump`]): the PR-8 `ShardSupervisor` over the PR-3
//!    quarantine/repair policy engine, fed in chunks; each chunk ends
//!    with a refreshed snapshot generation.
//! 4. **Warm restart**: on startup over a state directory that already
//!    holds per-shard checkpoints, the pump recovers them (latest, with
//!    `.prev` fallback), serves the recovered model immediately and
//!    re-offers the stream — replay-aware drivers fast-forward the
//!    checkpointed prefix, reproducing an uninterrupted run's CFT
//!    statistics bit for bit.
//! 5. **Shutdown** ([`signal`], [`Server::shutdown_graceful`]):
//!    SIGTERM/ctrl-c latch an atomic; the server drains in-flight
//!    requests, flushes final checkpoints and reports the durable
//!    resume cursors.

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

pub mod batch;
pub mod handlers;
pub mod http;
pub mod pump;
pub mod server;
pub mod signal;
pub mod snapshot;

pub use batch::{BatchConfig, BatchQueue, DensityReply};
pub use handlers::{
    ClassifyRequest, ClassifyResponse, ClusterRequest, ClusterResponse, DensityRequest,
    DensityResponse, HealthzResponse, ScoreEntry,
};
pub use http::{Request, Response};
pub use pump::{FinalReport, IngestPump, PumpConfig, PumpControl};
pub use server::{ServeConfig, ServeSeed, Server};
pub use snapshot::{fingerprint_aggregate, ModelSnapshot, SnapshotStore};
