//! Request handlers: JSON in, JSON out, against the current snapshot.
//!
//! Every data endpoint validates its inputs up front
//! (`ensure_finite_slice` — the vendored JSON deserializer maps a
//! missing `f64` to NaN, so a handler that skipped validation would
//! silently poison the kernel arithmetic), resolves the snapshot once,
//! and evaluates lock-free against it.

use crate::batch::BatchQueue;
use crate::snapshot::{ModelSnapshot, SnapshotStore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use udm_core::num::ensure_finite_slice;
use udm_core::{Result, Subspace, UdmError};
use udm_kde::backend::record_query;
use udm_kde::BackendSpec;

/// A `/density` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DensityRequest {
    /// Query point values.
    pub values: Vec<f64>,
    /// Optional per-dimension query errors ψ(x).
    pub errors: Option<Vec<f64>>,
    /// Subspace dimensions (absent = full space).
    pub dims: Option<Vec<usize>>,
    /// Per-request density backend override (`exact | coreset:EPS`;
    /// absent = the snapshot's default). Overridden requests are
    /// answered inline — they never enter the batch queue, so
    /// default-backend batching stays bit-identical.
    pub backend: Option<String>,
}

/// A `/density` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DensityResponse {
    /// The density estimate.
    pub density: f64,
    /// Snapshot generation that answered.
    pub generation: u64,
    /// Batch size this query was coalesced into (1 = unbatched).
    pub batch_size: usize,
}

/// A `/classify` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifyRequest {
    /// Query point values.
    pub values: Vec<f64>,
    /// Optional per-dimension errors ψ(x).
    pub errors: Option<Vec<f64>>,
    /// Per-request density backend override (absent = the classifier's
    /// runtime default).
    pub backend: Option<String>,
}

/// One class score entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreEntry {
    /// Class label id.
    pub label: u32,
    /// Normalized full-space score.
    pub score: f64,
}

/// A `/classify` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifyResponse {
    /// Predicted label id.
    pub label: u32,
    /// Whether the fallback policy decided.
    pub used_fallback: bool,
    /// Candidate subspaces evaluated by the roll-up.
    pub candidates_evaluated: usize,
    /// Non-overlapping subspaces that voted.
    pub selected: usize,
    /// Normalized class scores (shares the roll-up's column caches).
    pub scores: Vec<ScoreEntry>,
    /// Snapshot generation that answered.
    pub generation: u64,
}

/// A `/cluster` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterRequest {
    /// Query point values.
    pub values: Vec<f64>,
}

/// A `/cluster` response body: the nearest micro-cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterResponse {
    /// Index of the nearest cluster in canonical order.
    pub cluster: usize,
    /// Euclidean distance to its centroid.
    pub distance: f64,
    /// The centroid itself.
    pub centroid: Vec<f64>,
    /// Members absorbed by that cluster.
    pub points: u64,
    /// Snapshot generation that answered.
    pub generation: u64,
}

/// The `/healthz` body, served on both 200 and 503.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthzResponse {
    /// `"ok"` or `"degraded"`.
    pub status: String,
    /// Latest published generation (0 = nothing published yet).
    pub generation: u64,
    /// Shard coverage `contributing/S` of the serving model.
    pub coverage: f64,
    /// Quarantine buffer high-water mark.
    pub quarantine_high_water: u64,
    /// Terminal `ExhaustedRecord` count (retry budget spent).
    pub retry_exhausted: u64,
    /// Records that arrived at the policy engine.
    pub arrivals: u64,
    /// Records admitted into the model (accepted + repaired + released).
    pub admitted: u64,
    /// Points absorbed by the serving model.
    pub points: u64,
    /// FNV-1a digest of the aggregate CFT, hex-encoded — the chaos
    /// drill's bit-identity probe.
    pub model_fingerprint: String,
    /// Seconds since the snapshot was published.
    pub snapshot_age_seconds: f64,
    /// Whether the classifier endpoint is available.
    pub classifier: bool,
    /// The snapshot's default density backend spec (empty until the
    /// first snapshot is published).
    pub backend: String,
}

/// Maps an evaluation error to its HTTP status: caller mistakes are
/// 400s, "not ready yet" is a 503, everything else is a 500.
pub fn status_for(err: &UdmError) -> u16 {
    match err {
        UdmError::DimensionMismatch { .. }
        | UdmError::InvalidValue { .. }
        | UdmError::DimensionOutOfRange { .. }
        | UdmError::SubspaceCapacityExceeded { .. }
        | UdmError::UnknownLabel(_)
        | UdmError::InvalidConfig(_)
        | UdmError::Parse { .. } => 400,
        UdmError::EmptyDataset => 503,
        _ => 500,
    }
}

fn snapshot_or_unready(store: &SnapshotStore) -> Result<Arc<ModelSnapshot>> {
    store.load().ok_or(UdmError::EmptyDataset)
}

fn subspace_of(dims: Option<&[usize]>, dim: usize) -> Result<Subspace> {
    match dims {
        Some(dims) => Subspace::from_dims(dims),
        None => Subspace::full(dim),
    }
}

/// Answers a `/density` request. When a batch queue is wired in and no
/// backend override is present, the query is funneled through it (and
/// may be coalesced with concurrent requests); otherwise the snapshot's
/// mixture for the spec evaluates inline. Queue and inline paths run
/// the same arithmetic under the default backend, so responses are
/// bit-identical. Each answered query is recorded once under its
/// backend's metrics.
///
/// # Errors
///
/// Validation errors (400 class, including malformed backend specs),
/// [`UdmError::EmptyDataset`] before the first snapshot with data
/// (503), evaluation failures.
pub fn handle_density(
    store: &SnapshotStore,
    queue: Option<&BatchQueue>,
    req: &DensityRequest,
) -> Result<DensityResponse> {
    ensure_finite_slice("density query values", &req.values)?;
    if let Some(errors) = &req.errors {
        ensure_finite_slice("density query errors", errors)?;
        if errors.len() != req.values.len() {
            return Err(UdmError::DimensionMismatch {
                expected: req.values.len(),
                actual: errors.len(),
            });
        }
    }
    let started = Instant::now();
    let snap = snapshot_or_unready(store)?;
    let subspace = subspace_of(req.dims.as_deref(), req.values.len())?;
    let spec = match req.backend.as_deref() {
        Some(text) => BackendSpec::parse(text)?,
        None => snap.backend_spec,
    };
    let answered = match queue {
        Some(queue) if req.backend.is_none() => {
            let reply = queue.submit(req.values.clone(), req.errors.clone(), subspace)?;
            DensityResponse {
                density: reply.density,
                generation: snap.generation,
                batch_size: reply.batch_size,
            }
        }
        _ => snap.with_kde(&spec, |kde| {
            Ok(DensityResponse {
                density: kde
                    .kernel_columns(&req.values, req.errors.as_deref())?
                    .density(subspace)?,
                generation: snap.generation,
                batch_size: 1,
            })
        })?,
    };
    record_query(&spec, started.elapsed().as_secs_f64());
    Ok(answered)
}

/// Answers a `/classify` request via `classify_scored` (decision and
/// scores share one set of kernel-column caches).
///
/// # Errors
///
/// Validation errors, [`UdmError::EmptyDataset`] when no classifier is
/// loaded (unlabelled seed data or nothing published yet).
pub fn handle_classify(store: &SnapshotStore, req: &ClassifyRequest) -> Result<ClassifyResponse> {
    ensure_finite_slice("classify query values", &req.values)?;
    if let Some(errors) = &req.errors {
        ensure_finite_slice("classify query errors", errors)?;
    }
    let snap = snapshot_or_unready(store)?;
    let classifier = snap.classifier.as_ref().ok_or(UdmError::EmptyDataset)?;
    let errors = req
        .errors
        .clone()
        .unwrap_or_else(|| vec![0.0; req.values.len()]);
    let point = udm_core::UncertainPoint::new(req.values.clone(), errors)?;
    let (outcome, scores) = match req.backend.as_deref() {
        Some(text) => {
            let spec = BackendSpec::parse(text)?;
            classifier.classify_scored_with_backend(&point, &spec)?
        }
        None => classifier.classify_scored(&point)?,
    };
    Ok(ClassifyResponse {
        label: outcome.label.id(),
        used_fallback: outcome.used_fallback,
        candidates_evaluated: outcome.candidates_evaluated,
        selected: outcome.selected.len(),
        scores: scores
            .into_iter()
            .map(|(label, score)| ScoreEntry {
                label: label.id(),
                score,
            })
            .collect(),
        generation: snap.generation,
    })
}

/// Answers a `/cluster` request: nearest micro-cluster centroid by
/// Euclidean distance.
///
/// # Errors
///
/// Validation errors, [`UdmError::EmptyDataset`] while the model holds
/// no clusters.
pub fn handle_cluster(store: &SnapshotStore, req: &ClusterRequest) -> Result<ClusterResponse> {
    ensure_finite_slice("cluster query values", &req.values)?;
    let snap = snapshot_or_unready(store)?;
    if req.values.len() != snap.model.dim() {
        return Err(UdmError::DimensionMismatch {
            expected: snap.model.dim(),
            actual: req.values.len(),
        });
    }
    let mut best: Option<(usize, f64, Vec<f64>, u64)> = None;
    for (i, c) in snap.model.clusters().iter().enumerate() {
        let Some(centroid) = c.centroid() else {
            continue;
        };
        let d2: f64 = centroid
            .iter()
            .zip(req.values.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let closer = match &best {
            Some((_, bd, _, _)) => d2 < *bd,
            None => true,
        };
        if closer {
            best = Some((i, d2, centroid, c.n()));
        }
    }
    let (cluster, d2, centroid, points) = best.ok_or(UdmError::EmptyDataset)?;
    Ok(ClusterResponse {
        cluster,
        distance: d2.sqrt(),
        centroid,
        points,
        generation: snap.generation,
    })
}

/// Builds the `/healthz` body and its status code. Degrades to 503
/// when nothing is published yet or shard coverage has fallen below
/// `min_coverage` (a dead fault domain past its staleness budget).
pub fn handle_healthz(store: &SnapshotStore, min_coverage: f64) -> (u16, HealthzResponse) {
    match store.load() {
        None => (
            503,
            HealthzResponse {
                status: "degraded".into(),
                generation: 0,
                coverage: 0.0,
                quarantine_high_water: 0,
                retry_exhausted: 0,
                arrivals: 0,
                admitted: 0,
                points: 0,
                model_fingerprint: String::new(),
                snapshot_age_seconds: 0.0,
                classifier: false,
                backend: String::new(),
            },
        ),
        Some(snap) => {
            let healthy = snap.coverage >= min_coverage;
            let body = HealthzResponse {
                status: if healthy { "ok" } else { "degraded" }.into(),
                generation: snap.generation,
                coverage: snap.coverage,
                quarantine_high_water: snap.counters.quarantine_high_water,
                retry_exhausted: snap.counters.retry_exhausted,
                arrivals: snap.counters.arrivals,
                admitted: snap.counters.admitted(),
                points: snap.model.total_points(),
                model_fingerprint: format!("{:016x}", snap.model_fingerprint()),
                snapshot_age_seconds: snap.age_seconds(),
                classifier: snap.classifier.is_some(),
                backend: snap.backend_spec.to_string(),
            };
            (if healthy { 200 } else { 503 }, body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::IngestCounters;
    use udm_classify::{ClassifierConfig, DensityClassifier};
    use udm_core::{ClassLabel, UncertainPoint};
    use udm_data::{GaussianClassSpec, MixtureGenerator};
    use udm_microcluster::shard::MicroClusterModel;
    use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

    fn labelled_store() -> SnapshotStore {
        let g = MixtureGenerator::new(
            2,
            vec![
                GaussianClassSpec {
                    mean: vec![0.0, 0.0],
                    std: vec![1.0, 1.0],
                    weight: 1.0,
                },
                GaussianClassSpec {
                    mean: vec![5.0, 5.0],
                    std: vec![1.0, 1.0],
                    weight: 1.0,
                },
            ],
        )
        .unwrap();
        let train = g.generate(200, 7);
        let classifier =
            DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(30)).unwrap();
        let mut m = MicroClusterMaintainer::new(2, MaintainerConfig::new(10)).unwrap();
        for (i, p) in train.points().iter().enumerate() {
            m.insert(&p.clone().with_timestamp(i as u64)).unwrap();
        }
        let model = MicroClusterModel::from_clusters(2, m.into_clusters()).unwrap();
        let kde = MicroClusterKde::fit(model.clusters(), udm_kde::KdeConfig::error_adjusted()).ok();
        let store = SnapshotStore::new();
        store.publish(crate::snapshot::ModelSnapshot::new(
            3,
            model,
            kde,
            Some(std::sync::Arc::new(classifier)),
            1.0,
            IngestCounters::default(),
            200,
        ));
        store
    }

    #[test]
    fn density_inline_answers_and_validates() {
        let store = labelled_store();
        let ok = handle_density(
            &store,
            None,
            &DensityRequest {
                values: vec![0.5, 0.5],
                errors: None,
                dims: None,
                backend: None,
            },
        )
        .unwrap();
        assert!(ok.density.is_finite() && ok.density > 0.0);
        assert_eq!(ok.batch_size, 1);
        assert_eq!(ok.generation, 3);

        let nan = handle_density(
            &store,
            None,
            &DensityRequest {
                values: vec![f64::NAN, 0.0],
                errors: None,
                dims: None,
                backend: None,
            },
        );
        assert!(nan.is_err());
        assert_eq!(status_for(&nan.unwrap_err()), 400);

        let lopsided = handle_density(
            &store,
            None,
            &DensityRequest {
                values: vec![0.5, 0.5],
                errors: Some(vec![0.1]),
                dims: None,
                backend: None,
            },
        );
        assert!(lopsided.is_err());
    }

    #[test]
    fn density_subspace_matches_kde() {
        let store = labelled_store();
        let snap = store.load().unwrap();
        let kde = snap.kde.as_ref().unwrap();
        let want = kde
            .kernel_columns(&[1.0, 2.0], None)
            .unwrap()
            .density(Subspace::from_dims(&[1]).unwrap())
            .unwrap();
        let got = handle_density(
            &store,
            None,
            &DensityRequest {
                values: vec![1.0, 2.0],
                errors: None,
                dims: Some(vec![1]),
                backend: None,
            },
        )
        .unwrap();
        assert_eq!(got.density.to_bits(), want.to_bits());
    }

    #[test]
    fn classify_agrees_with_direct_model_call() {
        let store = labelled_store();
        let snap = store.load().unwrap();
        let classifier = snap.classifier.as_ref().unwrap();
        let x = UncertainPoint::new(vec![5.0, 4.5], vec![0.0, 0.0]).unwrap();
        let want = classifier.classify_detailed(&x).unwrap();
        let got = handle_classify(
            &store,
            &ClassifyRequest {
                values: vec![5.0, 4.5],
                errors: None,
                backend: None,
            },
        )
        .unwrap();
        assert_eq!(got.label, want.label.id());
        assert_eq!(got.used_fallback, want.used_fallback);
        assert_eq!(ClassLabel(got.label), want.label);
        assert_eq!(got.scores.len(), 2);
        let total: f64 = got.scores.iter().map(|s| s.score).sum();
        assert!((total - 1.0).abs() < 1e-9 || total.abs() < 1e-12);
    }

    #[test]
    fn density_backend_override_serves_inline() {
        let store = labelled_store();
        let base = DensityRequest {
            values: vec![0.5, 0.5],
            errors: None,
            dims: None,
            backend: None,
        };
        let default = handle_density(&store, None, &base).unwrap();

        // An explicit exact override is bit-identical to the default.
        let exact = handle_density(
            &store,
            None,
            &DensityRequest {
                backend: Some("exact".into()),
                ..base.clone()
            },
        )
        .unwrap();
        assert_eq!(exact.density.to_bits(), default.density.to_bits());

        // A coreset override answers with a finite positive estimate.
        let coreset = handle_density(
            &store,
            None,
            &DensityRequest {
                backend: Some("coreset:0.05".into()),
                ..base.clone()
            },
        )
        .unwrap();
        assert!(coreset.density.is_finite() && coreset.density > 0.0);

        // A malformed or removed spec is a caller mistake, not a server
        // fault.
        for spec in ["coreset:nope", "hbe:0.2", "hbe:0.2,0.05"] {
            let bad = handle_density(
                &store,
                None,
                &DensityRequest {
                    backend: Some(spec.into()),
                    ..base.clone()
                },
            );
            assert_eq!(status_for(&bad.unwrap_err()), 400, "{spec}");
        }
    }

    #[test]
    fn classify_backend_override_matches_default_for_exact() {
        let store = labelled_store();
        let base = ClassifyRequest {
            values: vec![5.0, 4.5],
            errors: None,
            backend: None,
        };
        let default = handle_classify(&store, &base).unwrap();
        let exact = handle_classify(
            &store,
            &ClassifyRequest {
                backend: Some("exact".into()),
                ..base.clone()
            },
        )
        .unwrap();
        assert_eq!(exact.label, default.label);
        for (a, b) in exact.scores.iter().zip(default.scores.iter()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        // A coreset override still classifies the far mode correctly.
        let coreset = handle_classify(
            &store,
            &ClassifyRequest {
                backend: Some("coreset:0.05".into()),
                ..base.clone()
            },
        )
        .unwrap();
        assert_eq!(coreset.label, default.label);

        // A removed spec is rejected as a caller mistake.
        let removed = handle_classify(
            &store,
            &ClassifyRequest {
                backend: Some("hbe:0.2".into()),
                ..base
            },
        );
        assert_eq!(status_for(&removed.unwrap_err()), 400);
    }

    #[test]
    fn cluster_finds_a_nearest_centroid() {
        let store = labelled_store();
        let got = handle_cluster(
            &store,
            &ClusterRequest {
                values: vec![5.0, 5.0],
            },
        )
        .unwrap();
        assert_eq!(got.centroid.len(), 2);
        assert!(got.distance.is_finite());
        assert!(got.points > 0);
        // A query at the far mode must resolve to a centroid near it.
        assert!(got.centroid[0] > 2.0, "centroid {:?}", got.centroid);
    }

    #[test]
    fn healthz_degrades_without_snapshot_and_below_coverage() {
        let empty = SnapshotStore::new();
        let (code, body) = handle_healthz(&empty, 1.0);
        assert_eq!(code, 503);
        assert_eq!(body.status, "degraded");

        let store = labelled_store();
        let (code, body) = handle_healthz(&store, 1.0);
        assert_eq!(code, 200);
        assert_eq!(body.status, "ok");
        assert_eq!(body.points, 200);
        assert!(body.classifier);
        assert_eq!(body.model_fingerprint.len(), 16);
        assert_eq!(body.backend, "exact");

        // Same store judged against an impossible coverage floor.
        let (code, body) = handle_healthz(&store, 1.5);
        assert_eq!(code, 503);
        assert_eq!(body.status, "degraded");
    }
}
