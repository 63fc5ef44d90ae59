//! Immutable fitted-model snapshots and their atomic publication.
//!
//! A [`ModelSnapshot`] bundles everything one generation of the model
//! needs to answer queries: the merged micro-cluster model, a KDE
//! fitted over it, the (optional) classifier, and the ingest health
//! counters the snapshot was published under. Snapshots are immutable
//! once built; the [`SnapshotStore`] swaps an `Arc` to the newest one,
//! so readers clone the `Arc` under a momentary read lock and then
//! evaluate lock-free against a model that can never change — or tear —
//! under them. Each snapshot carries an FNV-1a checksum over its own
//! identity fields, giving the concurrency stress tests an independent
//! torn-read detector.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use udm_classify::DensityClassifier;
use udm_core::{Result, UdmError};
use udm_kde::BackendSpec;
use udm_microcluster::shard::{AggregateCft, MicroClusterModel};
use udm_microcluster::{CoresetKde, MicroClusterKde};

/// Re-exported ingest counters type carried by each snapshot.
pub use udm_microcluster::ingest::IngestCounters;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv1a_f64s(seed: u64, values: &[f64]) -> u64 {
    let mut h = seed;
    for &v in values {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Order- and representation-stable digest of an aggregate CFT: folds
/// the raw bit patterns of `CF1/CF2/EF2`, the member count and the
/// newest timestamp. Two models digest equal iff their aggregate
/// statistics are bit-identical — the property the kill-and-warm-restart
/// drill asserts over HTTP.
pub fn fingerprint_aggregate(agg: &AggregateCft) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a_f64s(h, &agg.cf1);
    h = fnv1a_f64s(h, &agg.cf2);
    h = fnv1a_f64s(h, &agg.ef2);
    h = fnv1a(h, &agg.n.to_le_bytes());
    fnv1a(h, &agg.last_timestamp.to_le_bytes())
}

/// One immutable generation of the serving model.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotone publication counter (1 = first publish).
    pub generation: u64,
    /// Merged micro-cluster model this generation serves from.
    pub model: MicroClusterModel,
    /// KDE fitted over the model's clusters (`None` until any point has
    /// been ingested — density queries answer 503 meanwhile).
    pub kde: Option<MicroClusterKde>,
    /// Classifier, when the seed dataset was labelled.
    pub classifier: Option<Arc<DensityClassifier>>,
    /// Shard coverage `contributing/S` the model was merged at.
    pub coverage: f64,
    /// Merged ingest counters at publication time.
    pub counters: IngestCounters,
    /// Records offered to the ingest pump when this was published.
    pub ingested: u64,
    /// When the snapshot was published (staleness accounting).
    pub published: Instant,
    /// The density backend this generation serves through by default
    /// (per-request overrides still resolve against the same snapshot).
    pub backend_spec: BackendSpec,
    /// Lazily-built coreset cache keyed by `eps` bits: each reduction of
    /// `kde` runs once per (snapshot, spec), then every query shares the
    /// `Arc`.
    coresets: Mutex<HashMap<u64, Arc<MicroClusterKde>>>,
    checksum: u64,
}

impl ModelSnapshot {
    /// Builds a snapshot, sealing it with its integrity checksum.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        generation: u64,
        model: MicroClusterModel,
        kde: Option<MicroClusterKde>,
        classifier: Option<Arc<DensityClassifier>>,
        coverage: f64,
        counters: IngestCounters,
        ingested: u64,
    ) -> Self {
        let mut snap = ModelSnapshot {
            generation,
            model,
            kde,
            classifier,
            coverage,
            counters,
            ingested,
            published: Instant::now(),
            backend_spec: BackendSpec::Exact,
            coresets: Mutex::new(HashMap::new()),
            checksum: 0,
        };
        snap.checksum = snap.compute_checksum();
        snap
    }

    /// Selects the default density backend this snapshot serves through
    /// (builder-style; the checksum covers identity fields only, so the
    /// spec can be applied after construction).
    #[must_use]
    pub fn with_backend_spec(mut self, spec: BackendSpec) -> Self {
        self.backend_spec = spec;
        self
    }

    /// Runs `answer` against the mixture `spec` selects: the fitted
    /// [`kde`](Self::kde) for `Exact`, its coreset reduction for
    /// `coreset:EPS` (built on first use, then shared through the
    /// per-spec cache — snapshots are immutable, so a built reduction
    /// never goes stale within its generation).
    ///
    /// # Errors
    ///
    /// [`UdmError::EmptyDataset`] while no KDE has been fitted (data
    /// endpoints answer 503 then); spec validation and coreset
    /// construction failures; whatever `answer` returns.
    pub fn with_kde<R>(
        &self,
        spec: &BackendSpec,
        answer: impl FnOnce(&MicroClusterKde) -> Result<R>,
    ) -> Result<R> {
        let kde = self.kde.as_ref().ok_or(UdmError::EmptyDataset)?;
        let eps = match *spec {
            BackendSpec::Exact => return answer(kde),
            BackendSpec::Coreset { eps } => eps,
        };
        let key = eps.to_bits();
        let cached = self
            .coresets
            .lock()
            .ok()
            .and_then(|cache| cache.get(&key).cloned());
        let coreset = match cached {
            Some(coreset) => coreset,
            None => {
                let built = Arc::new(CoresetKde::build(kde, eps)?.into_inner());
                if let Ok(mut cache) = self.coresets.lock() {
                    cache.insert(key, Arc::clone(&built));
                }
                built
            }
        };
        answer(&coreset)
    }

    fn compute_checksum(&self) -> u64 {
        let mut h = fingerprint_aggregate(&self.model.aggregate());
        h = fnv1a(h, &self.generation.to_le_bytes());
        h = fnv1a(h, &self.coverage.to_bits().to_le_bytes());
        h = fnv1a(h, &self.counters.arrivals.to_le_bytes());
        fnv1a(h, &self.ingested.to_le_bytes())
    }

    /// Digest of the aggregate CFT alone (exposed on `/healthz` so the
    /// chaos drill can compare restarted vs. uninterrupted models).
    pub fn model_fingerprint(&self) -> u64 {
        fingerprint_aggregate(&self.model.aggregate())
    }

    /// Re-derives the checksum and compares it with the sealed value.
    /// A mismatch means a reader observed a half-published snapshot —
    /// which the `Arc` swap makes impossible; the stress test asserts
    /// exactly that.
    pub fn verify(&self) -> bool {
        self.compute_checksum() == self.checksum
    }

    /// Seconds since publication.
    pub fn age_seconds(&self) -> f64 {
        self.published.elapsed().as_secs_f64()
    }
}

/// The atomically-swapped publication slot.
///
/// Readers hold the read lock only long enough to clone the `Arc`;
/// evaluation happens entirely outside the lock, so a slow query never
/// delays publication and publication never blocks readers mid-query.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    slot: RwLock<Option<Arc<ModelSnapshot>>>,
}

impl SnapshotStore {
    /// An empty store (no snapshot published yet — the daemon reports
    /// 503 on data endpoints until the pump publishes generation 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current snapshot, if any. Lock-poisoning cannot corrupt an
    /// `Option<Arc>` (writes are a single pointer store), so a poisoned
    /// lock degrades to reading the last published value.
    pub fn load(&self) -> Option<Arc<ModelSnapshot>> {
        self.slot
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Publishes a snapshot, returning its generation.
    pub fn publish(&self, snapshot: ModelSnapshot) -> u64 {
        let generation = snapshot.generation;
        let mut slot = self
            .slot
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(Arc::new(snapshot));
        drop(slot);
        udm_observe::gauge_set!("udm_serve_snapshot_generation", generation as f64);
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use udm_core::UncertainPoint;
    use udm_microcluster::{MaintainerConfig, MicroClusterMaintainer};

    fn model_of(points: usize, offset: f64) -> MicroClusterModel {
        let mut m = MicroClusterMaintainer::new(2, MaintainerConfig::new(4)).unwrap();
        for i in 0..points {
            let p = UncertainPoint::new(vec![offset + i as f64, 1.0], vec![0.1, 0.1])
                .unwrap()
                .with_timestamp(i as u64);
            m.insert(&p).unwrap();
        }
        MicroClusterModel::from_clusters(2, m.into_clusters()).unwrap()
    }

    fn snapshot_of(generation: u64, points: usize, offset: f64) -> ModelSnapshot {
        let model = model_of(points, offset);
        let kde = MicroClusterKde::fit(model.clusters(), udm_kde::KdeConfig::error_adjusted()).ok();
        ModelSnapshot::new(
            generation,
            model,
            kde,
            None,
            1.0,
            IngestCounters::default(),
            points as u64,
        )
    }

    #[test]
    fn snapshot_serves_backends_per_spec() {
        let snap = snapshot_of(1, 12, 0.0).with_backend_spec(BackendSpec::Coreset { eps: 0.2 });
        assert!(snap.verify(), "backend spec must not disturb the checksum");
        let spec = snap.backend_spec;
        let addr = |kde: &MicroClusterKde| Ok(kde as *const MicroClusterKde as usize);
        // The cache hands back the same reduction for the same spec…
        let first = snap.with_kde(&spec, addr).unwrap();
        assert_eq!(snap.with_kde(&spec, addr).unwrap(), first);
        // …and `Exact` reads the fitted KDE itself, bit for bit.
        let kde = snap.kde.as_ref().unwrap();
        let exact = snap.with_kde(&BackendSpec::Exact, addr).unwrap();
        assert_eq!(exact, addr(kde).unwrap());
        assert_ne!(first, exact, "the coreset spec served the fitted KDE");
        // The served reduction is the coreset itself: a fixture that
        // merges nothing could not tell it from the fitted KDE.
        let want = CoresetKde::build(kde, 0.2).unwrap();
        assert!(want.rows() < kde.num_pseudo_points(), "nothing merged");
        let s = udm_core::Subspace::full(2).unwrap();
        let x = [1.0, 1.0];
        let (rows, d_coreset) = snap
            .with_kde(&spec, |kde| {
                Ok((
                    kde.num_pseudo_points(),
                    kde.kernel_columns(&x, None)?.density(s)?,
                ))
            })
            .unwrap();
        assert_eq!(rows, want.rows());
        let d_want = want
            .inner()
            .density_subspace_with_error(&x, None, s)
            .unwrap();
        assert_eq!(d_coreset.to_bits(), d_want.to_bits());
        let d_exact = snap
            .with_kde(&BackendSpec::Exact, |kde| {
                kde.kernel_columns(&x, None)?.density(s)
            })
            .unwrap();
        let d_kde = kde.density_subspace_with_error(&x, None, s).unwrap();
        assert_eq!(d_exact.to_bits(), d_kde.to_bits());
    }

    #[test]
    fn kdeless_snapshot_has_no_backend() {
        let model = model_of(5, 0.0);
        let snap = ModelSnapshot::new(1, model, None, None, 1.0, IngestCounters::default(), 5);
        for spec in [BackendSpec::Exact, BackendSpec::Coreset { eps: 0.1 }] {
            let got = snap.with_kde(&spec, |_| Ok(()));
            assert!(matches!(got, Err(UdmError::EmptyDataset)), "{spec}");
        }
    }

    #[test]
    fn checksum_detects_mutation() {
        let mut snap = snapshot_of(1, 10, 0.0);
        assert!(snap.verify());
        snap.generation += 1;
        assert!(!snap.verify());
    }

    #[test]
    fn fingerprint_tracks_aggregate_bits() {
        let a = snapshot_of(1, 10, 0.0);
        let b = snapshot_of(2, 10, 0.0);
        let c = snapshot_of(1, 10, 5.0);
        // Same stream → same model fingerprint even across generations.
        assert_eq!(a.model_fingerprint(), b.model_fingerprint());
        assert_ne!(a.model_fingerprint(), c.model_fingerprint());
    }

    #[test]
    fn store_publishes_and_loads() {
        let store = SnapshotStore::new();
        assert!(store.load().is_none());
        store.publish(snapshot_of(1, 5, 0.0));
        let got = store.load().unwrap();
        assert_eq!(got.generation, 1);
        assert!(got.verify());
    }

    /// N readers classify-by-loading while a publisher swaps generations:
    /// every observed snapshot verifies, and generations are monotone
    /// per reader (no torn or stale-after-fresh reads).
    #[test]
    fn concurrent_swap_readers_see_only_complete_generations() {
        let store = Arc::new(SnapshotStore::new());
        store.publish(snapshot_of(1, 8, 0.0));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0usize;
                    // Keep going until stopped AND at least one read done
                    // (on a 1-core host the publisher can finish before a
                    // reader is first scheduled).
                    while !stop.load(Ordering::Relaxed) || seen == 0 {
                        let snap = store.load().expect("published before spawn");
                        assert!(snap.verify(), "torn snapshot at gen {}", snap.generation);
                        assert!(snap.generation >= last, "generation went backwards");
                        // Exercise the model through the snapshot too.
                        if let Some(kde) = &snap.kde {
                            let s = udm_core::Subspace::full(2).unwrap();
                            let d = kde
                                .density_subspace_with_error(&[1.0, 1.0], None, s)
                                .unwrap();
                            assert!(d.is_finite());
                        }
                        last = snap.generation;
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        for generation in 2..40 {
            store.publish(snapshot_of(generation, 8, generation as f64));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }
}
