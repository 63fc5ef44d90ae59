//! Background ingest: feeds the stream through the sharded policy
//! engine and periodically publishes refreshed model snapshots.
//!
//! The pump owns a [`ShardSupervisor`] (PR-8 fault domains over the
//! PR-3 quarantine/repair policy engine) and a record stream. It offers
//! the stream in chunks; after each chunk it merges the shard partials
//! (`serve()`), fits a fresh KDE and publishes the result as the next
//! snapshot generation. On a warm restart the supervisor is built with
//! [`ShardSupervisor::recover`]: the per-shard checkpoints (latest,
//! with `.prev` fallback) become replay cursors, the *recovered* model
//! is published immediately — the server answers queries from it while
//! replay proceeds — and re-offering the stream from `seq` 0 fast-
//! forwards everything already checkpointed, reproducing an
//! uninterrupted run's CFT statistics bit for bit.

use crate::snapshot::{ModelSnapshot, SnapshotStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use udm_classify::DensityClassifier;
use udm_core::{Result, UdmError};
use udm_data::fault::RawRecord;
use udm_kde::{BackendSpec, KdeConfig};
use udm_microcluster::ingest::{IngestCounters, IngestPolicy};
use udm_microcluster::shard::{KillPlan, ShardPlan, ShardRunReport, ShardSupervisor};
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterModel};

/// Cooperative stop flags shared between the server and the pump loop.
#[derive(Debug, Default)]
pub struct PumpControl {
    /// Finish the stream position reached, flush final checkpoints and
    /// return a [`FinalReport`].
    pub graceful: AtomicBool,
    /// Abandon in-memory state immediately (simulated crash: on-disk
    /// checkpoints are left exactly as the last cadence wrote them).
    pub hard: AtomicBool,
}

/// What a graceful shutdown hands back to the caller.
#[derive(Debug)]
pub struct FinalReport {
    /// The merged model at shutdown.
    pub model: MicroClusterModel,
    /// Shard coverage the model was merged at.
    pub coverage: f64,
    /// Merged ingest counters.
    pub counters: IngestCounters,
    /// Per-shard checkpointed resume positions (after the final flush,
    /// these cover every record the pump was offered).
    pub next_seqs: Vec<u64>,
    /// Records offered to the supervisor over the pump's lifetime.
    pub offered: u64,
    /// Run report (restarts, states, lag) at shutdown.
    pub report: ShardRunReport,
}

/// Knobs for the pump.
#[derive(Debug, Clone)]
pub struct PumpConfig {
    /// Records offered between snapshot publishes.
    pub refresh_every: usize,
    /// Fault plan forwarded to the supervisor (degradation drills; the
    /// chunked pump supports `none` and `permanently_down` plans).
    pub kill_plan: KillPlan,
    /// Stop offering records after this many (test hook: holds the pump
    /// mid-stream deterministically so a kill lands between records).
    pub ingest_limit: Option<usize>,
    /// Sleep between chunks (throttles ingest so chaos drills can catch
    /// the pump mid-stream; zero for full speed).
    pub chunk_delay: Duration,
    /// The density backend every published snapshot serves through by
    /// default (and the classifier's default, when one is attached).
    pub backend: BackendSpec,
}

impl Default for PumpConfig {
    fn default() -> Self {
        PumpConfig {
            refresh_every: 64,
            kill_plan: KillPlan::none(),
            ingest_limit: None,
            chunk_delay: Duration::ZERO,
            backend: BackendSpec::Exact,
        }
    }
}

/// The background ingest pump.
pub struct IngestPump {
    supervisor: ShardSupervisor,
    records: Vec<RawRecord>,
    position: usize,
    generation: u64,
    classifier: Option<Arc<DensityClassifier>>,
    kde_config: KdeConfig,
    config: PumpConfig,
    /// Whether the supervisor was recovered from checkpoints.
    pub warm: bool,
}

impl IngestPump {
    /// Builds the pump, recovering from checkpoints under `plan.dir`
    /// when any exist (warm restart) and cold-starting otherwise.
    ///
    /// # Errors
    ///
    /// Plan/config validation and checkpoint recovery errors.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dim: usize,
        maintainer: MaintainerConfig,
        policy: IngestPolicy,
        plan: ShardPlan,
        records: Vec<RawRecord>,
        classifier: Option<Arc<DensityClassifier>>,
        kde_config: KdeConfig,
        config: PumpConfig,
    ) -> Result<Self> {
        config.backend.validate()?;
        if let Some(c) = &classifier {
            // The classifier's default backend follows the pump's, so
            // `/classify` without an override and the CLI agree.
            c.set_backend(config.backend)?;
        }
        let warm = plan.has_checkpoints();
        let supervisor = if warm {
            ShardSupervisor::recover(dim, maintainer, policy, plan)?
        } else {
            ShardSupervisor::new(dim, maintainer, policy, plan)?
        };
        Ok(IngestPump {
            supervisor,
            records,
            position: 0,
            generation: 0,
            classifier,
            kde_config,
            config,
            warm,
        })
    }

    /// Merges the current shard partials into the next snapshot and
    /// publishes it.
    ///
    /// # Errors
    ///
    /// Merge failures from degraded checkpoint loads.
    pub fn publish(&mut self, store: &SnapshotStore) -> Result<u64> {
        let (model, coverage) = self.supervisor.serve()?;
        let kde = match MicroClusterKde::fit(model.clusters(), self.kde_config) {
            Ok(kde) => Some(kde),
            // An empty model (nothing admitted yet) is the expected
            // cold-start state: publish without a KDE; density/classify
            // answer 503 until data arrives.
            Err(UdmError::EmptyDataset) => None,
            Err(err) => {
                // Any other failure is a real problem — surface it
                // instead of silently serving a density-less snapshot.
                udm_observe::counter_inc!("udm_serve_kde_fit_failures_total");
                eprintln!(
                    "udm-serve: KDE fit failed at generation {}: {err} (publishing without density)",
                    self.generation + 1
                );
                None
            }
        };
        let counters = self.supervisor.report().merged_counters();
        self.generation += 1;
        let snapshot = ModelSnapshot::new(
            self.generation,
            model,
            kde,
            self.classifier.clone(),
            coverage,
            counters,
            self.supervisor.report().offered,
        )
        .with_backend_spec(self.config.backend);
        udm_observe::gauge_set!("udm_serve_coverage", coverage);
        Ok(store.publish(snapshot))
    }

    /// Offers the next chunk. Returns `false` when the stream (or the
    /// configured ingest limit) is exhausted.
    ///
    /// # Errors
    ///
    /// Supervisor restart/checkpoint failures.
    pub fn step(&mut self) -> Result<bool> {
        let limit = self
            .config
            .ingest_limit
            .unwrap_or(self.records.len())
            .min(self.records.len());
        if self.position >= limit {
            return Ok(false);
        }
        let end = (self.position + self.config.refresh_every).min(limit);
        self.supervisor
            .run(&self.records[self.position..end], &self.config.kill_plan)?;
        self.position = end;
        Ok(true)
    }

    /// The pump thread body: publish the initial (empty or recovered)
    /// snapshot, then alternate chunk ingest with snapshot publishes
    /// until told to stop. Graceful stop flushes final checkpoints and
    /// returns a report; hard stop abandons state like a crash.
    ///
    /// # Errors
    ///
    /// Ingest or merge failures (the server surfaces them on shutdown).
    pub fn run(
        mut self,
        store: &SnapshotStore,
        control: &PumpControl,
    ) -> Result<Option<FinalReport>> {
        self.publish(store)?;
        loop {
            if control.hard.load(Ordering::SeqCst) {
                return Ok(None);
            }
            if control.graceful.load(Ordering::SeqCst) {
                break;
            }
            if self.step()? {
                self.publish(store)?;
                if !self.config.chunk_delay.is_zero() {
                    std::thread::sleep(self.config.chunk_delay);
                }
            } else {
                // Stream exhausted (or held at the ingest limit): stay
                // alive serving the latest snapshot.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // The cursors the final checkpoints will persist: `finish` writes
        // each shard's state at exactly these positions.
        let next_seqs = self.supervisor.next_seqs();
        let offered = self.supervisor.report().offered;
        let (model, coverage, report) = self.supervisor.finish()?;
        let counters = report.merged_counters();
        Ok(Some(FinalReport {
            model,
            coverage,
            counters,
            next_seqs,
            offered,
            report,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udm_core::UncertainPoint;

    fn records(n: u64, dim: usize) -> Vec<RawRecord> {
        (0..n)
            .map(|i| {
                let v: Vec<f64> = (0..dim).map(|j| (i as f64) * 0.1 + j as f64).collect();
                let e = vec![0.1; dim];
                let p = UncertainPoint::new(v, e).unwrap().with_timestamp(i);
                RawRecord::from_point(i, &p)
            })
            .collect()
    }

    fn plan(name: &str, shards: usize) -> ShardPlan {
        let dir = std::env::temp_dir()
            .join("udm_serve_pump_test")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ShardPlan {
            checkpoint_every: 8,
            backoff_base_ms: 0,
            ..ShardPlan::new(shards, dir)
        }
    }

    fn pump(plan: ShardPlan, records: Vec<RawRecord>, config: PumpConfig) -> IngestPump {
        IngestPump::new(
            2,
            MaintainerConfig::new(6),
            IngestPolicy::default(),
            plan,
            records,
            None,
            KdeConfig::error_adjusted(),
            config,
        )
        .unwrap()
    }

    #[test]
    fn pump_publishes_refreshed_generations_and_finishes_clean() {
        let store = SnapshotStore::new();
        let p = plan("refresh", 2);
        let mut pump = pump(
            p,
            records(100, 2),
            PumpConfig {
                refresh_every: 25,
                ..PumpConfig::default()
            },
        );
        assert!(!pump.warm);
        pump.publish(&store).unwrap();
        let g1 = store.load().unwrap();
        assert_eq!(g1.generation, 1);
        assert!(g1.kde.is_none(), "no data ingested yet");
        while pump.step().unwrap() {
            pump.publish(&store).unwrap();
        }
        let last = store.load().unwrap();
        assert!(last.generation >= 5);
        assert_eq!(last.model.total_points(), 100);
        assert!(last.kde.is_some());
        assert!(last.verify());
    }

    #[test]
    fn pump_stamps_snapshots_with_its_backend_spec() {
        let store = SnapshotStore::new();
        let p = plan("backend", 2);
        let mut pump = pump(
            p,
            records(60, 2),
            PumpConfig {
                refresh_every: 30,
                backend: BackendSpec::Coreset { eps: 0.25 },
                ..PumpConfig::default()
            },
        );
        while pump.step().unwrap() {
            pump.publish(&store).unwrap();
        }
        let snap = store.load().unwrap();
        assert_eq!(snap.backend_spec, BackendSpec::Coreset { eps: 0.25 });
        // The fixture must merge something, or a spec-blind snapshot
        // serving the fitted KDE would pass.
        let kde = snap.kde.as_ref().unwrap();
        let want = udm_microcluster::CoresetKde::build(kde, 0.25).unwrap();
        assert!(want.rows() < kde.num_pseudo_points(), "nothing merged");
        let served = snap
            .with_kde(&snap.backend_spec, |kde| Ok(kde.num_pseudo_points()))
            .unwrap();
        assert_eq!(served, want.rows());
    }

    #[test]
    fn graceful_run_reports_fully_checkpointed_stream() {
        let store = SnapshotStore::new();
        let control = PumpControl::default();
        let recs = records(90, 2);
        let p = plan("graceful", 3);
        let pump = pump(
            p,
            recs,
            PumpConfig {
                refresh_every: 30,
                ..PumpConfig::default()
            },
        );
        // Ask for graceful stop after the stream drains: run in this
        // thread with the flag pre-armed after a helper thread sets it.
        control.graceful.store(true, Ordering::SeqCst);
        let report = pump.run(&store, &control).unwrap().unwrap();
        // Graceful before any step: zero records, but checkpoints exist.
        assert_eq!(report.offered, 0);
        assert_eq!(report.next_seqs, vec![0, 0, 0]);
    }

    #[test]
    fn warm_restart_reproduces_uninterrupted_cft() {
        let recs = records(120, 2);

        // Uninterrupted reference.
        let store = SnapshotStore::new();
        let mut clean = pump(plan("warm_ref", 2), recs.clone(), PumpConfig::default());
        while clean.step().unwrap() {}
        clean.publish(&store).unwrap();
        let want = store.load().unwrap().model_fingerprint();

        // Crash mid-stream: ingest 70 of 120, hard-stop (state abandoned,
        // checkpoints survive at the last cadence boundary).
        let p = plan("warm_crash", 2);
        let mut first = pump(
            p.clone(),
            recs.clone(),
            PumpConfig {
                refresh_every: 35,
                ingest_limit: Some(70),
                ..PumpConfig::default()
            },
        );
        while first.step().unwrap() {}
        drop(first);

        // Warm restart over the same state dir, full stream re-offered.
        let store2 = SnapshotStore::new();
        let mut resumed = pump(p, recs, PumpConfig::default());
        assert!(resumed.warm);
        // The recovered model serves immediately, before any replay.
        resumed.publish(&store2).unwrap();
        let recovered = store2.load().unwrap();
        assert!(recovered.model.total_points() > 0, "recovered model empty");
        while resumed.step().unwrap() {}
        resumed.publish(&store2).unwrap();
        let got = store2.load().unwrap();
        assert_eq!(got.model.total_points(), 120);
        assert_eq!(got.model_fingerprint(), want, "CFT stats drifted");
    }
}
