//! Request batching for density queries.
//!
//! Building the per-query kernel-column cache (`KernelColumns`) is the
//! dominant cost of a density request — one full-dimensional pass over
//! every pseudo-point. Under concurrent load many in-flight requests
//! ask about the *same* query point (hot keys), so the daemon funnels
//! density work through a single batching worker: the worker wakes on
//! the first queued job, drains everything that has piled up behind it
//! ("natural batching" — no fixed delay unless a window is configured),
//! deduplicates the batch by exact query identity, builds each unique
//! column cache once and answers every duplicate from it. Results are
//! bit-identical to the one-at-a-time path because the arithmetic is
//! the same — only redundant cache builds are elided.

use crate::snapshot::SnapshotStore;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;
use udm_core::{Result, Subspace, UdmError};
use udm_kde::KernelColumns;
use udm_microcluster::MicroClusterKde;

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Extra gathering delay after the first job arrives. Zero (the
    /// default) means pure natural batching: coalesce whatever is
    /// already queued, never trade latency for batch size.
    pub window: Duration,
    /// Largest batch drained at once.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            window: Duration::ZERO,
            max_batch: 64,
        }
    }
}

/// What a density job returns to its submitter.
#[derive(Debug, Clone)]
pub struct DensityReply {
    /// The density value (bit-identical to an unbatched evaluation).
    pub density: f64,
    /// How many jobs were coalesced into the batch that answered this.
    pub batch_size: usize,
    /// Unique column caches the batch built (≤ `batch_size`).
    pub unique_builds: usize,
}

struct Job {
    values: Vec<f64>,
    errors: Option<Vec<f64>>,
    subspace: Subspace,
    reply: SyncSender<Result<DensityReply>>,
}

/// Exact query identity: bit patterns of the values and errors. Two
/// jobs share a column cache iff they would build bit-identical caches.
#[derive(PartialEq, Eq, Hash)]
struct QueryKey {
    values: Vec<u64>,
    errors: Option<Vec<u64>>,
}

impl QueryKey {
    fn of(values: &[f64], errors: Option<&[f64]>) -> Self {
        QueryKey {
            values: values.iter().map(|v| v.to_bits()).collect(),
            errors: errors.map(|e| e.iter().map(|v| v.to_bits()).collect()),
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The shared job queue and its worker entry point.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    wake: Condvar,
    config: BatchConfig,
}

impl BatchQueue {
    /// Creates an empty queue.
    pub fn new(config: BatchConfig) -> Self {
        BatchQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            config,
        }
    }

    /// Submits one density query and blocks until the worker answers.
    ///
    /// # Errors
    ///
    /// The evaluation error the unbatched path would have produced, or
    /// [`UdmError::Io`] when the worker has shut down.
    pub fn submit(
        &self,
        values: Vec<f64>,
        errors: Option<Vec<f64>>,
        subspace: Subspace,
    ) -> Result<DensityReply> {
        let (tx, rx) = sync_channel(1);
        {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if state.shutdown {
                return Err(UdmError::Io("batch worker is shut down".into()));
            }
            state.jobs.push_back(Job {
                values,
                errors,
                subspace,
                reply: tx,
            });
        }
        self.wake.notify_one();
        rx.recv()
            .map_err(|_| UdmError::Io("batch worker dropped the job".into()))?
    }

    /// Marks the queue shut down and wakes the worker so it can drain
    /// the backlog and exit.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.shutdown = true;
        drop(state);
        self.wake.notify_all();
    }

    /// The worker loop: wake on the first job, gather the backlog,
    /// evaluate against the *current* snapshot, reply, repeat. Runs
    /// until [`BatchQueue::shutdown`] and the backlog is drained.
    pub fn run_worker(&self, store: &SnapshotStore) {
        loop {
            let batch = match self.next_batch() {
                Some(batch) => batch,
                None => return,
            };
            // The Arc keeps the generation alive for the whole batch:
            // every job in it is answered by one coherent model.
            let snap = store.load();
            udm_observe::histogram_observe!("udm_serve_batch_size", batch.len() as f64);
            udm_observe::counter_inc!("udm_serve_density_batches_total");
            match snap.as_ref().and_then(|snap| snap.kde.as_ref()) {
                Some(kde) => evaluate_batch(kde, &batch),
                None => {
                    for job in &batch {
                        let _ = job.reply.send(Err(UdmError::EmptyDataset));
                    }
                }
            }
        }
    }

    /// Blocks for the next non-empty batch; `None` means shut down and
    /// fully drained.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.jobs.is_empty() {
            if state.shutdown {
                return None;
            }
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !self.config.window.is_zero() && !state.shutdown {
            // Optional gathering window: trade a bounded delay for a
            // larger batch. Dropping the lock lets submitters pile on.
            drop(state);
            std::thread::sleep(self.config.window);
            state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        }
        let take = state.jobs.len().min(self.config.max_batch);
        Some(state.jobs.drain(..take).collect())
    }
}

/// Evaluates one batch: one `KernelColumns` build per unique query, one
/// density evaluation per unique (query, subspace), every duplicate
/// answered from the memo. Per-job errors are delivered per job, so a
/// poisoned query cannot fail its neighbors. The arithmetic is the same
/// column build + evaluate the solo handler performs, so results stay
/// bit-identical to the unbatched path.
fn evaluate_batch(kde: &MicroClusterKde, batch: &[Job]) {
    let batch_size = batch.len();
    let mut columns: Vec<Result<KernelColumns>> = Vec::new();
    let mut index: HashMap<QueryKey, usize> = HashMap::new();
    let mut memo: HashMap<(usize, u64), f64> = HashMap::new();
    for job in batch {
        let key = QueryKey::of(&job.values, job.errors.as_deref());
        if let std::collections::hash_map::Entry::Vacant(slot) = index.entry(key) {
            slot.insert(columns.len());
            columns.push(kde.kernel_columns(&job.values, job.errors.as_deref()));
        }
    }
    let unique_builds = columns.len();
    udm_observe::counter_add!(
        "udm_serve_batch_dedup_hits_total",
        (batch_size - unique_builds) as u64
    );
    for job in batch {
        let key = QueryKey::of(&job.values, job.errors.as_deref());
        let result = match index.get(&key).map(|&slot| (slot, &columns[slot])) {
            Some((slot, Ok(cols))) => {
                let memo_key = (slot, job.subspace.bits());
                let density = match memo.get(&memo_key) {
                    Some(&d) => Ok(d),
                    None => {
                        let d = cols.density(job.subspace);
                        if let Ok(v) = d {
                            memo.insert(memo_key, v);
                        }
                        d
                    }
                };
                density.map(|density| DensityReply {
                    density,
                    batch_size,
                    unique_builds,
                })
            }
            Some((_, Err(e))) => Err(e.clone()),
            None => Err(UdmError::Io("batch index lost a job".into())),
        };
        let _ = job.reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{IngestCounters, ModelSnapshot};
    use std::sync::Arc;
    use udm_core::UncertainPoint;
    use udm_microcluster::shard::MicroClusterModel;
    use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

    fn store_with_model() -> Arc<SnapshotStore> {
        let mut m = MicroClusterMaintainer::new(3, MaintainerConfig::new(8)).unwrap();
        for i in 0..40u64 {
            let v = i as f64 * 0.25;
            let p = UncertainPoint::new(vec![v, 1.0 - v, v * v * 0.1], vec![0.2, 0.1, 0.05])
                .unwrap()
                .with_timestamp(i);
            m.insert(&p).unwrap();
        }
        let model = MicroClusterModel::from_clusters(3, m.into_clusters()).unwrap();
        // `.expect`, not `.ok()`: a fit failure here is a broken test
        // fixture and must fail loudly, not serve a KDE-less snapshot.
        let kde = Some(
            MicroClusterKde::fit(model.clusters(), udm_kde::KdeConfig::error_adjusted())
                .expect("test model must fit"),
        );
        let store = SnapshotStore::new();
        store.publish(ModelSnapshot::new(
            1,
            model,
            kde,
            None,
            1.0,
            IngestCounters::default(),
            40,
        ));
        Arc::new(store)
    }

    fn spawn_worker(
        queue: &Arc<BatchQueue>,
        store: &Arc<SnapshotStore>,
    ) -> std::thread::JoinHandle<()> {
        let queue = Arc::clone(queue);
        let store = Arc::clone(store);
        std::thread::spawn(move || queue.run_worker(&store))
    }

    #[test]
    fn batched_matches_one_at_a_time_bitwise() {
        let store = store_with_model();
        let snap = store.load().unwrap();
        let kde = snap.kde.as_ref().unwrap();
        let queries: Vec<(Vec<f64>, Option<Vec<f64>>, Subspace)> = vec![
            (vec![1.0, 0.5, 0.1], None, Subspace::full(3).unwrap()),
            (
                vec![1.0, 0.5, 0.1],
                None,
                Subspace::from_dims(&[0, 2]).unwrap(),
            ),
            (
                vec![2.0, -0.5, 0.4],
                Some(vec![0.3, 0.3, 0.3]),
                Subspace::full(3).unwrap(),
            ),
            (vec![1.0, 0.5, 0.1], None, Subspace::full(3).unwrap()),
        ];
        // Reference: the unbatched path (same build + evaluate calls the
        // solo handler makes).
        let reference: Vec<f64> = queries
            .iter()
            .map(|(v, e, s)| {
                kde.kernel_columns(v, e.as_deref())
                    .unwrap()
                    .density(*s)
                    .unwrap()
            })
            .collect();

        let queue = Arc::new(BatchQueue::new(BatchConfig {
            window: Duration::from_millis(20),
            max_batch: 64,
        }));
        let worker = spawn_worker(&queue, &store);
        let clients: Vec<_> = queries
            .iter()
            .cloned()
            .map(|(v, e, s)| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.submit(v, e, s).unwrap())
            })
            .collect();
        let got: Vec<DensityReply> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        queue.shutdown();
        worker.join().unwrap();

        for (reply, want) in got.iter().zip(reference.iter()) {
            assert_eq!(
                reply.density.to_bits(),
                want.to_bits(),
                "batched result drifted from the solo path"
            );
        }
        // The gathering window coalesced all four concurrent jobs, and
        // the two duplicate queries shared one column build.
        if got.iter().any(|r| r.batch_size == 4) {
            let full = got.iter().find(|r| r.batch_size == 4).unwrap();
            assert_eq!(full.unique_builds, 2, "dedup missed duplicate queries");
        }
    }

    #[test]
    fn shutdown_rejects_new_jobs_and_drains() {
        let store = store_with_model();
        let queue = Arc::new(BatchQueue::new(BatchConfig::default()));
        let worker = spawn_worker(&queue, &store);
        let reply = queue
            .submit(vec![1.0, 0.5, 0.1], None, Subspace::full(3).unwrap())
            .unwrap();
        assert!(reply.density.is_finite());
        queue.shutdown();
        worker.join().unwrap();
        assert!(queue
            .submit(vec![1.0, 0.5, 0.1], None, Subspace::full(3).unwrap())
            .is_err());
    }

    #[test]
    fn empty_store_yields_empty_dataset_error() {
        let store = Arc::new(SnapshotStore::new());
        let queue = Arc::new(BatchQueue::new(BatchConfig::default()));
        let worker = spawn_worker(&queue, &store);
        let got = queue.submit(vec![1.0], None, Subspace::full(1).unwrap());
        assert!(matches!(got, Err(UdmError::EmptyDataset)));
        queue.shutdown();
        worker.join().unwrap();
    }
}
