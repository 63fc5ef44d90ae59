//! Seeded workload inputs. The benchmark generates everything from
//! `--seed`; the program only ever sees the generated points.
//!
//! Points are drawn from the stand-in profiles of `udm_data::UciDataset`,
//! perturbed with the paper's error model at level `f`, then split by a
//! seeded shuffle (`train_test_split`). The shuffle matters: a
//! class-grouped order (as `stratified_split` produces) makes the first
//! held-out points all one class, and the micro-cluster maintainer
//! seeds its `q` clusters from the first `q` arrivals.

use udm_classify::ClassifierConfig;
use udm_core::{UncertainDataset, UncertainPoint};
use udm_data::noise::ErrorModel;
use udm_data::{train_test_split, UciDataset};

/// Error level `f` of the paper's uniform error model, for every workload.
pub const ERROR_LEVEL: f64 = 1.2;

/// Input size: the measured configuration, or a tiny one for the
/// self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// splitmix64: independent sub-seeds for each input stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for schedules and mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        derive(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Labelled training points plus held-out points in seeded shuffled order.
pub struct Split {
    pub train: UncertainDataset,
    pub held_out: Vec<UncertainPoint>,
}

/// Generates `train + held_out` points of `dataset` at error level `f`
/// and splits them by a seeded shuffle.
pub fn split(dataset: UciDataset, train: usize, held_out: usize, seed: u64) -> Split {
    let total = train + held_out;
    let noisy = ErrorModel::paper(ERROR_LEVEL)
        .apply(&dataset.generate(total, derive(seed, 1)), derive(seed, 2))
        .expect("error model applies to a non-empty dataset");
    let parts = train_test_split(&noisy, held_out as f64 / total as f64, derive(seed, 3))
        .expect("split of a non-empty dataset");
    Split {
        train: parts.train,
        held_out: parts.test.points().to_vec(),
    }
}

/// One batch workload: the `udm classify` path on a stand-in dataset.
pub struct BatchSpec {
    pub dataset: UciDataset,
    pub train: usize,
    pub held_out: usize,
    /// Held-out points classified per pass (a prefix of the shuffled
    /// held-out set).
    pub sample: usize,
    /// Points per `evaluate` call in the throughput passes.
    pub chunk: usize,
    /// Points replayed layer by layer in the traced run.
    pub replay: usize,
    /// Fits timed back to back for `setup_s` (the median is reported).
    pub fits: usize,
    /// Whether timings are scaled to a nominal host speed
    /// ([`crate::speed`]).
    pub host_scaled: bool,
    pub config: ClassifierConfig,
}

impl BatchSpec {
    /// Forest-cover stand-in: 10 dims, 7 skewed classes, q = 140.
    pub fn cover(scale: Scale) -> Self {
        let (train, held_out, chunk, replay) = match scale {
            Scale::Full => (200_000, 20_000, 1_000, 4_000),
            Scale::Tiny => (4_000, 400, 100, 100),
        };
        BatchSpec {
            dataset: UciDataset::ForestCover,
            train,
            held_out,
            sample: held_out,
            chunk,
            replay,
            fits: 5,
            host_scaled: true,
            config: ClassifierConfig::error_adjusted(140),
        }
    }

    /// Ionosphere stand-in: 34 dims, 2 classes, q = 60.
    pub fn wide(scale: Scale) -> Self {
        let (train, held_out, sample, replay) = match scale {
            Scale::Full => (2_000, 400, 120, 120),
            Scale::Tiny => (400, 60, 4, 4),
        };
        BatchSpec {
            dataset: UciDataset::Ionosphere,
            train,
            held_out,
            sample,
            chunk: 4,
            replay,
            // A fit takes about 10 ms, and on a shared virtual machine the
            // core's speed shifts every few tens of milliseconds; enough
            // fits span several shifts.
            fits: 51,
            host_scaled: false,
            config: ClassifierConfig::error_adjusted(60),
        }
    }
}

/// One serving workload: `udm serve` defaults over the adult stand-in.
pub struct ServeSpec {
    /// Seed records streamed into the daemon (and its classifier's
    /// training set, as `udm serve --train` uses one file for both).
    pub records: usize,
    /// Held-out points requests are drawn from.
    pub pool: usize,
    /// Daemon set-ups timed for `setup_s` (the median is reported).
    pub setups: usize,
    /// Whether the timed window must overlap ingest (`serve_ingest`)
    /// or start once every seed record is in the snapshot (`serve_read`).
    pub during_ingest: bool,
    /// Requests replayed layer by layer in the traced run.
    pub replay: usize,
    /// Pump chunks stepped in the traced ingest replay.
    pub pump_chunks: usize,
    /// Length of each closed-loop burst.
    pub probe: std::time::Duration,
}

impl ServeSpec {
    pub fn read(scale: Scale) -> Self {
        let (records, pool, replay, probe_seconds) = match scale {
            Scale::Full => (40_000, 2_048, 3_000, 0.2),
            Scale::Tiny => (600, 32, 60, 0.05),
        };
        ServeSpec {
            records,
            pool,
            setups: 5,
            during_ingest: false,
            replay,
            pump_chunks: 0,
            probe: std::time::Duration::from_secs_f64(probe_seconds),
        }
    }

    pub fn ingest(scale: Scale) -> Self {
        let (records, pool, replay, pump_chunks, probe_seconds) = match scale {
            Scale::Full => (2_000_000, 2_048, 3_000, 400, 0.2),
            Scale::Tiny => (300_000, 32, 60, 10, 0.05),
        };
        ServeSpec {
            records,
            pool,
            setups: 3,
            during_ingest: true,
            replay,
            pump_chunks,
            probe: std::time::Duration::from_secs_f64(probe_seconds),
        }
    }
}
