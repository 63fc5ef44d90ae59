//! Naive per-subspace evaluation vs the factorized kernel-column cache
//! on the roll-up's access pattern (many subspace densities of one test
//! point), plus the rayon test-point parallelism on top.
//!
//! Three evaluation strategies over the same subspace workload:
//!
//! * `rollup_naive`  — one `density_subspace_with_error` call per
//!   subspace: every call re-evaluates the per-dimension kernels
//!   (`O(rows·|S|)` `exp`s each);
//! * `rollup_cached` — one `kernel_columns` build per query
//!   (`O(rows·d)` `exp`s total), then pure multiply-adds per subspace;
//! * `rollup_cached_rayon` — the cached strategy fanned out over a batch
//!   of test points with rayon.
//!
//! The subspace workload is the Apriori lattice's levels 1–4 restricted
//! to contiguous windows (`4d − 6` subspaces, total cardinality
//! `≈ 10d`), which matches the shape of candidates the roll-up
//! classifier actually enumerates (Fig. 3).
//!
//! Run with `cargo bench -p udm-bench --bench bench_subspace_cache`;
//! medians and the derived naive/cached speedups are written to
//! `results/BENCH_subspace_cache.json`.

use criterion::{black_box, Criterion};
use rayon::prelude::*;
use std::time::Duration;
use udm_classify::{evaluate, evaluate_parallel, ClassifierConfig, DensityClassifier};
use udm_core::{Subspace, UncertainDataset};
use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};
use udm_kde::KdeConfig;
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

/// Two well-separated spherical classes in `d` dimensions with
/// paper-style multiplicative errors.
fn synthetic(n: usize, d: usize, seed: u64) -> UncertainDataset {
    let g = MixtureGenerator::new(
        d,
        vec![
            GaussianClassSpec::spherical(vec![0.0; d], 1.0, 1.0),
            GaussianClassSpec::spherical(vec![3.0; d], 1.0, 1.0),
        ],
    )
    .unwrap();
    ErrorModel::paper(1.0)
        .apply(&g.generate(n, seed), seed + 1)
        .unwrap()
}

/// Contiguous windows of lengths 1–4: the level-1..4 slice of the
/// roll-up's candidate lattice (`4d − 6` subspaces, ≥ 8 for any `d ≥ 4`).
fn rollup_subspaces(d: usize) -> Vec<Subspace> {
    let mut subs = Vec::new();
    for len in 1..=4usize {
        for start in 0..=(d - len) {
            let dims: Vec<usize> = (start..start + len).collect();
            subs.push(Subspace::from_dims(&dims).unwrap());
        }
    }
    subs
}

/// The workload the classifier's accuracy oracle runs per test point:
/// global + per-class densities for every candidate subspace.
fn naive_oracle_sweep(
    kdes: &[&MicroClusterKde],
    x: &[f64],
    qe: Option<&[f64]>,
    subs: &[Subspace],
) -> f64 {
    let mut acc = 0.0;
    for &s in subs {
        for kde in kdes {
            acc += kde.density_subspace_with_error(x, qe, s).unwrap();
        }
    }
    acc
}

fn cached_oracle_sweep(
    kdes: &[&MicroClusterKde],
    x: &[f64],
    qe: Option<&[f64]>,
    subs: &[Subspace],
) -> f64 {
    let mut acc = 0.0;
    for kde in kdes {
        let cols = kde.kernel_columns(x, qe).unwrap();
        for &s in subs {
            acc += cols.density(s).unwrap();
        }
    }
    acc
}

fn bench_subspace_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("subspace_cache");
    group.measurement_time(Duration::from_millis(250));
    group.sample_size(7);

    for &(n, d) in &[(1000usize, 10usize), (1000, 20), (10_000, 10), (10_000, 20)] {
        let tag = format!("n{n}_d{d}");
        let data = synthetic(n, d, 7);
        let subs = rollup_subspaces(d);

        let probe = data.point(0).clone();
        let x: Vec<f64> = probe.values().to_vec();

        // Micro-cluster roll-up oracle: global + 2 class KDEs, query-error
        // convolution on (the classifier's configuration under
        // `error_adjusted`).
        let global =
            MicroClusterMaintainer::from_dataset(&data, MaintainerConfig::new(80)).unwrap();
        let global_kde = MicroClusterKde::fit(global.clusters(), KdeConfig::default()).unwrap();
        let partition = data.partition_by_class();
        let class_kdes: Vec<MicroClusterKde> = partition
            .labels()
            .iter()
            .map(|&l| {
                let part = partition.class(l).unwrap();
                let m =
                    MicroClusterMaintainer::from_dataset(part, MaintainerConfig::new(40)).unwrap();
                MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap()
            })
            .collect();
        let kdes: Vec<&MicroClusterKde> = std::iter::once(&global_kde)
            .chain(class_kdes.iter())
            .collect();
        let qe = Some(probe.errors());

        group.bench_function(format!("rollup_naive/{tag}"), |b| {
            b.iter(|| naive_oracle_sweep(&kdes, black_box(&x), qe, &subs))
        });
        group.bench_function(format!("rollup_cached/{tag}"), |b| {
            b.iter(|| cached_oracle_sweep(&kdes, black_box(&x), qe, &subs))
        });

        let batch: Vec<&[f64]> = (0..16.min(data.len()))
            .map(|i| data.point(i).values())
            .collect();
        group.bench_function(format!("rollup_cached_rayon/{tag}"), |b| {
            b.iter(|| {
                batch
                    .par_iter()
                    .map(|x| cached_oracle_sweep(&kdes, x, None, &subs))
                    .sum::<f64>()
            })
        });

        // End-to-end: the production classifier (cached oracle inside),
        // single-point latency and sequential vs rayon harness.
        let model = DensityClassifier::fit(&data, ClassifierConfig::error_adjusted(80)).unwrap();
        group.bench_function(format!("classify_detailed/{tag}"), |b| {
            b.iter(|| model.classify_detailed(black_box(&probe)).unwrap().label)
        });
        let subset = UncertainDataset::from_points(
            (0..64.min(data.len()))
                .map(|i| data.point(i).clone())
                .collect(),
        )
        .unwrap();
        group.bench_function(format!("evaluate_seq/{tag}"), |b| {
            b.iter(|| evaluate(&model, black_box(&subset)).unwrap().correct)
        });
        let threads = rayon::current_num_threads().max(2);
        group.bench_function(format!("evaluate_par/{tag}"), |b| {
            b.iter(|| {
                evaluate_parallel(&model, black_box(&subset), threads)
                    .unwrap()
                    .correct
            })
        });
    }
    group.finish();
}

#[derive(serde::Serialize)]
struct BenchEntry {
    name: String,
    median_seconds: f64,
}

#[derive(serde::Serialize)]
struct SpeedupEntry {
    config: String,
    rollup_naive_over_cached: f64,
    evaluate_seq_over_par: f64,
}

#[derive(serde::Serialize)]
struct Report {
    entries: Vec<BenchEntry>,
    speedups: Vec<SpeedupEntry>,
}

fn dump_json(c: &Criterion) {
    let seconds = |name: &str| -> f64 {
        c.results
            .iter()
            .find(|(n, _)| n == &format!("subspace_cache/{name}"))
            .map(|(_, t)| t.as_secs_f64())
            .unwrap_or(f64::NAN)
    };
    let mut speedups = Vec::new();
    for &(n, d) in &[(1000usize, 10usize), (1000, 20), (10_000, 10), (10_000, 20)] {
        let tag = format!("n{n}_d{d}");
        speedups.push(SpeedupEntry {
            config: tag.clone(),
            rollup_naive_over_cached: seconds(&format!("rollup_naive/{tag}"))
                / seconds(&format!("rollup_cached/{tag}")),
            evaluate_seq_over_par: seconds(&format!("evaluate_seq/{tag}"))
                / seconds(&format!("evaluate_par/{tag}")),
        });
    }
    let report = Report {
        entries: c
            .results
            .iter()
            .map(|(name, t)| BenchEntry {
                name: name.clone(),
                median_seconds: t.as_secs_f64(),
            })
            .collect(),
        speedups,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    // cargo runs benches with the package as cwd; the shared results
    // directory lives at the workspace root.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let file = if results.is_dir() {
        results.join("BENCH_subspace_cache.json")
    } else {
        std::path::PathBuf::from("BENCH_subspace_cache.json")
    };
    std::fs::write(&file, &json).expect("write BENCH_subspace_cache.json");
    println!("wrote {}", file.display());
    for s in &report.speedups {
        println!(
            "{}: rollup naive/cached {:.2}x, eval seq/par {:.2}x",
            s.config, s.rollup_naive_over_cached, s.evaluate_seq_over_par
        );
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_subspace_cache(&mut c);
    c.final_summary();
    dump_json(&c);
}
