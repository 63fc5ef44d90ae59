//! Columnar kernel hot path, measured.
//!
//! Extends the `bench_subspace_cache` matrix to `n = 100_000`: per-query
//! kernel-column construction through `MicroClusterKde::kernel_columns`
//! (`mc_build`).
//!
//! Medians go to `results/BENCH_simd_parallel.json` (the
//! `BENCH_subspace_cache.json` baseline is written by its own bench).
//! The report records `host_cores`.
//!
//! `UDM_BENCH_QUICK=1` shrinks the matrix and sampling for CI smoke.

use criterion::{black_box, Criterion};
use std::time::Duration;
use udm_core::UncertainDataset;
use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};
use udm_kde::KdeConfig;
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

fn quick() -> bool {
    std::env::var_os("UDM_BENCH_QUICK").is_some()
}

fn matrix() -> Vec<(usize, usize)> {
    if quick() {
        vec![(1_000, 10)]
    } else {
        vec![(1_000, 10), (10_000, 10), (10_000, 20), (100_000, 10)]
    }
}

/// Two well-separated spherical classes in `d` dimensions with
/// paper-style multiplicative errors (same generator as the baseline
/// bench, so medians are comparable across the two JSON files).
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

fn bench_simd_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_parallel");
    if quick() {
        group.measurement_time(Duration::from_millis(80));
        group.sample_size(3);
    } else {
        group.measurement_time(Duration::from_millis(300));
        group.sample_size(5);
    }

    for &(n, d) in &matrix() {
        let tag = format!("n{n}_d{d}");
        let data = synthetic(n, d, 7);
        let probe = data.point(0).clone();
        let x: Vec<f64> = probe.values().to_vec();

        // --- Column build: q = 80 rows per build ----------------------
        let m = MicroClusterMaintainer::from_dataset(&data, MaintainerConfig::new(80)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        group.bench_function(format!("mc_build/{tag}"), |b| {
            b.iter(|| mc.kernel_columns(black_box(&x), None).unwrap().rows())
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
struct Report {
    host_cores: usize,
    quick_mode: bool,
    entries: Vec<BenchEntry>,
}

fn dump_json(c: &Criterion) {
    let seconds = |name: &str| -> f64 {
        c.results
            .iter()
            .find(|(n, _)| n == &format!("simd_parallel/{name}"))
            .map(|(_, t)| t.as_secs_f64())
            .unwrap_or(f64::NAN)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let report = Report {
        host_cores,
        quick_mode: quick(),
        entries: c
            .results
            .iter()
            .map(|(name, t)| BenchEntry {
                name: name.clone(),
                median_seconds: t.as_secs_f64(),
            })
            .collect(),
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let file = if results.is_dir() {
        results.join("BENCH_simd_parallel.json")
    } else {
        std::path::PathBuf::from("BENCH_simd_parallel.json")
    };
    std::fs::write(&file, &json).expect("write BENCH_simd_parallel.json");
    println!("wrote {}", file.display());
    for &(n, d) in &matrix() {
        let tag = format!("n{n}_d{d}");
        println!(
            "{tag}: mc_build {:.2} us",
            seconds(&format!("mc_build/{tag}")) * 1e6
        );
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_simd_parallel(&mut c);
    c.final_summary();
    dump_json(&c);
}
