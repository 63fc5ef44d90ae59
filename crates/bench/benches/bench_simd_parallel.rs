//! Columnar kernel hot path, measured.
//!
//! Extends the `bench_subspace_cache` matrix to `n = 100_000`: per-query
//! kernel-column construction through `MicroClusterKde::kernel_columns`
//! (`mc_build`), plus a raw `exp` throughput microbench (`exp_std` vs
//! `exp_fast`; `fast_exp` is always compiled). The build uses the
//! hot-path exp, so the fast-math build win is the ratio of `mc_build`
//! medians from two runs, without and with `--features
//! udm-kde/fast-math`.
//!
//! Medians and the exp ratio go to `results/BENCH_simd_parallel.json`
//! (the `BENCH_subspace_cache.json` baseline is written by its own
//! bench). The report records `host_cores` and `fast_math_enabled`
//! (whether the hot-path exp is `fast_exp` in this build).
//!
//! `UDM_BENCH_QUICK=1` shrinks the matrix and sampling for CI smoke.

use criterion::{black_box, Criterion};
use std::time::Duration;
use udm_core::UncertainDataset;
use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};
use udm_kde::{fast_exp, hot_exp, KdeConfig};
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

/// 4096 negative exp arguments spanning the kernel's live range.
fn exp_args() -> Vec<f64> {
    (0..4096).map(|i| -(i as f64) * 0.17 % 700.0).collect()
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

    // Raw exponential throughput: the kernel builds are exp-bound, so
    // this is the upper bound of the fast-math build win.
    let args = exp_args();
    group.bench_function("exp_std/x4096", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in black_box(&args) {
                acc += x.exp();
            }
            acc
        })
    });
    group.bench_function("exp_fast/x4096", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in black_box(&args) {
                acc += fast_exp(x);
            }
            acc
        })
    });

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
    /// Whether the hot-path exp (`hot_exp`) is `fast_exp` in this build.
    fast_math_enabled: bool,
    quick_mode: bool,
    /// `exp_std / exp_fast` single-thread throughput ratio.
    exp_fast_speedup: f64,
    entries: Vec<BenchEntry>,
    criteria_notes: Vec<String>,
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
    let exp_fast_speedup = seconds("exp_std/x4096") / seconds("exp_fast/x4096");

    let criteria_notes = vec![
        "exp_fast_speedup is the single-thread exp throughput ratio; the \
         fast-math build win is the ratio of mc_build medians from runs \
         without and with --features udm-kde/fast-math (fast_math_enabled)."
            .to_string(),
    ];

    let report = Report {
        host_cores,
        fast_math_enabled: exp_args()
            .iter()
            .any(|&a| hot_exp(a).to_bits() != a.exp().to_bits()),
        quick_mode: quick(),
        exp_fast_speedup,
        entries: c
            .results
            .iter()
            .map(|(name, t)| BenchEntry {
                name: name.clone(),
                median_seconds: t.as_secs_f64(),
            })
            .collect(),
        criteria_notes,
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
    println!("exp_std/exp_fast: {exp_fast_speedup:.2}x");
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
