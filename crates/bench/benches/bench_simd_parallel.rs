//! Columnar kernel hot path + profitable rayon seams, measured.
//!
//! Extends the `bench_subspace_cache` matrix to `n = 100_000` and pins
//! down the three claims of the SIMD/parallelism work:
//!
//! * **Column builds** — per-query kernel-column construction through
//!   `MicroClusterKde::kernel_columns` (`mc_build`), plus a raw `exp`
//!   throughput microbench (`exp_std` vs `exp_fast`; `fast_exp` is
//!   always compiled). The build uses the hot-path exp, so the
//!   fast-math build win is the ratio of `mc_build` medians from two
//!   runs, without and with `--features udm-kde/fast-math`.
//! * **Profitable rayon seams, same workload both sides** — a batch of
//!   roll-up sweeps run sequentially vs through the crossover-guarded
//!   parallel map (`rollup_batch_seq` vs `rollup_batch_rayon`). Unlike
//!   the old `rollup_cached_rayon` bench, both sides process the *same*
//!   batch, so the ratio is a true parallelism measurement — and the
//!   guard means the rayon side degrades to the sequential loop rather
//!   than losing below the crossover or on a 1-core host.
//! * **Thread scaling** — `evaluate_par` over an explicit 1/2/4/8
//!   thread axis against `evaluate_seq` on the same subset.
//!
//! Medians and derived ratios go to `results/BENCH_simd_parallel.json`
//! (the old `BENCH_subspace_cache.json` baseline is left untouched).
//! The report records `host_cores` and `fast_math_enabled` (whether the
//! hot-path exp is `fast_exp` in this build): on a 1-core
//! container every parallel ratio is expected to sit at ≈ 1.0 (the
//! vendored rayon falls back to sequential execution), which the
//! `criteria_notes` call out rather than paper over.
//!
//! `UDM_BENCH_QUICK=1` shrinks the matrix and sampling for CI smoke.

use criterion::{black_box, Criterion};
use std::time::Duration;
use udm_classify::{
    evaluate, evaluate_parallel, guarded_par_map, ClassifierConfig, DensityClassifier,
};
use udm_core::{Subspace, UncertainDataset};
use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};
use udm_kde::{fast_exp, hot_exp, KdeConfig};
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

const THREAD_AXIS: [usize; 4] = [1, 2, 4, 8];

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

/// Contiguous windows of lengths 1–4 — the roll-up lattice slice.
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

/// 4096 negative exp arguments spanning the kernel's live range.
fn exp_args() -> Vec<f64> {
    (0..4096).map(|i| -(i as f64) * 0.17 % 700.0).collect()
}

fn cached_sweep(kde: &MicroClusterKde, x: &[f64], subs: &[Subspace]) -> f64 {
    let cols = kde.kernel_columns(x, None).unwrap();
    let mut acc = 0.0;
    for &s in subs {
        acc += cols.density(s).unwrap();
    }
    acc
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
        let subs = rollup_subspaces(d);
        let probe = data.point(0).clone();
        let x: Vec<f64> = probe.values().to_vec();

        // --- Column build: q = 80 rows per build ----------------------
        let m = MicroClusterMaintainer::from_dataset(&data, MaintainerConfig::new(80)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        group.bench_function(format!("mc_build/{tag}"), |b| {
            b.iter(|| mc.kernel_columns(black_box(&x), None).unwrap().rows())
        });

        // --- Same-workload rollup batch: sequential vs guarded rayon --
        let batch: Vec<Vec<f64>> = (0..64.min(data.len()))
            .map(|i| data.point(i).values().to_vec())
            .collect();
        group.bench_function(format!("rollup_batch_seq/{tag}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in black_box(&batch) {
                    acc += cached_sweep(&mc, q, &subs);
                }
                acc
            })
        });
        let threads = rayon::current_num_threads().max(1);
        group.bench_function(format!("rollup_batch_rayon/{tag}"), |b| {
            b.iter(|| {
                guarded_par_map(black_box(&batch), threads, |q| {
                    Ok(cached_sweep(&mc, q, &subs))
                })
                .unwrap()
                .iter()
                .sum::<f64>()
            })
        });

        // --- Thread-scaling axis for the evaluation harness -----------
        let model = DensityClassifier::fit(&data, ClassifierConfig::error_adjusted(80)).unwrap();
        let subset = UncertainDataset::from_points(
            (0..64.min(data.len()))
                .map(|i| data.point(i).clone())
                .collect(),
        )
        .unwrap();
        group.bench_function(format!("evaluate_seq/{tag}"), |b| {
            b.iter(|| evaluate(&model, black_box(&subset)).unwrap().correct)
        });
        for t in THREAD_AXIS {
            group.bench_function(format!("evaluate_par_t{t}/{tag}"), |b| {
                b.iter(|| {
                    evaluate_parallel(&model, black_box(&subset), t)
                        .unwrap()
                        .correct
                })
            });
        }
    }
    group.finish();
}

#[derive(serde::Serialize)]
struct BenchEntry {
    name: String,
    median_seconds: f64,
}

#[derive(serde::Serialize)]
struct ThreadScaling {
    threads: usize,
    seq_over_par: f64,
}

#[derive(serde::Serialize)]
struct Comparison {
    config: String,
    /// `rollup_batch_seq / rollup_batch_rayon`: ≥ 1.0 means the guarded
    /// rayon seam never loses to the sequential loop on this workload.
    rollup_seq_over_rayon: f64,
    evaluate_thread_scaling: Vec<ThreadScaling>,
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
    comparisons: Vec<Comparison>,
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

    let mut comparisons = Vec::new();
    for &(n, d) in &matrix() {
        let tag = format!("n{n}_d{d}");
        comparisons.push(Comparison {
            config: tag.clone(),
            rollup_seq_over_rayon: seconds(&format!("rollup_batch_seq/{tag}"))
                / seconds(&format!("rollup_batch_rayon/{tag}")),
            evaluate_thread_scaling: THREAD_AXIS
                .iter()
                .map(|&t| ThreadScaling {
                    threads: t,
                    seq_over_par: seconds(&format!("evaluate_seq/{tag}"))
                        / seconds(&format!("evaluate_par_t{t}/{tag}")),
                })
                .collect(),
        });
    }

    let mut criteria_notes = vec![
        "rollup_batch_seq and rollup_batch_rayon process the same 64-query batch; \
         the rayon side uses the crossover-guarded map (PAR_CROSSOVER_POINTS), so \
         seq_over_rayon >= ~1.0 is expected at every size."
            .to_string(),
        "exp_fast_speedup is the single-thread exp throughput ratio; the \
         fast-math build win is the ratio of mc_build medians from runs \
         without and with --features udm-kde/fast-math (fast_math_enabled)."
            .to_string(),
    ];
    if host_cores < 4 {
        criteria_notes.push(format!(
            "host has {host_cores} core(s): the vendored rayon executes sequentially, \
             so evaluate_par thread-scaling ratios are expected to sit at ~1.0 and the \
             >=2x-at-4-cores criterion is not demonstrable in this container; the \
             thread axis is still recorded for multi-core reruns."
        ));
    }

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
        comparisons,
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
    for cmp in &report.comparisons {
        println!(
            "{}: rollup seq/rayon {:.2}x, mc_build {:.2} us",
            cmp.config,
            cmp.rollup_seq_over_rayon,
            seconds(&format!("mc_build/{}", cmp.config)) * 1e6
        );
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_simd_parallel(&mut c);
    c.final_summary();
    dump_json(&c);
}
