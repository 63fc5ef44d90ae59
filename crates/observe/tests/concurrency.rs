//! Concurrency: hammer one histogram from 8 threads and check the
//! merged totals are exact and the quantiles are ordered.

#![cfg(feature = "enabled")]

use udm_observe::Histogram;

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn histogram_exact_count_under_contention() {
    let h = Histogram::with_bounds(vec![0.001, 0.01, 0.1, 1.0, 10.0]);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let h = &h;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic values spread across several buckets.
                    let v = match (t + i) % 5 {
                        0 => 0.0005,
                        1 => 0.005,
                        2 => 0.05,
                        3 => 0.5,
                        _ => 5.0,
                    };
                    h.observe(v);
                }
            });
        }
    });
    let snap = h.snapshot("contended");
    assert_eq!(snap.count, THREADS as u64 * PER_THREAD);
    let bucket_total: u64 = snap.bucket_counts.iter().sum();
    assert_eq!(bucket_total, snap.count);
    assert!(
        snap.p50 <= snap.p95 && snap.p95 <= snap.p99,
        "quantiles out of order: p50={} p95={} p99={}",
        snap.p50,
        snap.p95,
        snap.p99
    );
    // All values are finite, so the sum must equal the exact total.
    let expected_sum: f64 = (0..THREADS as u64)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t + i) % 5))
        .map(|m| match m {
            0 => 0.0005,
            1 => 0.005,
            2 => 0.05,
            3 => 0.5,
            _ => 5.0,
        })
        .sum();
    assert!(
        (snap.sum - expected_sum).abs() < 1e-6 * expected_sum.abs(),
        "sum {} != expected {}",
        snap.sum,
        expected_sum
    );
}

#[test]
fn counter_exact_under_contention() {
    let registry = udm_observe::Registry::new();
    let c = registry.counter("contended_total");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
}
