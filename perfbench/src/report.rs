//! Metric names, units and the result line. `BENCHMARK.json` lists the
//! same names and units; the self-test checks that they agree.

use serde::Value;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("classify_points_per_s", "points/s"),
    ("accuracy", "fraction"),
    ("density_p50_ms", "ms"),
    ("classify_p50_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("ok_ratio", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("microcluster.assign_s", "s"),
    ("microcluster.assign_points", "count"),
    ("microcluster.pseudo_fit_s", "s"),
    ("microcluster.column_build_s", "s"),
    ("microcluster.column_builds", "count"),
    ("microcluster.kernel_evals", "count"),
    ("microcluster.checkpoint_saves", "count"),
    ("microcluster.checkpoint_save_s", "s"),
    ("microcluster.merge_s", "s"),
    ("microcluster.ingest_arrivals", "count"),
    ("microcluster.admitted_ratio", "fraction"),
    ("microcluster.shard_restarts", "count"),
    ("kde.subspace_eval_s", "s"),
    ("kde.subspace_evals", "count"),
    ("classify.rollup_self_s", "s"),
    ("classify.rollup_candidates", "count/point"),
    ("classify.rollup_qualify_ratio", "fraction"),
    ("classify.vote_s", "s"),
    ("classify.fallback_share", "fraction"),
    ("classify.point_p50_ms", "ms"),
    ("classify.point_p99_ms", "ms"),
    ("classify.replay_agreement", "fraction"),
    ("serve.decode_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.handler_density_s", "s"),
    ("serve.handler_classify_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.batch_size_mean", "count"),
    ("serve.dedup_ratio", "fraction"),
    ("serve.server_request_p50_ms", "ms"),
    ("serve.server_request_p99_ms", "ms"),
    ("serve.transport_s", "s"),
    ("serve.pump_step_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.publishes", "count"),
    ("serve.ingest_records_per_s", "records/s"),
    ("serve.pump_busy_share", "fraction"),
    ("observe.overhead_ratio", "ratio"),
    ("bench.density_p99_ms", "ms"),
    ("bench.classify_p99_ms", "ms"),
    ("bench.send_lag_p99_ms", "ms"),
    ("bench.density_sent", "count"),
    ("bench.density_ok", "count"),
    ("bench.classify_sent", "count"),
    ("bench.classify_ok", "count"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (classified points, HTTP requests, checks).
    pub attempted: u64,
    /// Operations that errored, timed out or failed an output check.
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result (phase counts,
    /// sample sizes, digests).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; the name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Counts a check as one operation; a failed one as one failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The result line: every metric of `table` in table order. A metric
    /// the run did not set is reported as 0 (a layer it never exercised).
    pub fn result_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let result = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&Json(result)).expect("result serializes")
    }
}

/// A ready-built JSON value, for `serde_json::to_string`.
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Returns freed heap pages to the system and resets the process's peak
/// resident set (`VmHWM`) to its current size, so that `peak_rss_mb`
/// covers what follows: the program's work on inputs that are already
/// built, not the intermediate copies the benchmark made building them.
pub fn reset_peak_rss(out: &mut Outcome) {
    trim_heap();
    // Linux 4.0 and later: writing 5 to `clear_refs` resets `VmHWM`.
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => out.note(format!(
            "peak RSS reset to {:.1} MiB once the inputs were built",
            peak_rss_mb()
        )),
        Err(e) => out.note(format!(
            "peak RSS not reset ({e}); it includes input generation"
        )),
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only releases
    // free heap memory back to the system.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// FNV-1a over a label sequence: a digest of the predicted labels.
pub fn label_digest(labels: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in labels {
        for b in l.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
