//! `--self-test`: every workload in its tiny configuration, checked for
//! complete, finite metrics, passing output checks, and per-layer counts
//! that repeat exactly between two traced runs of one seed. Also checks
//! that `BENCHMARK.json` names the same workloads, metrics and units as
//! this program prints.

use crate::inputs::Scale;
use crate::report::{END_TO_END, PER_LAYER};
use crate::{run_workload, Args, WORKLOADS};
use serde::Value;

/// Per-layer counts that depend only on the inputs, never on timing.
const DETERMINISTIC: [&str; 4] = [
    "microcluster.assign_points",
    "microcluster.column_builds",
    "microcluster.kernel_evals",
    "classify.rollup_candidates",
];

const SEED: u64 = 7;

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn names(map: &[(String, Value)], key: &str, with_unit: bool) -> Vec<(String, String)> {
    field(map, key)
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_map)
        .map(|m| {
            let text = |k| match field(m, k) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (
                text("name"),
                if with_unit {
                    text("unit")
                } else {
                    String::new()
                },
            )
        })
        .collect()
}

fn check_manifest(failures: &mut Vec<String>) {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => return failures.push(format!("BENCHMARK.json: {e}")),
    };
    let value = match serde_json::parse_value(&text) {
        Ok(v) => v,
        Err(e) => return failures.push(format!("BENCHMARK.json: {e}")),
    };
    let Some(map) = value.as_map() else {
        return failures.push("BENCHMARK.json is not an object".into());
    };
    let expect = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if names(map, "end_to_end", true) != expect(END_TO_END) {
        failures.push("BENCHMARK.json end_to_end differs from the metrics printed".into());
    }
    if names(map, "per_layer", true) != expect(PER_LAYER) {
        failures.push("BENCHMARK.json per_layer differs from the metrics printed".into());
    }
    let workloads: Vec<String> = names(map, "workloads", false)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    if workloads != WORKLOADS {
        failures.push(format!(
            "BENCHMARK.json workloads {workloads:?} differ from {WORKLOADS:?}"
        ));
    }
}

/// Runs the self-test; returns the process exit code.
pub fn run() -> i32 {
    let mut failures = Vec::new();
    check_manifest(&mut failures);
    for workload in WORKLOADS {
        // serve_ingest's window must end before its tiny stream does.
        let seconds = match workload {
            "serve_read" => 2.0,
            _ => 0.5,
        };
        let args = |trace| Args {
            workload: workload.to_string(),
            seed: SEED,
            seconds,
            trace,
            scale: Scale::Tiny,
        };
        let untraced = run_workload(&args(false));
        let traced: Vec<_> = (0..2).map(|_| run_workload(&args(true))).collect();
        for (label, out) in [
            ("untraced", &untraced),
            ("traced 1", &traced[0]),
            ("traced 2", &traced[1]),
        ] {
            for f in &out.failures {
                failures.push(format!("{workload} {label}: {f}"));
            }
        }
        for (name, unit) in END_TO_END {
            let v = untraced.get(name);
            if !v.is_some_and(f64::is_finite) {
                failures.push(format!("{workload}: end-to-end {name} ({unit}) is {v:?}"));
            }
        }
        for (name, unit) in PER_LAYER {
            for out in &traced {
                let v = out.get(name).unwrap_or(0.0);
                if !v.is_finite() {
                    failures.push(format!("{workload}: per-layer {name} ({unit}) is {v}"));
                }
            }
        }
        for name in DETERMINISTIC {
            let (a, b) = (traced[0].get(name), traced[1].get(name));
            if a != b || a.is_none() {
                failures.push(format!(
                    "{workload}: {name} differs between runs of one seed: {a:?} vs {b:?}"
                ));
            }
        }
        println!(
            "self-test {workload}: {}",
            if failures.iter().any(|f| f.starts_with(workload)) {
                "FAILED"
            } else {
                "ok"
            }
        );
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    if failures.is_empty() {
        println!("self-test passed");
        0
    } else {
        1
    }
}
