//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cover_batch|wide_batch|serve_read|serve_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The lines before it give the provenance, per-phase
//! counts and sample sizes. A failed output check exits with code 1.

mod batch;
mod inputs;
mod load;
mod report;
mod selftest;
mod serve;
mod speed;
mod stats;
mod trace;

use inputs::{BatchSpec, Scale, ServeSpec};
use report::{Outcome, END_TO_END, PER_LAYER};
use serde::Value;

pub const WORKLOADS: [&str; 4] = ["cover_batch", "wide_batch", "serve_read", "serve_ingest"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    }))
}

/// Runs one workload and checks that every metric of its table is set
/// and finite.
pub fn run_workload(args: &Args) -> Outcome {
    let mut out = match args.workload.as_str() {
        "cover_batch" => batch::run(
            &BatchSpec::cover(args.scale),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "wide_batch" => batch::run(
            &BatchSpec::wide(args.scale),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_read" => serve::run(
            &ServeSpec::read(args.scale),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_ingest" => serve::run(
            &ServeSpec::ingest(args.scale),
            args.seed,
            args.seconds,
            args.trace,
        ),
        other => unreachable!("workload {other} was validated"),
    };
    if args.trace {
        for &(name, _) in PER_LAYER {
            let v = out.get(name).unwrap_or(0.0);
            out.check(v.is_finite(), || format!("per-layer metric {name} is {v}"));
        }
    } else {
        out.set(
            "ok_ratio",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.set("peak_rss_mb", report::peak_rss_mb());
        for &(name, _) in END_TO_END {
            let v = out.get(name);
            out.check(v.is_some_and(|v| v.is_finite() && v > 0.0), || {
                format!("end-to-end metric {name} is {v:?}")
            });
        }
    }
    out
}

/// Host, build and input facts printed with every result.
fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let value = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host_cores".into(), Value::UInt(cores as u64)),
        (
            "git_describe".into(),
            Value::Str(udm_observe::git_describe().unwrap_or_else(|| "unknown".into())),
        ),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
        (
            "profile".into(),
            Value::Str(env!("PERFBENCH_PROFILE").into()),
        ),
        (
            "rustflags".into(),
            Value::Str(env!("PERFBENCH_RUSTFLAGS").into()),
        ),
        (
            "features".into(),
            Value::Str("default (udm-observe enabled, no fast-math)".into()),
        ),
        (
            "telemetry_recording".into(),
            Value::Bool(udm_observe::enabled()),
        ),
        (
            "backend".into(),
            Value::Str(udm_kde::BackendSpec::Exact.to_string()),
        ),
    ]);
    format!(
        "provenance {}",
        serde_json::to_string(&report::Json(value)).expect("provenance serializes")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => std::process::exit(selftest::run()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", provenance(&args));
    let out = run_workload(&args);
    for line in &out.notes {
        println!("{line}");
    }
    for line in &out.failures {
        println!("FAILED: {line}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.result_json(table));
    if !out.correct() {
        std::process::exit(1);
    }
}
