//! Command execution. Every command writes its human-readable output to
//! a caller-supplied writer, so the whole tool is testable in-process.

use crate::args::{Command, Invocation, MetricsFormat};
use std::io::Write;
use std::path::Path;
use udm_classify::{
    evaluate, evaluate_sharded_degraded, survivors_of, ChaosSetup, ClassifierConfig,
    DegradationReport, DensityClassifier, NnClassifier,
};
use udm_cluster::{
    adjusted_rand_index, normalized_mutual_information, Dbscan, DbscanConfig, KMeans, KMeansConfig,
};
use udm_core::{Result, Subspace, UdmError, UncertainDataset};
use udm_data::csv_io;
use udm_data::fault::{FaultPlan, FaultyStream};
use udm_data::{ErrorModel, UciDataset};
use udm_kde::{ErrorKde, KdeConfig};
use udm_microcluster::snapshot::Snapshot;
use udm_microcluster::{
    AssignmentDistance, IngestPolicy, KillPlan, MaintainerConfig, MicroClusterKde,
    MicroClusterMaintainer, ShardPlan, ShardSupervisor,
};

const USAGE: &str = "\
udm — density based transforms for uncertain data mining

USAGE:
  udm generate <adult|ionosphere|breast_cancer|forest_cover>
               [--n N] [--f F] [--seed S] [--out FILE]
  udm summarize <data.csv> [--q Q] [--euclidean] [--out SNAPSHOT.json]
  udm density   <data.csv> --at X1,X2,... [--subspace J1,J2,...]
               [--q Q] [--unadjusted] [--grid LO:HI:N]
  udm classify  --train TRAIN.csv --test TEST.csv
               [--q Q] [--threshold A] [--unadjusted | --nn]
               [--backend exact|coreset:EPS]
  udm cluster   <data.csv> (--k K | --dbscan EPS,MINPTS)
               [--euclidean] [--seed S]
  udm convert   <adult|ionosphere|breast_cancer|forest_cover> RAW_FILE
               [--out FILE]
  udm aggregate <data.csv> [--group N] [--sort] [--out FILE]
  udm chaos     <adult|ionosphere|breast_cancer|forest_cover>
               [--n N] [--f F] [--q Q] [--threshold A]
               [--rates R1,R2,...] [--seed S] [--bound B]
               [--shards S] [--kill-shard K] [--backend SPEC]
  udm serve     --train TRAIN.csv --state-dir DIR [--addr HOST:PORT]
               [--q Q] [--threshold A] [--shards S]
               [--checkpoint-every N] [--refresh-every N]
               [--batch-window-ms MS] [--no-batch] [--min-coverage C]
               [--max-seconds T] [--ingest-delay-ms MS]
               [--backend SPEC]
  udm metrics   [--format prom|json|table] [--out FILE]
  udm help

GLOBAL FLAGS (valid on every subcommand):
  --metrics FILE   after the command, write a Prometheus metric snapshot
                   to FILE and a run manifest to FILE.manifest.json
  --trace FILE     stream span events to FILE as JSON lines

CSV layout: values[,errors][,label] with a '#udm,dim=..' header
(files produced by `udm generate` are already in this layout).
";

/// Executes a parsed invocation: installs the JSONL trace writer when
/// `--trace` was given, runs the command, then flushes tracing and — when
/// `--metrics` was given — writes a Prometheus snapshot plus a
/// `PATH.manifest.json` run manifest. The snapshot is written even when
/// the command fails, so a crashed run still leaves its telemetry behind.
pub fn run_invocation<W: Write>(invocation: Invocation, out: &mut W) -> Result<()> {
    let started = std::time::Instant::now();
    if let Some(path) = &invocation.observe.trace {
        udm_observe::init_tracing(path)?;
    }
    let seed = seed_of(&invocation.command);
    let config = format!("{:?}", invocation.command);
    let result = run(invocation.command, out);
    udm_observe::flush_tracing();
    if let Some(path) = &invocation.observe.metrics {
        let snapshot = udm_observe::Snapshot::capture();
        std::fs::write(path, udm_observe::to_prometheus(&snapshot))?;
        let manifest = udm_observe::RunManifest::capture(&invocation.raw, seed, &config, started);
        let manifest_path = std::path::PathBuf::from(format!("{}.manifest.json", path.display()));
        manifest.write_to(&manifest_path)?;
    }
    result
}

/// The RNG seed of a command, when it has one (recorded in the manifest).
fn seed_of(command: &Command) -> Option<u64> {
    match command {
        Command::Generate { seed, .. }
        | Command::Cluster { seed, .. }
        | Command::Chaos { seed, .. } => Some(*seed),
        _ => None,
    }
}

/// The sharded fault-domain drill behind `udm chaos --shards S`.
///
/// Partitions a corrupted copy of the training stream across `S` shard
/// workers and proves three properties in sequence: a no-fault sharded
/// run conserves the stream at coverage 1.0; killing `--kill-shard K`
/// mid-ingest and warm-restarting it from its versioned checkpoint
/// reproduces the no-fault merged model bit-for-bit; and taking the same
/// shard permanently down serves the survivors at coverage `(S-1)/S`
/// with a measured (and `--bound`-enforced) accuracy drop.
///
/// Returns the worst accuracy drop the drill observed, so the caller can
/// fold it into the `--bound` check alongside the single-stream rates.
#[allow(clippy::too_many_arguments)]
fn run_sharded_drill<W: Write>(
    out: &mut W,
    train: &UncertainDataset,
    test: &UncertainDataset,
    rates: &[f64],
    seed: u64,
    q: usize,
    classifier: ClassifierConfig,
    shards: usize,
    kill_shard: Option<usize>,
) -> Result<f64> {
    let _span = udm_observe::span!("cli_chaos_sharded");
    let rate = rates[0];
    let faulty = FaultyStream::new(train, FaultPlan::uniform(rate), seed.wrapping_add(500))?;
    let (records, faults) = faulty.records();
    let dir = std::env::temp_dir().join(format!("udm_chaos_cli_{}", std::process::id()));

    let supervisor = |tag: &str| -> Result<ShardSupervisor> {
        let mut plan = ShardPlan::new(shards, dir.join(tag));
        // A cadence coprime to the usual kill offsets, so the warm
        // restart exercises a genuine partition-tail replay.
        plan.checkpoint_every = 25;
        ShardSupervisor::new(
            train.dim(),
            MaintainerConfig::new(q),
            IngestPolicy::default(),
            plan,
        )
    };

    writeln!(
        out,
        "sharded drill: {} fault domains, {} records at rate {rate} ({} faults injected)",
        shards,
        records.len(),
        faults.total()
    )?;
    let mut clean = supervisor("clean")?;
    clean.run(&records, &KillPlan::none())?;
    let (clean_model, clean_coverage, _) = clean.finish()?;
    writeln!(
        out,
        "  no-fault run: {} clusters, {} points, coverage {clean_coverage:.2}",
        clean_model.num_clusters(),
        clean_model.total_points()
    )?;

    let mut worst = f64::NEG_INFINITY;
    if let Some(k) = kill_shard {
        // Warm-restart leg: the kill lands mid-partition, off the
        // checkpoint cadence, so a genuine tail replay is exercised.
        let offset = (records.len() / shards / 2 + 3) as u64;
        let mut drilled = supervisor("killed")?;
        drilled.run(&records, &KillPlan::none().kill_at(k, offset))?;
        let (model, coverage, report) = drilled.finish()?;
        let identical = model == clean_model;
        writeln!(
            out,
            "  kill shard {k} at offset {offset}: {} restart(s), {} replayed, \
             coverage {coverage:.2}, merged model bit-identical: {identical}",
            report.total_restarts(),
            report.total_replayed()
        )?;
        if !identical {
            return Err(UdmError::InvalidConfig(format!(
                "warm-restarted shard {k} diverged from the no-fault merged model"
            )));
        }

        // Permanent-loss leg: the shard never comes back; the survivors
        // serve at fractional coverage.
        let mut lost = supervisor("lost")?;
        lost.run(&records, &KillPlan::none().permanently_down(k))?;
        let (down_model, down_coverage, down_report) = lost.finish()?;
        writeln!(
            out,
            "  shard {k} permanently down: coverage {down_coverage:.2}, \
             {} live shard(s), {} points served",
            down_report.live_shards(),
            down_model.total_points()
        )?;

        let setup = ChaosSetup {
            plan: FaultPlan::uniform(rate),
            seed: seed.wrapping_add(500),
            policy: IngestPolicy::default(),
            maintainer: MaintainerConfig::new(q),
            classifier,
        };
        let degraded = evaluate_sharded_degraded(train, test, &setup, shards, &[k])?;
        writeln!(out, "  {degraded}")?;
        worst = worst.max(degraded.accuracy_drop());
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(worst)
}

fn load(path: &Path) -> Result<UncertainDataset> {
    // DataError -> UdmError keeps the file/line/column context in the
    // message, so `udm <cmd> bad.csv` points at the offending cell.
    Ok(csv_io::read_csv_file(path, None)?)
}

/// Executes a parsed command, writing human-readable output to `out`.
pub fn run<W: Write>(command: Command, out: &mut W) -> Result<()> {
    match command {
        Command::Help => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Metrics { format, out: file } => {
            let snapshot = udm_observe::Snapshot::capture();
            let rendered = match format {
                MetricsFormat::Prometheus => udm_observe::to_prometheus(&snapshot),
                MetricsFormat::Json => udm_observe::to_json(&snapshot),
                MetricsFormat::Table => udm_observe::to_table(&snapshot),
            };
            match file {
                Some(path) => {
                    std::fs::write(&path, &rendered)?;
                    writeln!(out, "wrote metric snapshot to {}", path.display())?;
                }
                None => write!(out, "{rendered}")?,
            }
            Ok(())
        }
        Command::Generate {
            dataset,
            n,
            f,
            seed,
            out: file,
        } => {
            let clean = dataset.generate(n, seed);
            let data = if f > 0.0 {
                ErrorModel::paper(f).apply(&clean, seed ^ 0x9E37_79B9)?
            } else {
                clean
            };
            match file {
                Some(path) => {
                    csv_io::write_csv_file(&path, &data)?;
                    writeln!(
                        out,
                        "wrote {} rows x {} dims ({}, f={f}) to {}",
                        data.len(),
                        data.dim(),
                        dataset.name(),
                        path.display()
                    )?;
                }
                None => csv_io::write_csv(&mut *out, &data)?,
            }
            Ok(())
        }
        Command::Summarize {
            input,
            q,
            euclidean,
            out: file,
        } => {
            let data = load(&input)?;
            let config = MaintainerConfig {
                max_clusters: q,
                distance: if euclidean {
                    AssignmentDistance::Euclidean
                } else {
                    AssignmentDistance::ErrorAdjusted
                },
            };
            let maintainer = MicroClusterMaintainer::from_dataset(&data, config)?;
            let snapshot = Snapshot::capture(&maintainer);
            let json = snapshot.to_json()?;
            match file {
                Some(path) => {
                    std::fs::write(&path, &json)?;
                    writeln!(
                        out,
                        "summarized {} points into {} micro-clusters -> {}",
                        maintainer.points_seen(),
                        maintainer.num_clusters(),
                        path.display()
                    )?;
                }
                None => writeln!(out, "{json}")?,
            }
            Ok(())
        }
        Command::Density {
            input,
            at,
            subspace,
            q,
            unadjusted,
            grid,
        } => {
            let data = load(&input)?;
            if at.len() != data.dim() {
                return Err(UdmError::DimensionMismatch {
                    expected: data.dim(),
                    actual: at.len(),
                });
            }
            let s = if subspace.is_empty() {
                Subspace::full(data.dim())?
            } else {
                Subspace::from_dims(&subspace)?
            };
            let config = if unadjusted {
                KdeConfig::unadjusted()
            } else {
                KdeConfig::error_adjusted()
            };
            let value = if q == 0 {
                ErrorKde::fit(&data, config)?.density_subspace(&at, s)?
            } else {
                let maintainer =
                    MicroClusterMaintainer::from_dataset(&data, MaintainerConfig::new(q))?;
                MicroClusterKde::fit(maintainer.clusters(), config)?.density_subspace(&at, s)?
            };
            writeln!(
                out,
                "density over {s} at {at:?} = {value:.8e} ({} estimation, {})",
                if q == 0 {
                    "exact".to_string()
                } else {
                    format!("{q}-cluster")
                },
                if unadjusted {
                    "unadjusted"
                } else {
                    "error-adjusted"
                },
            )?;
            if let Some((lo, hi, n)) = grid {
                let dim = s.dims().next().expect("subspace is non-empty");
                let kde = ErrorKde::fit(&data, config)?;
                let g = udm_kde::Grid1D::from_kde(&kde, dim, lo, hi, n)?;
                writeln!(
                    out,
                    "\n1-D density along dimension {dim} over [{lo}, {hi}]:"
                )?;
                write!(out, "{}", udm_kde::ascii::chart(&g, 8))?;
            }
            Ok(())
        }
        Command::Classify {
            train,
            test,
            q,
            threshold,
            unadjusted,
            nn,
            backend,
        } => {
            let _span_cmd = udm_observe::span!("cli_classify");
            let (train_data, test_data) = {
                let _span_load = udm_observe::span!("load");
                (load(&train)?, load(&test)?)
            };
            let report = if nn {
                let model = NnClassifier::fit(&train_data)?;
                let _span_eval = udm_observe::span!("evaluate");
                evaluate(&model, &test_data)?
            } else {
                let mut config = if unadjusted {
                    ClassifierConfig::unadjusted(q)
                } else {
                    ClassifierConfig::error_adjusted(q)
                };
                config.accuracy_threshold = threshold;
                let model = {
                    let _span_fit = udm_observe::span!("fit");
                    DensityClassifier::fit(&train_data, config)?
                };
                model.set_backend(backend)?;
                let _span_eval = udm_observe::span!("evaluate");
                evaluate(&model, &test_data)?
            };
            let kind = if nn {
                "nearest-neighbor"
            } else if unadjusted {
                "density (unadjusted)"
            } else {
                "density (error-adjusted)"
            };
            writeln!(out, "classifier : {kind}")?;
            if !nn {
                writeln!(out, "backend    : {backend}")?;
            }
            writeln!(out, "test points: {}", report.n)?;
            writeln!(out, "accuracy   : {:.4}", report.accuracy())?;
            writeln!(out, "macro F1   : {:.4}", report.macro_f1())?;
            writeln!(
                out,
                "latency    : {:.3e} s/example",
                report.seconds_per_example()
            )?;
            let mut labels: Vec<_> = report.confusion.keys().map(|&(a, _)| a).collect();
            labels.sort();
            labels.dedup();
            for l in labels {
                writeln!(
                    out,
                    "  {l}: recall {:.4}  precision {:.4}  f1 {:.4}",
                    report.recall(l),
                    report.precision(l),
                    report.f1(l)
                )?;
            }
            Ok(())
        }
        Command::Convert {
            dataset,
            input,
            out: file,
        } => {
            let raw = std::fs::File::open(&input)
                .map_err(|e| udm_data::DataError::from(e).with_path(&input))?;
            // Attach the input path so parse errors read `file:line:col`.
            let with_path = |e: udm_data::DataError| e.with_path(&input);
            let data = match dataset {
                UciDataset::Adult => udm_data::uci_raw::parse_adult(raw).map_err(with_path)?,
                UciDataset::Ionosphere => {
                    udm_data::uci_raw::parse_ionosphere(raw).map_err(with_path)?
                }
                UciDataset::ForestCover => {
                    udm_data::uci_raw::parse_covertype(raw).map_err(with_path)?
                }
                UciDataset::BreastCancer => {
                    let incomplete =
                        udm_data::uci_raw::parse_breast_cancer(raw).map_err(with_path)?;
                    udm_data::imputation::impute_mean(&incomplete)?
                }
            };
            match file {
                Some(path) => {
                    csv_io::write_csv_file(&path, &data)?;
                    writeln!(
                        out,
                        "converted {} rows x {} dims ({}) to {}",
                        data.len(),
                        data.dim(),
                        dataset.name(),
                        path.display()
                    )?;
                }
                None => csv_io::write_csv(&mut *out, &data)?,
            }
            Ok(())
        }
        Command::Aggregate {
            input,
            group,
            sort,
            out: file,
        } => {
            let mut data = load(&input)?;
            if sort {
                let mut points = data.points().to_vec();
                points.sort_by(|a, b| {
                    a.value(0)
                        .partial_cmp(&b.value(0))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                data = UncertainDataset::from_points(points)?;
            }
            let aggregated = udm_data::aggregate::aggregate_groups(
                &data,
                group,
                udm_data::aggregate::GroupLabelPolicy::Majority,
            )?;
            match file {
                Some(path) => {
                    csv_io::write_csv_file(&path, &aggregated)?;
                    writeln!(
                        out,
                        "aggregated {} rows into {} pseudo-records (group={group}) -> {}",
                        data.len(),
                        aggregated.len(),
                        path.display()
                    )?;
                }
                None => csv_io::write_csv(&mut *out, &aggregated)?,
            }
            Ok(())
        }
        Command::Chaos {
            dataset,
            n,
            f,
            q,
            threshold,
            rates,
            seed,
            bound,
            shards,
            kill_shard,
            backend,
        } => {
            let _span_cmd = udm_observe::span!("cli_chaos");
            let synthesize = |rows: usize, s: u64| -> Result<UncertainDataset> {
                let clean = dataset.generate(rows, s);
                if f > 0.0 {
                    Ok(ErrorModel::paper(f).apply(&clean, s ^ 0x9E37_79B9)?)
                } else {
                    Ok(clean)
                }
            };
            let train = synthesize(n, seed)?;
            let test = synthesize((n / 3).max(30), seed.wrapping_add(1))?;

            let mut config = ClassifierConfig::error_adjusted(q);
            config.accuracy_threshold = threshold;
            let clean_model = DensityClassifier::fit(&train, config)?;
            clean_model.set_backend(backend)?;
            let clean = evaluate(&clean_model, &test)?;
            writeln!(
                out,
                "chaos drill on {} ({} train / {} test rows, f={f}, q={q}, backend={backend})",
                dataset.name(),
                train.len(),
                test.len()
            )?;
            writeln!(out, "clean baseline accuracy: {:.4}", clean.accuracy())?;

            let mut worst = f64::NEG_INFINITY;
            for (i, rate) in rates.iter().enumerate() {
                let setup = ChaosSetup {
                    plan: FaultPlan::uniform(*rate),
                    seed: seed.wrapping_add(100 + i as u64),
                    policy: IngestPolicy::default(),
                    maintainer: MaintainerConfig::new(q),
                    classifier: config,
                };
                let (survivor_set, counters, faults) = survivors_of(&train, &setup)?;
                let model = DensityClassifier::fit(&survivor_set, config)?;
                model.set_backend(backend)?;
                let degraded = evaluate(&model, &test)?;
                let report = DegradationReport {
                    fault_rate: *rate,
                    clean: clean.clone(),
                    degraded,
                    counters,
                    faults,
                    survivors: survivor_set.len(),
                };
                writeln!(out, "{report}")?;
                worst = worst.max(report.accuracy_drop());
            }
            if shards > 1 {
                worst = worst.max(run_sharded_drill(
                    out, &train, &test, &rates, seed, q, config, shards, kill_shard,
                )?);
            }
            if let Some(b) = bound {
                if worst > b {
                    return Err(UdmError::InvalidConfig(format!(
                        "worst accuracy drop {worst:.4} exceeds --bound {b}"
                    )));
                }
                writeln!(
                    out,
                    "all fault rates within bound {b} (worst drop {worst:.4})"
                )?;
            }
            Ok(())
        }
        Command::Serve {
            train,
            addr,
            q,
            threshold,
            shards,
            state_dir,
            checkpoint_every,
            refresh_every,
            batch_window_ms,
            no_batch,
            min_coverage,
            max_seconds,
            ingest_delay_ms,
            backend,
        } => {
            let started = std::time::Instant::now();
            let data = load(&train)?;
            // Fit the classifier when the training data is fully labelled
            // with at least two classes; otherwise /classify answers 503.
            let labels: Vec<_> = data.iter().filter_map(|p| p.label()).collect();
            let mut distinct = labels.clone();
            distinct.sort();
            distinct.dedup();
            let classifier = if labels.len() == data.len() && distinct.len() >= 2 {
                let mut config = ClassifierConfig::error_adjusted(q);
                config.accuracy_threshold = threshold;
                Some(std::sync::Arc::new(DensityClassifier::fit(&data, config)?))
            } else {
                None
            };
            let records: Vec<udm_data::fault::RawRecord> = data
                .points()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    udm_data::fault::RawRecord::from_point(
                        i as u64,
                        &p.clone().with_timestamp(i as u64),
                    )
                })
                .collect();

            let mut config = udm_serve::ServeConfig::new(state_dir.clone());
            config.addr = addr;
            config.shards = shards;
            config.checkpoint_every = checkpoint_every;
            config.refresh_every = refresh_every;
            config.max_clusters = q;
            config.min_coverage = min_coverage;
            config.chunk_delay = std::time::Duration::from_millis(ingest_delay_ms);
            config.backend = backend;
            config.batch = if no_batch {
                None
            } else {
                Some(udm_serve::BatchConfig {
                    window: std::time::Duration::from_millis(batch_window_ms),
                    ..udm_serve::BatchConfig::default()
                })
            };

            let server = udm_serve::Server::start(
                &config,
                udm_serve::ServeSeed {
                    dim: data.dim(),
                    records,
                    classifier,
                },
            )?;
            writeln!(out, "listening on http://{}", server.addr())?;
            writeln!(
                out,
                "{} start over {} ({} records, {} shards, classifier: {}, backend: {backend})",
                if server.warm { "warm" } else { "cold" },
                state_dir.display(),
                data.len(),
                shards,
                if distinct.len() >= 2 { "on" } else { "off" },
            )?;
            // The drills parse the port from a piped (block-buffered)
            // stdout, so the banner must leave the process now.
            out.flush()?;

            udm_serve::signal::install();
            loop {
                if udm_serve::signal::shutdown_requested() || server.shutdown_via_http() {
                    break;
                }
                if let Some(limit) = max_seconds {
                    if started.elapsed().as_secs_f64() >= limit {
                        break;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }

            let report = server.shutdown_graceful()?;
            if let Some(report) = &report {
                writeln!(
                    out,
                    "graceful shutdown: {} arrivals, {} admitted, coverage {:.2}",
                    report.counters.arrivals,
                    report.counters.admitted(),
                    report.coverage
                )?;
                writeln!(out, "final checkpoint cursors: {:?}", report.next_seqs)?;
            }
            let manifest_path = state_dir.join("serve.manifest.json");
            let manifest_args = vec!["serve".to_string(), train.display().to_string()];
            let manifest = udm_observe::RunManifest::capture(
                &manifest_args,
                None,
                &format!("serve shards={shards} q={q}"),
                started,
            );
            manifest.write_to(&manifest_path)?;
            writeln!(out, "wrote manifest {}", manifest_path.display())?;
            Ok(())
        }
        Command::Cluster {
            input,
            k,
            dbscan,
            euclidean,
            seed,
        } => {
            let data = load(&input)?;
            let truth: Vec<_> = data.iter().filter_map(|p| p.label()).collect();
            let has_truth = truth.len() == data.len();

            let assignments: Vec<Option<usize>> = if let Some(k) = k {
                let mut config = KMeansConfig::new(k);
                config.seed = seed;
                if euclidean {
                    config.distance = AssignmentDistance::Euclidean;
                }
                let r = KMeans::new(config)?.run(&data)?;
                writeln!(
                    out,
                    "k-means: k={k}, {} iterations, inertia {:.4e}",
                    r.iterations, r.inertia
                )?;
                r.assignments.into_iter().map(Some).collect()
            } else {
                let (eps, min_pts) = dbscan.expect("parser guarantees one mode");
                let config = DbscanConfig {
                    eps,
                    min_pts,
                    error_adjusted: !euclidean,
                };
                let r = Dbscan::new(config)?.run(&data)?;
                writeln!(
                    out,
                    "dbscan: eps={eps}, min_pts={min_pts}, {} clusters, {} noise points",
                    r.num_clusters,
                    r.num_noise()
                )?;
                r.assignments
            };

            // Cluster size histogram.
            let mut sizes: std::collections::BTreeMap<Option<usize>, usize> = Default::default();
            for a in &assignments {
                *sizes.entry(*a).or_insert(0) += 1;
            }
            for (cluster, count) in &sizes {
                match cluster {
                    Some(c) => writeln!(out, "  cluster {c}: {count} points")?,
                    None => writeln!(out, "  noise    : {count} points")?,
                }
            }
            if has_truth {
                writeln!(
                    out,
                    "vs labels: ARI {:.4}  NMI {:.4}",
                    adjusted_rand_index(&assignments, &truth),
                    normalized_mutual_information(&assignments, &truth)
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run_cli(args: &[&str]) -> Result<String> {
        let cmd = parse_args(args.iter().map(|s| s.to_string()))?;
        let mut buf = Vec::new();
        run(cmd, &mut buf)?;
        Ok(String::from_utf8(buf).expect("output is UTF-8"))
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "udm_cli_test_{}_{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "_")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cli(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("udm classify"));
    }

    #[test]
    fn generate_to_stdout_is_valid_csv() {
        let out = run_cli(&["generate", "breast_cancer", "--n", "20"]).unwrap();
        assert!(out.starts_with("#udm,dim=9"));
        let parsed = csv_io::read_csv(out.as_bytes(), None).unwrap();
        assert_eq!(parsed.len(), 20);
        assert_eq!(parsed.dim(), 9);
    }

    #[test]
    fn generate_classify_roundtrip() {
        let dir = tmpdir();
        let train = dir.join("train.csv");
        let test = dir.join("test.csv");
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "300",
            "--f",
            "0.5",
            "--seed",
            "1",
            "--out",
            train.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "100",
            "--f",
            "0.5",
            "--seed",
            "2",
            "--out",
            test.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_cli(&[
            "classify",
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--q",
            "20",
        ])
        .unwrap();
        assert!(out.contains("accuracy"), "{out}");
        assert!(out.contains("error-adjusted"), "{out}");
        let acc: f64 = out
            .lines()
            .find(|l| l.starts_with("accuracy"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!(acc > 0.6, "accuracy {acc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nn_baseline_runs() {
        let dir = tmpdir();
        let train = dir.join("train.csv");
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "120",
            "--out",
            train.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_cli(&[
            "classify",
            "--train",
            train.to_str().unwrap(),
            "--test",
            train.to_str().unwrap(),
            "--nn",
        ])
        .unwrap();
        assert!(out.contains("nearest-neighbor"));
        // NN on its own training data is perfect.
        assert!(out.contains("accuracy   : 1.0000"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summarize_writes_restorable_snapshot() {
        let dir = tmpdir();
        let data = dir.join("data.csv");
        let snap = dir.join("snap.json");
        run_cli(&[
            "generate",
            "adult",
            "--n",
            "200",
            "--f",
            "1.0",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_cli(&[
            "summarize",
            data.to_str().unwrap(),
            "--q",
            "10",
            "--out",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("200 points into 10 micro-clusters"), "{out}");
        let restored = Snapshot::load(&snap).unwrap().restore().unwrap();
        assert_eq!(restored.points_seen(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn density_exact_and_compressed() {
        let dir = tmpdir();
        let data = dir.join("data.csv");
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "150",
            "--f",
            "0.5",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let at = "0,0,0,0,0,0,0,0,0";
        let exact = run_cli(&["density", data.to_str().unwrap(), "--at", at]).unwrap();
        assert!(exact.contains("exact estimation"), "{exact}");
        let compressed = run_cli(&[
            "density",
            data.to_str().unwrap(),
            "--at",
            at,
            "--q",
            "30",
            "--subspace",
            "0,1",
        ])
        .unwrap();
        assert!(compressed.contains("30-cluster"), "{compressed}");
        assert!(compressed.contains("{0,1}"), "{compressed}");
    }

    #[test]
    fn density_grid_renders_chart() {
        let dir = tmpdir();
        let data = dir.join("data.csv");
        run_cli(&[
            "generate",
            "adult",
            "--n",
            "80",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_cli(&[
            "density",
            data.to_str().unwrap(),
            "--at",
            "0,0,0,0,0,0",
            "--subspace",
            "0",
            "--grid",
            "-5:5:50",
        ])
        .unwrap();
        assert!(out.contains("1-D density along dimension 0"), "{out}");
        assert!(out.contains("peak density"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn density_validates_arity() {
        let dir = tmpdir();
        let data = dir.join("data.csv");
        run_cli(&[
            "generate",
            "adult",
            "--n",
            "50",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        assert!(run_cli(&["density", data.to_str().unwrap(), "--at", "1.0"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_kmeans_reports_metrics_when_labelled() {
        let dir = tmpdir();
        let data = dir.join("data.csv");
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "200",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_cli(&["cluster", data.to_str().unwrap(), "--k", "2"]).unwrap();
        assert!(out.contains("k-means: k=2"), "{out}");
        assert!(out.contains("ARI"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_dbscan_runs() {
        let dir = tmpdir();
        let data = dir.join("data.csv");
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "150",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_cli(&[
            "cluster",
            data.to_str().unwrap(),
            "--dbscan",
            "3.0,4",
            "--euclidean",
        ])
        .unwrap();
        assert!(out.contains("dbscan: eps=3"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_breast_cancer_imputes_and_writes() {
        let dir = tmpdir();
        let raw_path = dir.join("bc.data");
        std::fs::write(
            &raw_path,
            "1,5,1,1,1,2,1,3,1,1,2
2,5,4,4,5,7,10,3,2,1,2
3,8,4,5,1,2,?,7,3,1,4
",
        )
        .unwrap();
        let out = run_cli(&["convert", "breast_cancer", raw_path.to_str().unwrap()]).unwrap();
        assert!(out.starts_with("#udm,dim=9,errors=1,labels=1"), "{out}");
        let parsed = csv_io::read_csv(out.as_bytes(), None).unwrap();
        assert_eq!(parsed.len(), 3);
        assert!(parsed.point(2).error(5) > 0.0); // imputed cell kept its ψ
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregate_roundtrip() {
        let dir = tmpdir();
        let data = dir.join("data.csv");
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "100",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_cli(&[
            "aggregate",
            data.to_str().unwrap(),
            "--group",
            "10",
            "--sort",
        ])
        .unwrap();
        let parsed = csv_io::read_csv(out.as_bytes(), None).unwrap();
        assert_eq!(parsed.len(), 10);
        assert!(parsed.iter().any(|p| !p.is_exact()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_reports_every_rate() {
        let out = run_cli(&[
            "chaos",
            "breast_cancer",
            "--n",
            "150",
            "--q",
            "15",
            "--rates",
            "0.0,0.2",
            "--bound",
            "1.0",
        ])
        .unwrap();
        assert!(out.contains("clean baseline accuracy"), "{out}");
        assert!(out.contains("fault rate 0.00"), "{out}");
        assert!(out.contains("fault rate 0.20"), "{out}");
        assert!(out.contains("ingest:"), "{out}");
        assert!(out.contains("all fault rates within bound 1"), "{out}");
    }

    #[test]
    fn chaos_sharded_drill_reports_recovery_and_coverage() {
        let out = run_cli(&[
            "chaos",
            "breast_cancer",
            "--n",
            "160",
            "--q",
            "15",
            "--rates",
            "0.1",
            "--shards",
            "4",
            "--kill-shard",
            "2",
            "--bound",
            "1.0",
        ])
        .unwrap();
        assert!(out.contains("sharded drill: 4 fault domains"), "{out}");
        assert!(out.contains("merged model bit-identical: true"), "{out}");
        assert!(
            out.contains("shard 2 permanently down: coverage 0.75"),
            "{out}"
        );
        assert!(out.contains("coverage 0.75"), "{out}");
        assert!(out.contains("all fault rates within bound 1"), "{out}");
    }

    #[test]
    fn chaos_bound_violation_is_an_error() {
        // A negative bound is unsatisfiable (the zero-rate drop is 0).
        let e = run_cli(&[
            "chaos",
            "breast_cancer",
            "--n",
            "120",
            "--q",
            "12",
            "--rates",
            "0.0",
            "--bound",
            "-1",
        ])
        .unwrap_err();
        assert!(
            e.to_string().contains("exceeds --bound"),
            "unexpected error: {e}"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = run_cli(&["density", "/nonexistent/x.csv", "--at", "1.0"]).unwrap_err();
        assert!(matches!(e, UdmError::Io(_)));
    }

    #[test]
    fn metrics_subcommand_exports_live_registry() {
        // Drive a classification so the registry has something to show.
        let dir = tmpdir();
        let train = dir.join("train.csv");
        run_cli(&[
            "generate",
            "breast_cancer",
            "--n",
            "120",
            "--f",
            "0.5",
            "--out",
            train.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "classify",
            "--train",
            train.to_str().unwrap(),
            "--test",
            train.to_str().unwrap(),
            "--q",
            "12",
        ])
        .unwrap();
        let prom = run_cli(&["metrics"]).unwrap();
        let table = run_cli(&["metrics", "--format", "table"]).unwrap();
        if udm_observe::enabled() {
            assert!(prom.contains("udm_kde_kernel_evals_total"), "{prom}");
            assert!(
                prom.contains("udm_classify_column_cache_hits_total"),
                "{prom}"
            );
            assert!(prom.contains("udm_span_self_seconds"), "{prom}");
            assert!(table.contains("cli_classify"), "{table}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observability_pipeline_end_to_end() {
        let dir = tmpdir();
        let metrics_path = dir.join("metrics.prom");
        let trace_path = dir.join("trace.jsonl");
        // Chaos exercises generation, the fault-tolerant ingest pipeline,
        // micro-clustering, and classification in a single command.
        let inv = crate::args::parse_invocation(
            [
                "chaos",
                "breast_cancer",
                "--n",
                "120",
                "--q",
                "12",
                "--rates",
                "0.3",
                "--metrics",
                metrics_path.to_str().unwrap(),
                "--trace",
                trace_path.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let mut buf = Vec::new();
        run_invocation(inv, &mut buf).unwrap();

        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        if udm_observe::enabled() {
            assert!(
                prom.contains("udm_microcluster_kernel_evals_total"),
                "{prom}"
            );
            assert!(prom.contains("udm_ingest_arrivals_total"), "{prom}");
            assert!(prom.contains("udm_ingest_quarantined_total"), "{prom}");
            assert!(prom.contains("udm_span_self_seconds"), "{prom}");

            // Every trace line is a JSON object with a span path.
            let trace = std::fs::read_to_string(&trace_path).unwrap();
            assert!(!trace.trim().is_empty(), "trace file is empty");
            for line in trace.lines() {
                let value = serde_json::parse_value(line).expect("trace line parses");
                match value {
                    serde::Value::Map(entries) => {
                        assert!(entries.iter().any(|(k, _)| k == "path"), "{line}");
                    }
                    other => panic!("trace line is not an object: {other:?}"),
                }
            }
        }

        // The manifest rides along at <metrics>.manifest.json and is
        // well-formed JSON carrying the raw argument vector.
        let manifest_path = dir.join("metrics.prom.manifest.json");
        let manifest = std::fs::read_to_string(&manifest_path).unwrap();
        let value = serde_json::parse_value(&manifest).expect("manifest parses");
        match value {
            serde::Value::Map(entries) => {
                assert!(entries.iter().any(|(k, _)| k == "schema_version"));
                assert!(entries.iter().any(|(k, _)| k == "command"));
                assert!(entries.iter().any(|(k, _)| k == "wall_seconds"));
            }
            other => panic!("manifest is not an object: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
