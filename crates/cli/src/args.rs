//! Hand-rolled argument parsing for the `udm` tool (no external parser
//! dependency; the grammar is small and stable).

use std::path::PathBuf;
use udm_core::{Result, UdmError};
use udm_data::UciDataset;
use udm_kde::BackendSpec;

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a stand-in workload and write it as CSV.
    Generate {
        /// Which dataset profile to generate.
        dataset: UciDataset,
        /// Number of rows.
        n: usize,
        /// Error level `f` of the paper's noise model (0 = exact data).
        f: f64,
        /// RNG seed.
        seed: u64,
        /// Output file (`-`/absent = stdout).
        out: Option<PathBuf>,
    },
    /// Stream a CSV into micro-clusters and write a JSON snapshot.
    Summarize {
        /// Input CSV (canonical layout; see `udm-data::csv_io`).
        input: PathBuf,
        /// Number of micro-clusters `q`.
        q: usize,
        /// Use plain Euclidean assignment instead of Eq. 5.
        euclidean: bool,
        /// Snapshot output file (absent = stdout).
        out: Option<PathBuf>,
    },
    /// Evaluate the error-adjusted density of a CSV at a query point.
    Density {
        /// Input CSV.
        input: PathBuf,
        /// Query coordinates (full dimensionality).
        at: Vec<f64>,
        /// Optional subspace (dimension indices); full space when empty.
        subspace: Vec<usize>,
        /// Micro-cluster budget; 0 = exact (uncompressed) estimation.
        q: usize,
        /// Ignore recorded errors (ψ ≡ 0).
        unadjusted: bool,
        /// Also render an ASCII chart of the 1-D density along the first
        /// subspace dimension over `lo:hi:n`.
        grid: Option<(f64, f64, usize)>,
    },
    /// Train on one CSV, evaluate on another, print the report.
    Classify {
        /// Training CSV (labelled).
        train: PathBuf,
        /// Test CSV (labelled).
        test: PathBuf,
        /// Number of micro-clusters `q`.
        q: usize,
        /// Accuracy threshold `a` of the subspace roll-up.
        threshold: f64,
        /// Use the unadjusted density baseline.
        unadjusted: bool,
        /// Use the nearest-neighbor baseline instead.
        nn: bool,
        /// Density backend (`exact | coreset:EPS`).
        backend: BackendSpec,
    },
    /// Convert a raw UCI repository file to the canonical CSV layout
    /// (imputing marked-missing cells with error tracking).
    Convert {
        /// Which raw format to parse.
        dataset: UciDataset,
        /// Input raw file.
        input: PathBuf,
        /// Output file (absent = stdout).
        out: Option<PathBuf>,
    },
    /// Aggregate consecutive groups of rows into uncertain pseudo-records
    /// (group mean, std-as-ψ).
    Aggregate {
        /// Input CSV.
        input: PathBuf,
        /// Group size.
        group: usize,
        /// Sort by the first column before grouping (locality grouping).
        sort: bool,
        /// Output file (absent = stdout).
        out: Option<PathBuf>,
    },
    /// Cluster a CSV with error-adjusted k-means or DBSCAN.
    Cluster {
        /// Input CSV.
        input: PathBuf,
        /// `Some(k)` = k-means.
        k: Option<usize>,
        /// `Some((eps, min_pts))` = DBSCAN.
        dbscan: Option<(f64, usize)>,
        /// Use plain Euclidean distances.
        euclidean: bool,
        /// Seed for k-means initialization.
        seed: u64,
    },
    /// Chaos drill: corrupt a synthetic training stream at several fault
    /// rates, push it through the fault-tolerant ingest pipeline, and
    /// compare degraded classification accuracy against a clean baseline.
    Chaos {
        /// Which dataset profile to generate the workload from.
        dataset: UciDataset,
        /// Training rows (test set is a third of this).
        n: usize,
        /// Error level `f` of the paper's noise model.
        f: f64,
        /// Number of micro-clusters `q` (also the classifier budget).
        q: usize,
        /// Accuracy threshold `a` of the subspace roll-up.
        threshold: f64,
        /// Fault rates to drill at (each in `[0, 1]`).
        rates: Vec<f64>,
        /// RNG seed for generation and fault injection.
        seed: u64,
        /// When set, fail unless every accuracy drop is at most this.
        bound: Option<f64>,
        /// Number of shard fault domains for the sharded drill (1 =
        /// single-stream drill only).
        shards: usize,
        /// When set, kill this shard mid-ingest: first warm-restart it
        /// and demand a bit-identical merged model, then take it
        /// permanently down and report degraded coverage.
        kill_shard: Option<usize>,
        /// Density backend used by the drilled classifiers.
        backend: BackendSpec,
    },
    /// Run the long-lived serving daemon over a training CSV.
    Serve {
        /// Training CSV (labelled data also fits the classifier).
        train: PathBuf,
        /// Bind address (`127.0.0.1:0` picks an ephemeral port).
        addr: String,
        /// Micro-cluster budget `q` (also the classifier budget).
        q: usize,
        /// Accuracy threshold `a` of the classifier roll-up.
        threshold: f64,
        /// Shard fault domains for background ingest.
        shards: usize,
        /// Checkpoint/state directory (shared across warm restarts).
        state_dir: PathBuf,
        /// Per-shard checkpoint cadence (records).
        checkpoint_every: u64,
        /// Records between snapshot publishes.
        refresh_every: usize,
        /// Density-batching gathering window in milliseconds.
        batch_window_ms: u64,
        /// Disable density request batching (evaluate inline).
        no_batch: bool,
        /// `/healthz` degrades below this shard coverage.
        min_coverage: f64,
        /// Exit after this many seconds (CI hook; absent = run until
        /// signalled or POST /shutdown).
        max_seconds: Option<f64>,
        /// Sleep between ingest chunks in milliseconds (chaos-drill
        /// hook: holds the pump mid-stream so a kill can land there).
        ingest_delay_ms: u64,
        /// Density backend published with every snapshot.
        backend: BackendSpec,
    },
    /// Export the in-process telemetry registry.
    Metrics {
        /// Output encoding.
        format: MetricsFormat,
        /// Output file (absent = stdout).
        out: Option<PathBuf>,
    },
    /// Print usage.
    Help,
}

/// Output encoding for `udm metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format.
    Prometheus,
    /// JSON snapshot.
    Json,
    /// Human-readable console table.
    Table,
}

/// Global observability flags, valid on every subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObserveOptions {
    /// `--metrics PATH`: write a Prometheus snapshot (plus a
    /// `PATH.manifest.json` run manifest) after the command finishes.
    pub metrics: Option<PathBuf>,
    /// `--trace PATH`: stream span events to a JSONL trace file.
    pub trace: Option<PathBuf>,
}

/// A parsed command plus the global observability flags and the raw
/// argument vector (recorded verbatim in the run manifest).
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand to execute.
    pub command: Command,
    /// Global `--metrics` / `--trace` flags.
    pub observe: ObserveOptions,
    /// The argument vector as given (without the program name).
    pub raw: Vec<String>,
}

/// Parses `udm` arguments including the global `--metrics PATH` and
/// `--trace PATH` flags, which may appear anywhere in the argument list.
pub fn parse_invocation<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation> {
    let raw: Vec<String> = args.into_iter().collect();
    let mut observe = ObserveOptions::default();
    let mut rest = Vec::with_capacity(raw.len());
    let mut it = raw.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics" => {
                observe.metrics = Some(PathBuf::from(
                    it.next().ok_or_else(|| invalid("--metrics needs a path"))?,
                ));
            }
            "--trace" => {
                observe.trace = Some(PathBuf::from(
                    it.next().ok_or_else(|| invalid("--trace needs a path"))?,
                ));
            }
            _ => rest.push(arg),
        }
    }
    Ok(Invocation {
        command: parse_args(rest)?,
        observe,
        raw,
    })
}

fn invalid(msg: impl Into<String>) -> UdmError {
    UdmError::InvalidConfig(msg.into())
}

fn parse_dataset(name: &str) -> Result<UciDataset> {
    UciDataset::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| {
            invalid(format!(
                "unknown dataset {name:?}; expected one of adult, ionosphere, breast_cancer, forest_cover"
            ))
        })
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T> {
    let raw = value.ok_or_else(|| invalid(format!("{flag} needs a value")))?;
    raw.parse::<T>()
        .map_err(|_| invalid(format!("{flag}: cannot parse {raw:?}")))
}

fn parse_backend(value: Option<String>) -> Result<BackendSpec> {
    let raw = value.ok_or_else(|| invalid("--backend needs exact | coreset:EPS"))?;
    BackendSpec::parse(&raw)
}

fn parse_f64_list(flag: &str, value: Option<String>) -> Result<Vec<f64>> {
    let raw = value.ok_or_else(|| invalid(format!("{flag} needs a value")))?;
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| invalid(format!("{flag}: cannot parse {s:?}")))
        })
        .collect()
}

fn parse_usize_list(flag: &str, value: Option<String>) -> Result<Vec<usize>> {
    let raw = value.ok_or_else(|| invalid(format!("{flag} needs a value")))?;
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| invalid(format!("{flag}: cannot parse {s:?}")))
        })
        .collect()
}

/// Parses `udm` arguments (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command> {
    let mut it = args.into_iter();
    let Some(sub) = it.next() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let dataset = parse_dataset(
                &it.next()
                    .ok_or_else(|| invalid("generate needs a dataset name"))?,
            )?;
            let mut n = dataset.default_size();
            let mut f = 0.0;
            let mut seed = 7;
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--n" => n = parse_num("--n", it.next())?,
                    "--f" => f = parse_num("--f", it.next())?,
                    "--seed" => seed = parse_num("--seed", it.next())?,
                    "--out" => {
                        out = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--out needs a path"))?,
                        ))
                    }
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Generate {
                dataset,
                n,
                f,
                seed,
                out,
            })
        }
        "summarize" => {
            let input = PathBuf::from(
                it.next()
                    .ok_or_else(|| invalid("summarize needs an input CSV"))?,
            );
            let mut q = 140;
            let mut euclidean = false;
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--q" => q = parse_num("--q", it.next())?,
                    "--euclidean" => euclidean = true,
                    "--out" => {
                        out = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--out needs a path"))?,
                        ))
                    }
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Summarize {
                input,
                q,
                euclidean,
                out,
            })
        }
        "density" => {
            let input = PathBuf::from(
                it.next()
                    .ok_or_else(|| invalid("density needs an input CSV"))?,
            );
            let mut at = Vec::new();
            let mut subspace = Vec::new();
            let mut q = 0;
            let mut unadjusted = false;
            let mut grid = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--at" => at = parse_f64_list("--at", it.next())?,
                    "--subspace" => subspace = parse_usize_list("--subspace", it.next())?,
                    "--q" => q = parse_num("--q", it.next())?,
                    "--unadjusted" => unadjusted = true,
                    "--grid" => {
                        let raw = it.next().ok_or_else(|| invalid("--grid needs LO:HI:N"))?;
                        let parts: Vec<&str> = raw.split(':').collect();
                        if parts.len() != 3 {
                            return Err(invalid("--grid expects LO:HI:N"));
                        }
                        let lo: f64 = parts[0].parse().map_err(|_| invalid("--grid: bad LO"))?;
                        let hi: f64 = parts[1].parse().map_err(|_| invalid("--grid: bad HI"))?;
                        let n: usize = parts[2].parse().map_err(|_| invalid("--grid: bad N"))?;
                        grid = Some((lo, hi, n));
                    }
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            if at.is_empty() {
                return Err(invalid("density requires --at X1,X2,…"));
            }
            Ok(Command::Density {
                input,
                at,
                subspace,
                q,
                unadjusted,
                grid,
            })
        }
        "classify" => {
            let mut train = None;
            let mut test = None;
            let mut q = 140;
            let mut threshold = 0.55;
            let mut unadjusted = false;
            let mut nn = false;
            let mut backend = BackendSpec::Exact;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--train" => {
                        train = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--train needs a path"))?,
                        ))
                    }
                    "--test" => {
                        test = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--test needs a path"))?,
                        ))
                    }
                    "--q" => q = parse_num("--q", it.next())?,
                    "--threshold" => threshold = parse_num("--threshold", it.next())?,
                    "--unadjusted" => unadjusted = true,
                    "--nn" => nn = true,
                    "--backend" => backend = parse_backend(it.next())?,
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            if unadjusted && nn {
                return Err(invalid("--unadjusted and --nn are mutually exclusive"));
            }
            Ok(Command::Classify {
                train: train.ok_or_else(|| invalid("classify requires --train"))?,
                test: test.ok_or_else(|| invalid("classify requires --test"))?,
                q,
                threshold,
                unadjusted,
                nn,
                backend,
            })
        }
        "convert" => {
            let dataset = parse_dataset(
                &it.next()
                    .ok_or_else(|| invalid("convert needs a dataset name"))?,
            )?;
            let input = PathBuf::from(
                it.next()
                    .ok_or_else(|| invalid("convert needs an input file"))?,
            );
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => {
                        out = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--out needs a path"))?,
                        ))
                    }
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Convert {
                dataset,
                input,
                out,
            })
        }
        "aggregate" => {
            let input = PathBuf::from(
                it.next()
                    .ok_or_else(|| invalid("aggregate needs an input CSV"))?,
            );
            let mut group = 10;
            let mut sort = false;
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--group" => group = parse_num("--group", it.next())?,
                    "--sort" => sort = true,
                    "--out" => {
                        out = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--out needs a path"))?,
                        ))
                    }
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Aggregate {
                input,
                group,
                sort,
                out,
            })
        }
        "cluster" => {
            let input = PathBuf::from(
                it.next()
                    .ok_or_else(|| invalid("cluster needs an input CSV"))?,
            );
            let mut k = None;
            let mut dbscan = None;
            let mut euclidean = false;
            let mut seed = 0;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--k" => k = Some(parse_num("--k", it.next())?),
                    "--dbscan" => {
                        let parts = parse_f64_list("--dbscan", it.next())?;
                        if parts.len() != 2 {
                            return Err(invalid("--dbscan expects EPS,MIN_PTS"));
                        }
                        // fract() != 0 is the IEEE-exact integer-ness test (UDM002-exempt)
                        if parts[1] < 1.0 || parts[1].fract() != 0.0 {
                            return Err(invalid("--dbscan MIN_PTS must be a positive integer"));
                        }
                        // MIN_PTS was just validated as a small positive integer.
                        #[allow(clippy::cast_possible_truncation)]
                        let min_pts = parts[1] as usize;
                        dbscan = Some((parts[0], min_pts));
                    }
                    "--euclidean" => euclidean = true,
                    "--seed" => seed = parse_num("--seed", it.next())?,
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            match (&k, &dbscan) {
                (None, None) => return Err(invalid("cluster requires --k or --dbscan")),
                (Some(_), Some(_)) => {
                    return Err(invalid("--k and --dbscan are mutually exclusive"))
                }
                _ => {}
            }
            Ok(Command::Cluster {
                input,
                k,
                dbscan,
                euclidean,
                seed,
            })
        }
        "chaos" => {
            let dataset = parse_dataset(
                &it.next()
                    .ok_or_else(|| invalid("chaos needs a dataset name"))?,
            )?;
            let mut n = 400;
            let mut f = 1.0;
            let mut q = 60;
            let mut threshold = 0.55;
            let mut rates = vec![0.05, 0.15, 0.3];
            let mut seed = 7;
            let mut bound = None;
            let mut shards = 1;
            let mut kill_shard = None;
            let mut backend = BackendSpec::Exact;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--n" => n = parse_num("--n", it.next())?,
                    "--f" => f = parse_num("--f", it.next())?,
                    "--q" => q = parse_num("--q", it.next())?,
                    "--threshold" => threshold = parse_num("--threshold", it.next())?,
                    "--rates" => rates = parse_f64_list("--rates", it.next())?,
                    "--seed" => seed = parse_num("--seed", it.next())?,
                    "--bound" => bound = Some(parse_num("--bound", it.next())?),
                    "--shards" => shards = parse_num("--shards", it.next())?,
                    "--kill-shard" => kill_shard = Some(parse_num("--kill-shard", it.next())?),
                    "--backend" => backend = parse_backend(it.next())?,
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            if rates.is_empty() {
                return Err(invalid("--rates needs at least one fault rate"));
            }
            if rates
                .iter()
                .any(|r| !(r.is_finite() && (0.0..=1.0).contains(r)))
            {
                return Err(invalid("--rates entries must lie in [0, 1]"));
            }
            if shards == 0 {
                return Err(invalid("--shards must be at least 1"));
            }
            if let Some(k) = kill_shard {
                if shards < 2 {
                    return Err(invalid("--kill-shard needs --shards of at least 2"));
                }
                if k >= shards {
                    return Err(invalid(format!(
                        "--kill-shard {k} is out of range for {shards} shards"
                    )));
                }
            }
            Ok(Command::Chaos {
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
            })
        }
        "serve" => {
            let mut train = None;
            let mut addr = "127.0.0.1:8787".to_string();
            let mut q = 60;
            let mut threshold = 0.55;
            let mut shards = 2;
            let mut state_dir = None;
            let mut checkpoint_every = 64;
            let mut refresh_every = 64;
            let mut batch_window_ms = 0;
            let mut no_batch = false;
            let mut min_coverage: f64 = 1.0;
            let mut max_seconds = None;
            let mut ingest_delay_ms = 0;
            let mut backend = BackendSpec::Exact;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--train" => {
                        train = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--train needs a path"))?,
                        ))
                    }
                    "--addr" => {
                        addr = it.next().ok_or_else(|| invalid("--addr needs HOST:PORT"))?
                    }
                    "--q" => q = parse_num("--q", it.next())?,
                    "--threshold" => threshold = parse_num("--threshold", it.next())?,
                    "--shards" => shards = parse_num("--shards", it.next())?,
                    "--state-dir" => {
                        state_dir = Some(PathBuf::from(
                            it.next()
                                .ok_or_else(|| invalid("--state-dir needs a path"))?,
                        ))
                    }
                    "--checkpoint-every" => {
                        checkpoint_every = parse_num("--checkpoint-every", it.next())?
                    }
                    "--refresh-every" => refresh_every = parse_num("--refresh-every", it.next())?,
                    "--batch-window-ms" => {
                        batch_window_ms = parse_num("--batch-window-ms", it.next())?
                    }
                    "--no-batch" => no_batch = true,
                    "--min-coverage" => min_coverage = parse_num("--min-coverage", it.next())?,
                    "--max-seconds" => max_seconds = Some(parse_num("--max-seconds", it.next())?),
                    "--ingest-delay-ms" => {
                        ingest_delay_ms = parse_num("--ingest-delay-ms", it.next())?
                    }
                    "--backend" => backend = parse_backend(it.next())?,
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            if shards == 0 {
                return Err(invalid("--shards must be at least 1"));
            }
            if !(min_coverage.is_finite() && (0.0..=1.0).contains(&min_coverage)) {
                return Err(invalid("--min-coverage must lie in [0, 1]"));
            }
            if refresh_every == 0 {
                return Err(invalid("--refresh-every must be at least 1"));
            }
            Ok(Command::Serve {
                train: train.ok_or_else(|| invalid("serve requires --train"))?,
                addr,
                q,
                threshold,
                shards,
                state_dir: state_dir.ok_or_else(|| invalid("serve requires --state-dir"))?,
                checkpoint_every,
                refresh_every,
                batch_window_ms,
                no_batch,
                min_coverage,
                max_seconds,
                ingest_delay_ms,
                backend,
            })
        }
        "metrics" => {
            let mut format = MetricsFormat::Prometheus;
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--format" => {
                        let raw = it
                            .next()
                            .ok_or_else(|| invalid("--format needs prom|json|table"))?;
                        format = match raw.as_str() {
                            "prom" | "prometheus" => MetricsFormat::Prometheus,
                            "json" => MetricsFormat::Json,
                            "table" => MetricsFormat::Table,
                            other => {
                                return Err(invalid(format!(
                                    "--format: unknown encoding {other:?}; expected prom, json, or table"
                                )))
                            }
                        };
                    }
                    "--out" => {
                        out = Some(PathBuf::from(
                            it.next().ok_or_else(|| invalid("--out needs a path"))?,
                        ))
                    }
                    other => return Err(invalid(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Metrics { format, out })
        }
        other => Err(invalid(format!(
            "unknown subcommand {other:?}; try `udm help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(args: &[&str]) -> Result<Command> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn generate_defaults_and_flags() {
        let c = parse(&["generate", "adult"]).unwrap();
        match c {
            Command::Generate {
                dataset,
                n,
                f,
                seed,
                out,
            } => {
                assert_eq!(dataset, UciDataset::Adult);
                assert_eq!(n, UciDataset::Adult.default_size());
                assert_eq!(f, 0.0);
                assert_eq!(seed, 7);
                assert!(out.is_none());
            }
            _ => panic!("wrong command"),
        }
        let c = parse(&[
            "generate",
            "forest_cover",
            "--n",
            "100",
            "--f",
            "1.5",
            "--seed",
            "3",
            "--out",
            "x.csv",
        ])
        .unwrap();
        match c {
            Command::Generate {
                dataset,
                n,
                f,
                seed,
                out,
            } => {
                assert_eq!(dataset, UciDataset::ForestCover);
                assert_eq!(n, 100);
                assert_eq!(f, 1.5);
                assert_eq!(seed, 3);
                assert_eq!(out.unwrap(), PathBuf::from("x.csv"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn generate_rejects_unknown_dataset_and_flags() {
        assert!(parse(&["generate", "mnist"]).is_err());
        assert!(parse(&["generate", "adult", "--bogus"]).is_err());
        assert!(parse(&["generate", "adult", "--n", "abc"]).is_err());
        assert!(parse(&["generate", "adult", "--n"]).is_err());
    }

    #[test]
    fn density_requires_at() {
        assert!(parse(&["density", "d.csv"]).is_err());
        let c = parse(&["density", "d.csv", "--at", "1.0,2.5", "--subspace", "0,3"]).unwrap();
        match c {
            Command::Density {
                at,
                subspace,
                q,
                unadjusted,
                grid,
                ..
            } => {
                assert_eq!(at, vec![1.0, 2.5]);
                assert_eq!(subspace, vec![0, 3]);
                assert_eq!(q, 0);
                assert!(!unadjusted);
                assert!(grid.is_none());
            }
            _ => panic!("wrong command"),
        }
        let c = parse(&["density", "d.csv", "--at", "0", "--grid", "-2:5:40"]).unwrap();
        match c {
            Command::Density { grid, .. } => assert_eq!(grid, Some((-2.0, 5.0, 40))),
            _ => panic!("wrong command"),
        }
        assert!(parse(&["density", "d.csv", "--at", "0", "--grid", "1:2"]).is_err());
    }

    #[test]
    fn classify_requires_paths_and_exclusive_baselines() {
        assert!(parse(&["classify", "--train", "a.csv"]).is_err());
        assert!(parse(&[
            "classify",
            "--train",
            "a.csv",
            "--test",
            "b.csv",
            "--unadjusted",
            "--nn"
        ])
        .is_err());
        let c = parse(&[
            "classify",
            "--train",
            "a.csv",
            "--test",
            "b.csv",
            "--q",
            "60",
            "--threshold",
            "0.7",
        ])
        .unwrap();
        match c {
            Command::Classify {
                q,
                threshold,
                unadjusted,
                nn,
                ..
            } => {
                assert_eq!(q, 60);
                assert_eq!(threshold, 0.7);
                assert!(!unadjusted && !nn);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn cluster_modes_are_exclusive_and_required() {
        assert!(parse(&["cluster", "d.csv"]).is_err());
        assert!(parse(&["cluster", "d.csv", "--k", "3", "--dbscan", "1.0,4"]).is_err());
        assert!(parse(&["cluster", "d.csv", "--dbscan", "1.0"]).is_err());
        assert!(parse(&["cluster", "d.csv", "--dbscan", "1.0,4.5"]).is_err());
        let c = parse(&["cluster", "d.csv", "--dbscan", "1.5,4", "--euclidean"]).unwrap();
        match c {
            Command::Cluster {
                dbscan, euclidean, ..
            } => {
                assert_eq!(dbscan, Some((1.5, 4)));
                assert!(euclidean);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn convert_and_aggregate_parse() {
        let c = parse(&["convert", "breast_cancer", "raw.data", "--out", "bc.csv"]).unwrap();
        match c {
            Command::Convert {
                dataset,
                input,
                out,
            } => {
                assert_eq!(dataset, UciDataset::BreastCancer);
                assert_eq!(input, PathBuf::from("raw.data"));
                assert_eq!(out.unwrap(), PathBuf::from("bc.csv"));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&["convert", "bogus", "x"]).is_err());
        let c = parse(&["aggregate", "d.csv", "--group", "5", "--sort"]).unwrap();
        match c {
            Command::Aggregate { group, sort, .. } => {
                assert_eq!(group, 5);
                assert!(sort);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn chaos_defaults_and_flags() {
        let c = parse(&["chaos", "breast_cancer"]).unwrap();
        match c {
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
                assert_eq!(dataset, UciDataset::BreastCancer);
                assert_eq!(n, 400);
                assert_eq!(f, 1.0);
                assert_eq!(q, 60);
                assert_eq!(threshold, 0.55);
                assert_eq!(rates, vec![0.05, 0.15, 0.3]);
                assert_eq!(seed, 7);
                assert!(bound.is_none());
                assert_eq!(shards, 1);
                assert!(kill_shard.is_none());
                assert_eq!(backend, BackendSpec::Exact);
            }
            _ => panic!("wrong command"),
        }
        let c = parse(&[
            "chaos",
            "ionosphere",
            "--n",
            "250",
            "--rates",
            "0.1,0.4",
            "--bound",
            "0.2",
            "--seed",
            "9",
            "--shards",
            "4",
            "--kill-shard",
            "2",
        ])
        .unwrap();
        match c {
            Command::Chaos {
                n,
                rates,
                bound,
                seed,
                shards,
                kill_shard,
                ..
            } => {
                assert_eq!(n, 250);
                assert_eq!(rates, vec![0.1, 0.4]);
                assert_eq!(bound, Some(0.2));
                assert_eq!(seed, 9);
                assert_eq!(shards, 4);
                assert_eq!(kill_shard, Some(2));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn chaos_validates_rates() {
        assert!(parse(&["chaos"]).is_err());
        assert!(parse(&["chaos", "adult", "--rates", ""]).is_err());
        assert!(parse(&["chaos", "adult", "--rates", "0.1,1.5"]).is_err());
        assert!(parse(&["chaos", "adult", "--rates", "-0.1"]).is_err());
        assert!(parse(&["chaos", "adult", "--bogus"]).is_err());
    }

    #[test]
    fn chaos_validates_shards() {
        assert!(parse(&["chaos", "adult", "--shards", "0"]).is_err());
        assert!(parse(&["chaos", "adult", "--kill-shard", "0"]).is_err());
        assert!(parse(&["chaos", "adult", "--shards", "4", "--kill-shard", "4"]).is_err());
        match parse(&["chaos", "adult", "--shards", "4", "--kill-shard", "3"]).unwrap() {
            Command::Chaos {
                shards, kill_shard, ..
            } => {
                assert_eq!(shards, 4);
                assert_eq!(kill_shard, Some(3));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn serve_defaults_and_flags() {
        let c = parse(&["serve", "--train", "t.csv", "--state-dir", "/tmp/s"]).unwrap();
        match c {
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
                assert_eq!(train, PathBuf::from("t.csv"));
                assert_eq!(addr, "127.0.0.1:8787");
                assert_eq!(q, 60);
                assert_eq!(threshold, 0.55);
                assert_eq!(shards, 2);
                assert_eq!(state_dir, PathBuf::from("/tmp/s"));
                assert_eq!(checkpoint_every, 64);
                assert_eq!(refresh_every, 64);
                assert_eq!(batch_window_ms, 0);
                assert!(!no_batch);
                assert_eq!(min_coverage, 1.0);
                assert!(max_seconds.is_none());
                assert_eq!(ingest_delay_ms, 0);
                assert_eq!(backend, BackendSpec::Exact);
            }
            _ => panic!("wrong command"),
        }
        let c = parse(&[
            "serve",
            "--train",
            "t.csv",
            "--state-dir",
            "/tmp/s",
            "--addr",
            "127.0.0.1:0",
            "--q",
            "30",
            "--shards",
            "3",
            "--checkpoint-every",
            "16",
            "--refresh-every",
            "32",
            "--batch-window-ms",
            "2",
            "--min-coverage",
            "0.5",
            "--max-seconds",
            "4.5",
            "--ingest-delay-ms",
            "10",
            "--no-batch",
        ])
        .unwrap();
        match c {
            Command::Serve {
                addr,
                q,
                shards,
                checkpoint_every,
                refresh_every,
                batch_window_ms,
                no_batch,
                min_coverage,
                max_seconds,
                ingest_delay_ms,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(q, 30);
                assert_eq!(shards, 3);
                assert_eq!(checkpoint_every, 16);
                assert_eq!(refresh_every, 32);
                assert_eq!(batch_window_ms, 2);
                assert!(no_batch);
                assert_eq!(min_coverage, 0.5);
                assert_eq!(max_seconds, Some(4.5));
                assert_eq!(ingest_delay_ms, 10);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn backend_flag_parses_on_classify_chaos_and_serve() {
        let c = parse(&[
            "classify",
            "--train",
            "a.csv",
            "--test",
            "b.csv",
            "--backend",
            "coreset:0.05",
        ])
        .unwrap();
        match c {
            Command::Classify { backend, .. } => {
                assert_eq!(backend, BackendSpec::Coreset { eps: 0.05 });
            }
            _ => panic!("wrong command"),
        }
        let c = parse(&["chaos", "adult", "--backend", "coreset:0.2"]).unwrap();
        match c {
            Command::Chaos { backend, .. } => {
                assert_eq!(backend, BackendSpec::Coreset { eps: 0.2 });
            }
            _ => panic!("wrong command"),
        }
        // The removed hashing-based specs fail cleanly, naming the grammar.
        for removed in ["hbe:0.2", "hbe:0.2,0.05"] {
            let err = parse(&["chaos", "adult", "--backend", removed])
                .unwrap_err()
                .to_string();
            assert!(err.contains("exact | coreset:EPS"), "{removed}: {err}");
        }
        let c = parse(&[
            "serve",
            "--train",
            "t.csv",
            "--state-dir",
            "/tmp/s",
            "--backend",
            "exact",
        ])
        .unwrap();
        match c {
            Command::Serve { backend, .. } => assert_eq!(backend, BackendSpec::Exact),
            _ => panic!("wrong command"),
        }
        // Malformed or out-of-range specs are rejected at parse time.
        assert!(parse(&[
            "classify",
            "--train",
            "a",
            "--test",
            "b",
            "--backend",
            "fft"
        ])
        .is_err());
        assert!(parse(&[
            "classify",
            "--train",
            "a",
            "--test",
            "b",
            "--backend",
            "coreset:2.0"
        ])
        .is_err());
        assert!(parse(&["chaos", "adult", "--backend"]).is_err());
    }

    #[test]
    fn serve_validates_required_flags_and_ranges() {
        assert!(parse(&["serve"]).is_err());
        assert!(parse(&["serve", "--train", "t.csv"]).is_err());
        assert!(parse(&["serve", "--state-dir", "/tmp/s"]).is_err());
        assert!(parse(&[
            "serve",
            "--train",
            "t.csv",
            "--state-dir",
            "/tmp/s",
            "--shards",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "serve",
            "--train",
            "t.csv",
            "--state-dir",
            "/tmp/s",
            "--min-coverage",
            "1.5"
        ])
        .is_err());
        assert!(parse(&[
            "serve",
            "--train",
            "t.csv",
            "--state-dir",
            "/tmp/s",
            "--refresh-every",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "serve",
            "--train",
            "t.csv",
            "--state-dir",
            "/tmp/s",
            "--bogus"
        ])
        .is_err());
    }

    #[test]
    fn unknown_subcommand() {
        assert!(parse(&["frobnicate"]).is_err());
    }

    #[test]
    fn metrics_defaults_and_formats() {
        let c = parse(&["metrics"]).unwrap();
        assert_eq!(
            c,
            Command::Metrics {
                format: MetricsFormat::Prometheus,
                out: None,
            }
        );
        let c = parse(&["metrics", "--format", "json", "--out", "m.json"]).unwrap();
        match c {
            Command::Metrics { format, out } => {
                assert_eq!(format, MetricsFormat::Json);
                assert_eq!(out.unwrap(), PathBuf::from("m.json"));
            }
            _ => panic!("wrong command"),
        }
        assert_eq!(
            parse(&["metrics", "--format", "prometheus"]).unwrap(),
            Command::Metrics {
                format: MetricsFormat::Prometheus,
                out: None,
            }
        );
        match parse(&["metrics", "--format", "table"]).unwrap() {
            Command::Metrics { format, .. } => assert_eq!(format, MetricsFormat::Table),
            _ => panic!("wrong command"),
        }
        assert!(parse(&["metrics", "--format", "xml"]).is_err());
        assert!(parse(&["metrics", "--format"]).is_err());
        assert!(parse(&["metrics", "--bogus"]).is_err());
    }

    fn invoke(args: &[&str]) -> Result<Invocation> {
        parse_invocation(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn invocation_extracts_observe_flags_anywhere() {
        let inv = invoke(&[
            "classify",
            "--train",
            "a.csv",
            "--metrics",
            "m.prom",
            "--test",
            "b.csv",
            "--trace",
            "t.jsonl",
        ])
        .unwrap();
        assert_eq!(inv.observe.metrics.as_deref(), Some(Path::new("m.prom")));
        assert_eq!(inv.observe.trace.as_deref(), Some(Path::new("t.jsonl")));
        match inv.command {
            Command::Classify { train, test, .. } => {
                assert_eq!(train, PathBuf::from("a.csv"));
                assert_eq!(test, PathBuf::from("b.csv"));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(inv.raw.len(), 9);
    }

    #[test]
    fn invocation_without_observe_flags_is_plain() {
        let inv = invoke(&["help"]).unwrap();
        assert_eq!(inv.command, Command::Help);
        assert_eq!(inv.observe, ObserveOptions::default());
        assert!(invoke(&["help", "--metrics"]).is_err());
        assert!(invoke(&["help", "--trace"]).is_err());
    }
}
