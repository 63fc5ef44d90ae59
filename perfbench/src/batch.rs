//! `cover_batch` and `wide_batch`: the `udm classify` path.
//!
//! Set-up is `DensityClassifier::fit` on the training split (the paper's
//! one-off training, Fig. 8), timed `fits` times back to back. The
//! untraced window then walks the sample chunk by chunk, in cycles, until
//! it closes. Each chunk takes:
//!
//! 1. one sequential `evaluate` over the chunk (throughput; the first
//!    cycle gives the accuracy);
//! 2. `classify_detailed` per point of the chunk, each call timed
//!    (per-point latency; in the first cycle the label tally and
//!    digest), each followed by timed `class_scores` calls on held-out
//!    points in turn: the full-space densities of every class KDE (Eq. 11
//!    at S = all dimensions).
//!
//! Chunk by chunk, every timed quantity is sampled across the whole
//! window, so a stretch of contention from other tenants of the host
//! moves a few samples rather than a whole metric. On `cover_batch` each
//! fit and each chunk is scaled to the nominal host speed of
//! [`crate::speed`].
//!
//! The traced run replays the same fit and the same points layer by
//! layer through the crates' public functions instead.

use crate::inputs::{self, BatchSpec};
use crate::report::{label_digest, Outcome};
use crate::speed::Calibration;
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, Counters, Tracer};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use udm_classify::rollup::{rollup, AccuracyOracle, RollupLimits, RollupOutcome};
use udm_classify::{
    evaluate, select_non_overlapping, ClassifierConfig, DensityClassifier, Fallback,
};
use udm_core::{ClassLabel, Result, Subspace, UncertainDataset, UncertainPoint};
use udm_kde::{BackendSpec, KernelColumns};
use udm_microcluster::{MaintainerConfig, MicroCluster, MicroClusterKde, MicroClusterMaintainer};

pub fn run(spec: &BatchSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let data = inputs::split(spec.dataset, spec.train, spec.held_out, seed);
    crate::report::reset_peak_rss(&mut out);
    let sample = &data.held_out[..spec.sample];
    out.note(format!(
        "inputs: {} train points ({} dims), {} held out, sample {}, q = {}, f = {}",
        data.train.len(),
        data.train.dim(),
        data.held_out.len(),
        sample.len(),
        spec.config.micro_clusters,
        inputs::ERROR_LEVEL
    ));
    let fits = if traced { 1 } else { spec.fits };
    let calibration = Calibration::new(spec.host_scaled);
    let (mut fit_seconds, mut factors) = (Vec::with_capacity(fits), Vec::with_capacity(fits));
    let mut model = None;
    for _ in 0..fits {
        let factor = calibration.factor();
        let started = Instant::now();
        let fitted = DensityClassifier::fit(&data.train, spec.config)
            .and_then(|m| m.set_backend(BackendSpec::Exact).map(|()| m));
        fit_seconds.push(started.elapsed().as_secs_f64());
        factors.push(factor);
        match fitted {
            Ok(m) => model = Some(m),
            Err(e) => {
                out.check(false, || format!("fit failed: {e}"));
                return out;
            }
        }
    }
    let model = model.expect("at least one fit");
    if traced {
        replay(&mut out, spec, &data.train, &model, sample);
    } else {
        let scaled: Vec<f64> = fit_seconds
            .iter()
            .zip(&factors)
            .map(|(s, f)| s * f)
            .collect();
        let setup_s = median(&scaled);
        out.note(if spec.host_scaled {
            format!(
                "setup: {fits} fits, median {setup_s:.4} s scaled, {:.4} s unscaled",
                median(&fit_seconds)
            )
        } else {
            format!("setup: {fits} fits, median {setup_s:.4} s")
        });
        out.set("setup_s", setup_s);
        window(
            &mut out,
            spec,
            &data.held_out,
            &model,
            &calibration,
            seconds,
        );
    }
    out
}

/// The untraced window: end-to-end metrics and output checks. The
/// chunks repeat in cycles until the window closes; the first cycle
/// always completes and gives the labels, the tally and the accuracy.
fn window(
    out: &mut Outcome,
    spec: &BatchSpec,
    held_out: &[UncertainPoint],
    model: &DensityClassifier,
    calibration: &Calibration,
    seconds: f64,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let sample = &held_out[..spec.sample];
    let chunks: Vec<(&[UncertainPoint], UncertainDataset)> = sample
        .chunks(spec.chunk)
        .map(|c| {
            let dataset = UncertainDataset::from_points(c.to_vec()).expect("held-out chunk");
            (c, dataset)
        })
        .collect();
    let densities_per_point = held_out.len().div_ceil(sample.len());
    let mut next_density = 0usize;
    // Scaled samples, and per chunk its factor and unscaled rate.
    let (mut point_ms, mut density_ms) = (Vec::new(), Vec::new());
    let (mut rates, mut factors, mut unscaled_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut labels = Vec::with_capacity(sample.len());
    let mut tally = 0usize;
    let (mut first_n, mut first_correct) = (0usize, 0usize);
    let mut cycles = 0usize;
    while cycles == 0 || Instant::now() < deadline {
        let first = cycles == 0;
        let open = || first || Instant::now() < deadline;
        for (k, (points, chunk)) in chunks.iter().enumerate().take_while(|_| open()) {
            let factor = calibration.factor();
            factors.push(factor);
            // Sequential `evaluate` over the chunk.
            let started = Instant::now();
            let report = evaluate(model, chunk);
            let elapsed = started.elapsed().as_secs_f64();
            out.attempted += chunk.len() as u64;
            match report {
                Ok(r) => {
                    rates.push(r.n as f64 / elapsed / factor);
                    unscaled_rates.push(r.n as f64 / elapsed);
                    if first {
                        first_n += r.n;
                        first_correct += r.correct;
                    }
                }
                Err(e) => {
                    out.failed += chunk.len() as u64;
                    out.failures.push(format!("evaluate(chunk {k}): {e}"));
                }
            }

            // Per-point classification, each followed by the full-space
            // class densities of the next held-out points in turn.
            for p in points.iter() {
                let started = Instant::now();
                let outcome = model.classify_detailed(p);
                point_ms.push(started.elapsed().as_secs_f64() * 1e3 * factor);
                out.attempted += 1;
                match outcome {
                    Ok(o) if first => {
                        tally += usize::from(Some(o.label) == p.label());
                        labels.push(o.label.id());
                    }
                    Ok(_) => {}
                    Err(e) => {
                        out.failed += 1;
                        out.failures
                            .push(format!("classify_detailed(chunk {k}): {e}"));
                    }
                }
                for _ in 0..densities_per_point {
                    let q = &held_out[next_density % held_out.len()];
                    next_density += 1;
                    let started = Instant::now();
                    let scores = model.class_scores(q);
                    density_ms.push(started.elapsed().as_secs_f64() * 1e3 * factor);
                    out.attempted += 1;
                    if !scores
                        .as_ref()
                        .is_ok_and(|s| s.iter().all(|(_, v)| v.is_finite()))
                    {
                        out.failed += 1;
                        out.failures
                            .push("class_scores failed or was not finite".into());
                    }
                }
            }
        }
        cycles += 1;
    }

    let accuracy = first_correct as f64 / first_n.max(1) as f64;
    out.check(first_correct == tally && first_n == sample.len(), || {
        format!(
            "evaluate counted {first_correct}/{first_n} correct, per-point tally {tally}/{}",
            sample.len()
        )
    });
    out.note(format!(
        "labels: digest {:016x} over {} predictions, accuracy {accuracy:.4}",
        label_digest(labels.iter().copied()),
        labels.len()
    ));
    out.note(format!(
        "samples: classify latency n = {}, density latency n = {}, evaluate chunks n = {} ({} points each), {cycles} cycles",
        point_ms.len(),
        density_ms.len(),
        rates.len(),
        spec.chunk
    ));
    if spec.host_scaled {
        out.note(format!(
            "host speed: median factor {:.3} (kernel {:.3} ms); unscaled median {:.1} points/s",
            median(&factors),
            crate::speed::NOMINAL_SECONDS * 1e3 / median(&factors),
            median(&unscaled_rates)
        ));
    }

    let points_per_s = median(&rates);
    let ok_share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    let point_ms = sorted(&point_ms);
    let density_ms = sorted(&density_ms);
    out.set("classify_points_per_s", points_per_s);
    out.set("accuracy", accuracy);
    out.note(format!(
        "p99: density {:.4} ms, classify {:.4} ms",
        percentile(&density_ms, 99.0),
        percentile(&point_ms, 99.0)
    ));
    out.set("density_p50_ms", percentile(&density_ms, 50.0));
    out.set("classify_p50_ms", percentile(&point_ms, 50.0));
    // Derived, with no signal of its own: the batch path has no offered
    // load to saturate.
    out.set("goodput_rps", points_per_s * ok_share);
}

/// The classifier's KDEs and decision inputs, rebuilt through the
/// public functions `DensityClassifier::fit` calls.
struct Replayed {
    /// Points streamed through `from_dataset`, global plus per class.
    assigned: u64,
    labels: Vec<ClassLabel>,
    priors: Vec<f64>,
    global: MicroClusterKde,
    per_class: Vec<MicroClusterKde>,
    majority: ClassLabel,
}

fn replay_fit(
    tracer: &Tracer,
    train: &UncertainDataset,
    config: &ClassifierConfig,
) -> Result<Replayed> {
    let _fit = tracer.span("classify.fit", 0);
    let partition = train.partition_by_class();
    let labels = partition.labels();
    let mc = |q| MaintainerConfig {
        max_clusters: q,
        distance: config.distance,
    };
    let global = {
        let _s = tracer.span("microcluster.assign", 0);
        MicroClusterMaintainer::from_dataset(train, mc(config.micro_clusters))?
    };
    let mut agg = MicroCluster::new(train.dim());
    for c in global.clusters() {
        agg.merge(c)?;
    }
    let sigmas: Vec<f64> = (0..train.dim())
        .map(|j| udm_core::num::clamped_sqrt(agg.variance(j)))
        .collect();
    let bandwidths = config
        .bandwidth
        .bandwidths_from_sigmas(&sigmas, train.len())?;
    let pseudo_fit = |clusters: &[MicroCluster]| {
        let _s = tracer.span("microcluster.pseudo_fit", 0);
        MicroClusterKde::fit_with_bandwidths(
            clusters,
            bandwidths.clone(),
            config.kernel_form,
            config.error_adjusted,
        )
    };
    let global_kde = pseudo_fit(global.clusters())?;
    let (mut per_class, mut priors) = (Vec::new(), Vec::new());
    let mut majority = (labels[0], 0usize);
    let mut assigned = global.points_seen();
    for &label in &labels {
        let class_data = partition.class(label).expect("label from the partition");
        let share = class_data.len() as f64 / train.len() as f64;
        // The expression `DensityClassifier::fit` uses, so that rounding
        // agrees with it.
        let q_i = ((config.micro_clusters as f64 * class_data.len() as f64 / train.len() as f64)
            .round() as usize)
            .max(1);
        let m = {
            let _s = tracer.span("microcluster.assign", 0);
            MicroClusterMaintainer::from_dataset(class_data, mc(q_i))?
        };
        assigned += m.points_seen();
        per_class.push(pseudo_fit(m.clusters())?);
        priors.push(share);
        if class_data.len() > majority.1 {
            majority = (label, class_data.len());
        }
    }
    Ok(Replayed {
        assigned,
        labels,
        priors,
        global: global_kde,
        per_class,
        majority: majority.0,
    })
}

/// Eq. 11 over one query's kernel columns. `KernelColumns::density` is
/// timed with an accumulating clock rather than a span per call: the
/// roll-up makes thousands of these sub-microsecond calls per point, and
/// a span would cost as much as the call it times.
struct ReplayOracle<'a> {
    model: &'a Replayed,
    global: KernelColumns,
    per_class: Vec<KernelColumns>,
    eval_time: Cell<Duration>,
    evals: Cell<u64>,
}

impl AccuracyOracle for ReplayOracle<'_> {
    fn labels(&self) -> &[ClassLabel] {
        &self.model.labels
    }

    fn accuracies(&self, subspace: Subspace) -> Result<Vec<f64>> {
        let started = Instant::now();
        let global = self.global.density(subspace)?;
        let mut class_densities = Vec::with_capacity(self.per_class.len());
        for cols in &self.per_class {
            class_densities.push(cols.density(subspace)?);
        }
        self.eval_time.set(self.eval_time.get() + started.elapsed());
        self.evals
            .set(self.evals.get() + 1 + self.per_class.len() as u64);
        Ok(class_densities
            .iter()
            .zip(&self.model.priors)
            .map(|(&d, &prior)| {
                if global > 0.0 {
                    prior * d / global
                } else {
                    f64::NAN
                }
            })
            .collect())
    }
}

/// Non-overlapping selection and the majority vote of Fig. 3, as
/// `DensityClassifier` decides: returns the label and whether the
/// fallback decided.
fn vote(
    outcome: RollupOutcome,
    config: &ClassifierConfig,
    majority: ClassLabel,
) -> (ClassLabel, bool) {
    let selected = select_non_overlapping(outcome.qualifying, config.max_selected_subspaces);
    if selected.is_empty() {
        let label = match (config.fallback, outcome.best_singleton) {
            (Fallback::BestSingleton, Some(best)) => best.label,
            _ => majority,
        };
        return (label, true);
    }
    let mut votes: BTreeMap<ClassLabel, (usize, f64)> = BTreeMap::new();
    for s in &selected {
        let e = votes.entry(s.label).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.accuracy;
    }
    let (&label, _) = votes
        .iter()
        .max_by(|(_, (ca, aa)), (_, (cb, ab))| ca.cmp(cb).then(aa.total_cmp(ab)))
        .expect("selected is non-empty");
    (label, false)
}

/// One point through the layers: column builds, roll-up, selection and vote.
fn replay_point(
    tracer: &Tracer,
    model: &Replayed,
    config: &ClassifierConfig,
    x: &UncertainPoint,
    request: u64,
) -> Result<(ClassLabel, bool, Duration, u64)> {
    let _point = tracer.span("classify.replay", request);
    let query_errors =
        (config.error_adjusted && config.convolve_query_error && !x.is_exact()).then(|| x.errors());
    let oracle = {
        let _s = tracer.span("microcluster.column_build", request);
        ReplayOracle {
            model,
            global: model.global.kernel_columns(x.values(), query_errors)?,
            per_class: model
                .per_class
                .iter()
                .map(|kde| kde.kernel_columns(x.values(), query_errors))
                .collect::<Result<_>>()?,
            eval_time: Cell::new(Duration::ZERO),
            evals: Cell::new(0),
        }
    };
    let outcome = {
        let _s = tracer.span("classify.rollup", request);
        rollup(
            &oracle,
            x.dim(),
            config.accuracy_threshold,
            RollupLimits::from_config(config),
        )?
    };
    let (label, fallback) = {
        let _s = tracer.span("classify.vote", request);
        vote(outcome, config, model.majority)
    };
    Ok((label, fallback, oracle.eval_time.get(), oracle.evals.get()))
}

/// The traced run: per-layer metrics from a layer-by-layer replay of the
/// fit and of `spec.replay` sample points.
fn replay(
    out: &mut Outcome,
    spec: &BatchSpec,
    train: &UncertainDataset,
    model: &DensityClassifier,
    sample: &[UncertainPoint],
) {
    let tracer = Tracer::new(true);
    udm_observe::reset_profile();
    let points = &sample[..spec.replay.min(sample.len())];
    replay_layers(out, &tracer, train, &spec.config, model, points);

    // The end-to-end calls on the same points, timed per call: without
    // benchmark spans for the tails, then with a span around each
    // `classify_detailed` for the tracing overhead.
    let timed = |t: &Tracer, call: &dyn Fn(&UncertainPoint)| {
        points
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let started = Instant::now();
                {
                    let _s = t.span("classify.detailed", i as u64 + 1);
                    call(x);
                }
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>()
    };
    let classify = |x: &UncertainPoint| drop(model.classify_detailed(x));
    let density_ms = sorted(&timed(&Tracer::new(false), &|x| {
        drop(model.class_scores(x))
    }));
    let plain = timed(&Tracer::new(false), &classify);
    let with_spans = timed(&tracer, &classify);
    out.set("bench.density_p99_ms", percentile(&density_ms, 99.0));
    out.set("bench.classify_p99_ms", percentile(&sorted(&plain), 99.0));
    out.set(
        "observe.overhead_ratio",
        with_spans.iter().sum::<f64>() / plain.iter().sum::<f64>(),
    );
    write_spans(out, &tracer);
}

/// Replays `model`'s fit on `train` and its decision on each of
/// `points` through the crates' public functions, and checks the
/// replayed labels against `classify_detailed`.
pub fn replay_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    train: &UncertainDataset,
    config: &ClassifierConfig,
    model: &DensityClassifier,
    points: &[UncertainPoint],
) {
    let replayed = match replay_fit(tracer, train, config) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("fit replay failed: {e}"));
            return;
        }
    };
    let before = Counters::capture();
    let (mut eval_time, mut evals) = (Duration::ZERO, 0u64);
    let mut replay_labels = Vec::with_capacity(points.len());
    let mut fallbacks = 0usize;
    let replay_started = Instant::now();
    for (i, x) in points.iter().enumerate() {
        out.attempted += 1;
        match replay_point(tracer, &replayed, config, x, i as u64 + 1) {
            Ok((label, fallback, t, n)) => {
                replay_labels.push(Some(label));
                fallbacks += usize::from(fallback);
                eval_time += t;
                evals += n;
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("replay of point {i}: {e}"));
                replay_labels.push(None);
            }
        }
    }
    let replay_seconds = replay_started.elapsed().as_secs_f64();
    let after = Counters::capture();

    // The real path on the same points: agreement and per-point latency.
    let mut agree = 0usize;
    let mut point_ms = Vec::with_capacity(points.len());
    for (x, replayed_label) in points.iter().zip(&replay_labels) {
        let started = Instant::now();
        let outcome = model.classify_detailed(x);
        point_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let (Ok(o), Some(label)) = (&outcome, replayed_label) {
            agree += usize::from(o.label == *label);
        }
    }

    let profile = udm_observe::profile();
    let n = points.len().max(1) as f64;
    let candidates = after.delta(&before, "udm_classify_rollup_candidates_total");
    let pruned = after.delta(&before, "udm_classify_rollup_pruned_total");
    let rollup_total = trace::total_seconds(&profile, "classify.rollup");
    let point_ms = sorted(&point_ms);

    out.set(
        "microcluster.assign_s",
        trace::total_seconds(&profile, "microcluster.assign"),
    );
    out.set("microcluster.assign_points", replayed.assigned as f64);
    out.set(
        "microcluster.pseudo_fit_s",
        trace::total_seconds(&profile, "microcluster.pseudo_fit"),
    );
    out.set(
        "microcluster.column_build_s",
        trace::total_seconds(&profile, "microcluster.column_build"),
    );
    out.set(
        "microcluster.column_builds",
        after.delta(&before, "udm_microcluster_column_builds_total") as f64,
    );
    out.set(
        "microcluster.kernel_evals",
        after.delta(&before, "udm_microcluster_kernel_evals_total") as f64,
    );
    out.set("kde.subspace_eval_s", eval_time.as_secs_f64());
    out.set("kde.subspace_evals", evals as f64);
    out.set(
        "classify.rollup_self_s",
        rollup_total - eval_time.as_secs_f64(),
    );
    out.set("classify.rollup_candidates", candidates as f64 / n);
    out.set(
        "classify.rollup_qualify_ratio",
        1.0 - pruned as f64 / candidates.max(1) as f64,
    );
    out.set(
        "classify.vote_s",
        trace::total_seconds(&profile, "classify.vote"),
    );
    out.set("classify.fallback_share", fallbacks as f64 / n);
    out.set("classify.point_p50_ms", percentile(&point_ms, 50.0));
    out.set("classify.point_p99_ms", percentile(&point_ms, 99.0));
    out.set("classify.replay_agreement", agree as f64 / n);
    out.check(agree == points.len(), || {
        format!(
            "replayed labels agree with classify_detailed on {agree} of {} points",
            points.len()
        )
    });
    out.note(format!(
        "replay: {} points in {replay_seconds:.3} s, {candidates} roll-up candidates, {} benchmark spans so far",
        points.len(),
        tracer.spans_recorded()
    ));
}

/// Writes the run's spans under `perfbench/out/`.
pub fn write_spans(out: &mut Outcome, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
    match std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => out.note(format!("spans: {}", path.display())),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
}
