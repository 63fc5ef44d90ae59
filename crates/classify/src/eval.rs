//! Evaluation harness: accuracy, confusion matrices, timing, parallelism.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use udm_core::{ClassLabel, Result, UdmError, UncertainDataset, UncertainPoint};

/// Anything that can assign a class label to an uncertain point.
pub trait Classifier: Sync {
    /// Predicts the label of `x`.
    fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel>;
}

/// Outcome of evaluating a classifier on a labelled test set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalReport {
    /// Number of labelled test points evaluated.
    pub n: usize,
    /// Number of correct predictions.
    pub correct: usize,
    /// Confusion counts keyed by `(actual, predicted)`.
    pub confusion: BTreeMap<(ClassLabel, ClassLabel), usize>,
    /// Wall-clock time spent classifying (excludes training). When
    /// [`evaluate`] splits the test set over several threads, this is
    /// the wall time of the whole call, not the sum over threads.
    pub elapsed: Duration,
}

impl EvalReport {
    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.correct as f64 / self.n as f64
        }
    }

    /// Wall time per test point, in seconds: [`Self::elapsed`] over
    /// [`Self::n`]. With the test set split over several threads this
    /// is less than the time one classification takes.
    pub fn seconds_per_example(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() / self.n as f64
        }
    }

    /// Per-class precision: among predictions of `label`, the fraction
    /// that were correct. 0 when the label was never predicted.
    pub fn precision(&self, label: ClassLabel) -> f64 {
        let mut predicted = 0usize;
        let mut hit = 0usize;
        for (&(actual, pred), &count) in &self.confusion {
            if pred == label {
                predicted += count;
                if actual == label {
                    hit += count;
                }
            }
        }
        if predicted == 0 {
            0.0
        } else {
            hit as f64 / predicted as f64
        }
    }

    /// Per-class F1: harmonic mean of precision and recall.
    pub fn f1(&self, label: ClassLabel) -> f64 {
        let p = self.precision(label);
        let r = self.recall(label);
        // udm-lint: allow(UDM002) zero-denominator guard; p and r are exact 0 in the degenerate case
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Every class that appears as an actual label, in order.
    fn actual_labels(&self) -> Vec<ClassLabel> {
        let mut labels: Vec<ClassLabel> =
            self.confusion.keys().map(|&(actual, _)| actual).collect();
        labels.dedup();
        labels
    }

    /// Mean of `per_label` over the actual labels; 0 when there are none.
    fn mean_over_actual(&self, per_label: impl Fn(ClassLabel) -> f64) -> f64 {
        let labels = self.actual_labels();
        if labels.is_empty() {
            return 0.0;
        }
        labels.iter().map(|&l| per_label(l)).sum::<f64>() / labels.len() as f64
    }

    /// Macro-averaged F1 over every class that appears as an actual label.
    pub fn macro_f1(&self) -> f64 {
        self.mean_over_actual(|l| self.f1(l))
    }

    /// Balanced accuracy: the mean recall over the actual labels. A
    /// classifier that always answers one label scores `1 / classes`
    /// here, whatever the class priors.
    pub fn balanced_accuracy(&self) -> f64 {
        self.mean_over_actual(|l| self.recall(l))
    }

    /// Share of all predictions that go to the most-predicted label; 1.0
    /// for a classifier that always answers the same label.
    pub fn majority_share(&self) -> f64 {
        let mut predicted: BTreeMap<ClassLabel, usize> = BTreeMap::new();
        for (&(_, label), &count) in &self.confusion {
            *predicted.entry(label).or_insert(0) += count;
        }
        match predicted.values().max() {
            Some(&top) if self.n > 0 => top as f64 / self.n as f64,
            _ => 0.0,
        }
    }

    /// Per-class recall: correct predictions of a class over its support.
    pub fn recall(&self, label: ClassLabel) -> f64 {
        let mut support = 0usize;
        let mut hit = 0usize;
        for (&(actual, predicted), &count) in &self.confusion {
            if actual == label {
                support += count;
                if predicted == label {
                    hit += count;
                }
            }
        }
        if support == 0 {
            0.0
        } else {
            hit as f64 / support as f64
        }
    }
}

impl std::fmt::Display for EvalReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "accuracy {:.4} over {} points ({:.3e} s wall/example, macro-F1 {:.4}, \
             balanced accuracy {:.4}, majority share {:.4})",
            self.accuracy(),
            self.n,
            self.seconds_per_example(),
            self.macro_f1(),
            self.balanced_accuracy(),
            self.majority_share()
        )?;
        for l in self.actual_labels() {
            writeln!(
                f,
                "  {l}: recall {:.4}, precision {:.4}",
                self.recall(l),
                self.precision(l)
            )?;
        }
        Ok(())
    }
}

/// Test sets below this many points are evaluated on the calling
/// thread. Measured on the perf ledger (2-core host): splitting
/// `wide_batch`'s 4-point `evaluate` calls over a second thread raised
/// that workload's peak RSS by 22–27%, while the 1000-point chunks of
/// `cover_batch` gained throughput either way.
const PARALLEL_MIN_POINTS: usize = 32;

/// Evaluates a classifier over the labelled points of `test`.
///
/// From 32 points up, on a host with more than one core, the calling
/// thread and [`std::thread::available_parallelism`] − 1 scoped threads
/// share the points: each claims the next unclaimed index from one
/// counter, classifies that point and adds it to its own tally, so a
/// thread slowed by other load claims fewer points instead of holding
/// up the rest. The tallies are integer counts and their sum does not
/// depend on who classified which point, so the counts equal the
/// sequential loop's for any deterministic classifier and only
/// `elapsed` depends on the schedule.
///
/// # Errors
///
/// [`UdmError::EmptyDataset`] if `test` contains no labelled point;
/// otherwise the first classification error in dataset order.
///
/// # Panics
///
/// A panic of `model.classify` on any thread is re-raised here.
pub fn evaluate<C: Classifier>(model: &C, test: &UncertainDataset) -> Result<EvalReport> {
    let start = Instant::now();
    let points = test.points();
    let threads = if points.len() < PARALLEL_MIN_POINTS {
        1
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };
    let next = AtomicUsize::new(0);
    let claim = || tally(model, points, &next);
    let tallies = std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        let mut tallies = vec![claim()];
        for worker in workers {
            tallies.push(
                worker
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        tallies
    });
    let mut report = EvalReport::default();
    let mut errors = Vec::new();
    for (part, error) in tallies {
        report.n += part.n;
        report.correct += part.correct;
        for (key, count) in part.confusion {
            *report.confusion.entry(key).or_insert(0) += count;
        }
        errors.extend(error);
    }
    if let Some((_, e)) = errors.into_iter().min_by_key(|&(index, _)| index) {
        return Err(e);
    }
    if report.n == 0 {
        return Err(UdmError::EmptyDataset);
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Claims indices from `next` until they run out, classifying each
/// labelled point and counting the outcomes (`elapsed` stays zero).
/// Stops at its first error and returns it with the point's index:
/// every smaller index was claimed earlier and is classified by the
/// thread that claimed it, so the smallest failing index over all
/// threads is the first error in dataset order.
fn tally<C: Classifier>(
    model: &C,
    points: &[UncertainPoint],
    next: &AtomicUsize,
) -> (EvalReport, Option<(usize, UdmError)>) {
    let mut report = EvalReport::default();
    loop {
        // The counter hands out indices and guards no other data; the
        // tallies reach the caller through the thread joins.
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(p) = points.get(index) else {
            return (report, None);
        };
        let Some(actual) = p.label() else { continue };
        match model.classify(p) {
            Ok(predicted) => {
                report.n += 1;
                report.correct += usize::from(predicted == actual);
                *report.confusion.entry((actual, predicted)).or_insert(0) += 1;
            }
            Err(e) => return (report, Some((index, e))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic stub: classifies by the sign of the first coordinate.
    struct SignClassifier;

    impl Classifier for SignClassifier {
        fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
            Ok(ClassLabel((x.value(0) >= 0.0) as u32))
        }
    }

    fn test_set() -> UncertainDataset {
        UncertainDataset::from_points(
            (0..100)
                .map(|i| {
                    let v = i as f64 - 50.0;
                    // true label: sign, except 10 points mislabelled
                    let noise_flip = i % 10 == 0;
                    let label = ((v >= 0.0) ^ noise_flip) as u32;
                    UncertainPoint::exact(vec![v])
                        .unwrap()
                        .with_label(ClassLabel(label))
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn accuracy_counts_match() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        assert_eq!(r.n, 100);
        assert_eq!(r.correct, 90);
        assert!((r.accuracy() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrix_sums_to_n() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        let total: usize = r.confusion.values().sum();
        assert_eq!(total, r.n);
    }

    #[test]
    fn recall_per_class() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        // 50 points have v >= 0 (predicted 1); flips make 5 of each class wrong.
        assert!(r.recall(ClassLabel(0)) > 0.8);
        assert!(r.recall(ClassLabel(1)) > 0.8);
        assert_eq!(r.recall(ClassLabel(9)), 0.0);
    }

    #[test]
    fn precision_and_f1() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        for l in [ClassLabel(0), ClassLabel(1)] {
            let p = r.precision(l);
            let rec = r.recall(l);
            let f1 = r.f1(l);
            assert!(p > 0.8 && p <= 1.0);
            let expected = 2.0 * p * rec / (p + rec);
            assert!((f1 - expected).abs() < 1e-12);
        }
        assert_eq!(r.precision(ClassLabel(9)), 0.0);
        assert_eq!(r.f1(ClassLabel(9)), 0.0);
        let macro_f1 = r.macro_f1();
        assert!(macro_f1 > 0.8 && macro_f1 <= 1.0);
    }

    #[test]
    fn unlabelled_points_skipped() {
        let mut d = test_set();
        d.push(UncertainPoint::exact(vec![3.0]).unwrap()).unwrap();
        let r = evaluate(&SignClassifier, &d).unwrap();
        assert_eq!(r.n, 100);
    }

    #[test]
    fn all_unlabelled_is_error() {
        let d =
            UncertainDataset::from_points(vec![UncertainPoint::exact(vec![0.0]).unwrap()]).unwrap();
        assert!(evaluate(&SignClassifier, &d).is_err());
    }

    /// `test_set`'s first `n` points (wrapping around), every seventh
    /// one unlabelled.
    fn sized_set(n: usize) -> UncertainDataset {
        let base = test_set();
        let points = (0..n)
            .map(|i| {
                let p = base.point(i % base.len()).clone();
                if i % 7 == 3 {
                    UncertainPoint::exact(p.values().to_vec()).unwrap()
                } else {
                    p
                }
            })
            .collect();
        UncertainDataset::from_points(points).unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        for n in [1, 31, 32, 33, 100, 251] {
            let d = sized_set(n);
            let mut expected = EvalReport::default();
            for p in d.iter() {
                let Some(actual) = p.label() else { continue };
                let predicted = SignClassifier.classify(p).unwrap();
                expected.n += 1;
                expected.correct += usize::from(predicted == actual);
                *expected.confusion.entry((actual, predicted)).or_insert(0) += 1;
            }
            let got = evaluate(&SignClassifier, &d).unwrap();
            assert_eq!(got.n, expected.n, "n = {n}");
            assert_eq!(got.correct, expected.correct, "n = {n}");
            assert_eq!(got.confusion, expected.confusion, "n = {n}");
        }
    }

    /// Records the thread each point is classified on.
    struct ThreadRecorder(std::sync::Mutex<Vec<std::thread::ThreadId>>);

    impl Classifier for ThreadRecorder {
        fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
            self.0.lock().unwrap().push(std::thread::current().id());
            SignClassifier.classify(x)
        }
    }

    #[test]
    fn parallel_single_thread_delegates() {
        // Below the 32-point crossover every point stays on the calling
        // thread.
        let model = ThreadRecorder(std::sync::Mutex::new(Vec::new()));
        let r = evaluate(&model, &sized_set(31)).unwrap();
        let seen = model.0.into_inner().unwrap();
        assert_eq!(seen.len(), r.n);
        let me = std::thread::current().id();
        assert!(seen.iter().all(|&id| id == me));
    }

    /// Answers label 0, except that it fails on the points whose first
    /// coordinate is listed in `fail_at` and panics on `panic_at`.
    struct Faulty {
        fail_at: Vec<usize>,
        panic_at: Option<usize>,
    }

    impl Classifier for Faulty {
        fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
            let i = x.value(0) as usize;
            assert!(self.panic_at != Some(i), "classifier panicked at {i}");
            if self.fail_at.contains(&i) {
                return Err(UdmError::InvalidConfig(format!("failed at {i}")));
            }
            Ok(ClassLabel(0))
        }
    }

    const CONSTANT: Faulty = Faulty {
        fail_at: Vec::new(),
        panic_at: None,
    };

    fn labelled_line(n: usize) -> UncertainDataset {
        UncertainDataset::from_points(
            (0..n)
                .map(|i| {
                    UncertainPoint::exact(vec![i as f64])
                        .unwrap()
                        .with_label(ClassLabel(0))
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn first_error_in_input_order_propagates() {
        let model = Faulty {
            fail_at: vec![5, 40],
            panic_at: None,
        };
        let err = evaluate(&model, &labelled_line(64)).unwrap_err();
        assert_eq!(
            err.to_string(),
            UdmError::InvalidConfig("failed at 5".into()).to_string()
        );
    }

    #[test]
    #[should_panic(expected = "classifier panicked at 50")]
    fn classifier_panic_is_reraised() {
        let model = Faulty {
            fail_at: Vec::new(),
            panic_at: Some(50),
        };
        let _ = evaluate(&model, &labelled_line(64));
    }

    /// Holds the first point a thread other than `caller` classifies
    /// until every other point is classified, for at most `HOLD_LIMIT`,
    /// and fails that point if they are not. When there are workers, the
    /// caller first waits (as long) for one of them to hold its point.
    struct HoldFirstOffCaller {
        caller: std::thread::ThreadId,
        points: usize,
        workers: bool,
        state: std::sync::Mutex<Hold>,
        changed: std::sync::Condvar,
    }

    #[derive(Default)]
    struct Hold {
        held: bool,
        classified: usize,
    }

    const HOLD_LIMIT: Duration = Duration::from_secs(10);

    impl Classifier for HoldFirstOffCaller {
        fn classify(&self, _: &UncertainPoint) -> Result<ClassLabel> {
            let mut state = self.state.lock().unwrap();
            if std::thread::current().id() == self.caller {
                state = self
                    .changed
                    .wait_timeout_while(state, HOLD_LIMIT, |s| self.workers && !s.held)
                    .unwrap()
                    .0;
            } else if !state.held {
                state.held = true;
                self.changed.notify_all();
                let (held, wait) = self
                    .changed
                    .wait_timeout_while(state, HOLD_LIMIT, |s| s.classified + 1 < self.points)
                    .unwrap();
                if wait.timed_out() {
                    return Err(UdmError::InvalidConfig(format!(
                        "held point still waiting after {HOLD_LIMIT:?}: {} of {} others classified",
                        held.classified,
                        self.points - 1
                    )));
                }
                state = held;
            }
            state.classified += 1;
            self.changed.notify_all();
            Ok(ClassLabel(0))
        }
    }

    #[test]
    fn caller_takes_over_the_points_of_a_stalled_worker() {
        // A worker stalls on the first point it claims; the calling
        // thread must classify all the others meanwhile. With the test
        // set split into fixed per-thread chunks the worker's chunk
        // waits behind its stalled point and the hold times out.
        let n = 64;
        let workers = std::thread::available_parallelism().map_or(1, usize::from) > 1;
        let model = HoldFirstOffCaller {
            caller: std::thread::current().id(),
            points: n,
            workers,
            state: std::sync::Mutex::default(),
            changed: std::sync::Condvar::new(),
        };
        let r = evaluate(&model, &labelled_line(n)).unwrap();
        assert_eq!(r.n, n);
        assert_eq!(model.state.into_inner().unwrap().held, workers);
    }

    #[test]
    fn constant_predictor_reads_collapse() {
        let points = (0..8)
            .map(|i| {
                UncertainPoint::exact(vec![f64::from(i)])
                    .unwrap()
                    .with_label(ClassLabel(u32::from(i >= 6)))
            })
            .collect();
        let d = UncertainDataset::from_points(points).unwrap();
        let r = evaluate(&CONSTANT, &d).unwrap();
        assert!((r.accuracy() - 0.75).abs() < 1e-12);
        assert!((r.balanced_accuracy() - 0.5).abs() < 1e-12);
        assert!((r.majority_share() - 1.0).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("balanced accuracy 0.5000"), "{text}");
        assert!(text.contains("majority share 1.0000"), "{text}");
    }

    #[test]
    fn seconds_per_example_positive() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        assert!(r.seconds_per_example() >= 0.0);
        assert!(r.seconds_per_example() < 1.0);
    }

    #[test]
    fn display_renders_summary() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        let text = r.to_string();
        assert!(text.contains("accuracy 0.9000"), "{text}");
        assert!(text.contains("l0: recall"), "{text}");
    }

    #[test]
    fn classification_errors_propagate() {
        struct Failing;
        impl Classifier for Failing {
            fn classify(&self, _: &UncertainPoint) -> Result<ClassLabel> {
                Err(UdmError::EmptyDataset)
            }
        }
        assert!(evaluate(&Failing, &test_set()).is_err());
    }
}
