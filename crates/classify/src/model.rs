//! The density-based subspace classifier (Fig. 3).

use crate::config::{ClassifierConfig, Fallback};
use crate::eval::Classifier;
use crate::rollup::{rollup, AccuracyOracle, DiscriminativeSubspace, RollupLimits};
use crate::subspace_select::select_non_overlapping;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use udm_core::{ClassLabel, Result, Subspace, UdmError, UncertainDataset, UncertainPoint};
use udm_kde::{BackendSpec, KernelColumns};
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

/// A trained density-based classifier.
///
/// Training (§3, "performed only once as a pre-processing step"):
///
/// 1. partition the training data into `D_1 … D_k` by class;
/// 2. stream `D` into a `q`-cluster error-based micro-cluster summary and
///    each `D_i` into a proportional share of `q`;
/// 3. recover the global per-dimension σ and `N` from the aggregated
///    statistics and fix one shared bandwidth vector, so every density in
///    Eq. 11's ratio is estimated on the same scale.
///
/// Classification evaluates local accuracies `A(x, S, l_i)` (Eq. 11) over
/// micro-cluster densities only — the original data is never revisited.
///
/// # Example
///
/// ```
/// use udm_classify::{Classifier, ClassifierConfig, DensityClassifier};
/// use udm_core::{ClassLabel, UncertainDataset, UncertainPoint};
///
/// let train = UncertainDataset::from_points(vec![
///     UncertainPoint::new(vec![0.0, 0.0], vec![0.1, 0.0]).unwrap()
///         .with_label(ClassLabel(0)),
///     UncertainPoint::new(vec![0.5, 0.2], vec![0.0, 0.2]).unwrap()
///         .with_label(ClassLabel(0)),
///     UncertainPoint::new(vec![6.0, 6.0], vec![0.2, 0.1]).unwrap()
///         .with_label(ClassLabel(1)),
///     UncertainPoint::new(vec![6.5, 5.8], vec![0.1, 0.0]).unwrap()
///         .with_label(ClassLabel(1)),
/// ]).unwrap();
/// let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(4)).unwrap();
/// let x = UncertainPoint::new(vec![6.2, 6.1], vec![0.3, 0.3]).unwrap();
/// assert_eq!(model.classify(&x).unwrap(), ClassLabel(1));
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DensityClassifier {
    config: ClassifierConfig,
    dim: usize,
    labels: Vec<ClassLabel>,
    priors: Vec<f64>,
    class_kdes: Vec<MicroClusterKde>,
    global_kde: MicroClusterKde,
    majority: ClassLabel,
}

/// Everything the classifier can report about one decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationOutcome {
    /// The predicted label.
    pub label: ClassLabel,
    /// The non-overlapping subspaces that voted (empty when the fallback
    /// decided).
    pub selected: Vec<DiscriminativeSubspace>,
    /// Total candidate subspaces whose accuracy was evaluated.
    pub candidates_evaluated: usize,
    /// Whether the fallback policy produced the label.
    pub used_fallback: bool,
}

/// Kernel-column caches for one test point: one per KDE the accuracy
/// ratio (Eq. 11) touches. Building them costs one full-dimensional
/// density evaluation each; every subsequent subspace query is pure
/// multiply-adds over the cached columns.
struct ColumnSet {
    global: KernelColumns,
    per_class: Vec<KernelColumns>,
}

struct KdeOracle<'a> {
    model: &'a DensityClassifier,
    query: &'a [f64],
    /// The test point's own per-dimension error ψ(x). The paper's Figure 1
    /// motivates classifying by what the test example *could* coincide
    /// with inside its error boundary; the error-adjusted method therefore
    /// convolves every density with the query's error (`None` for the
    /// unadjusted baseline, which pretends all errors are zero).
    query_errors: Option<&'a [f64]>,
    /// Lazily-built column caches, shared by every subspace the roll-up
    /// enumerates for this query. A failed build is kept and reported
    /// by every evaluation.
    columns: OnceCell<Result<ColumnSet>>,
}

impl KdeOracle<'_> {
    /// The column caches for this query, built on the first subspace
    /// evaluation.
    fn columns(&self) -> Result<&ColumnSet> {
        if self.columns.get().is_some() {
            udm_observe::counter_inc!("udm_classify_column_cache_hits_total");
        } else {
            udm_observe::counter_inc!("udm_classify_column_cache_misses_total");
        }
        self.columns
            .get_or_init(|| {
                let build =
                    |kde: &MicroClusterKde| kde.kernel_columns(self.query, self.query_errors);
                Ok(ColumnSet {
                    global: build(&self.model.global_kde)?,
                    per_class: self
                        .model
                        .class_kdes
                        .iter()
                        .map(build)
                        .collect::<Result<_>>()?,
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl AccuracyOracle for KdeOracle<'_> {
    fn labels(&self) -> &[ClassLabel] {
        &self.model.labels
    }

    fn accuracies(&self, subspace: Subspace) -> Result<Vec<f64>> {
        let cached = self.columns()?;
        let global = cached.global.density(subspace)?;
        let mut out = Vec::with_capacity(self.model.labels.len());
        for (i, columns) in cached.per_class.iter().enumerate() {
            let class_density = columns.density(subspace)?;
            let a = if global > 0.0 {
                self.model.priors[i] * class_density / global
            } else {
                f64::NAN // numerically empty region: no evidence either way
            };
            out.push(a);
        }
        Ok(out)
    }
}

impl DensityClassifier {
    /// Trains the classifier on a labelled dataset.
    ///
    /// # Errors
    ///
    /// Configuration validation errors; [`UdmError::InvalidConfig`] when
    /// the training data has fewer than 2 classes;
    /// [`UdmError::SubspaceCapacityExceeded`] when it has more than
    /// [`Subspace::MAX_DIMS`] dimensions.
    pub fn fit(train: &UncertainDataset, config: ClassifierConfig) -> Result<Self> {
        let _span_fit = udm_observe::span!("classify_fit");
        config.validate()?;
        // Every subspace the roll-up and the class scores read must fit
        // the bitmask.
        Subspace::full(train.dim())?;
        let partition = train.partition_by_class();
        if partition.num_classes() < 2 {
            return Err(UdmError::InvalidConfig(format!(
                "training data has {} class(es); need at least 2",
                partition.num_classes()
            )));
        }
        let labels = partition.labels();
        let q = config.micro_clusters;
        let mc_config = MaintainerConfig {
            max_clusters: q,
            distance: config.distance,
        };

        // Global summary over all of D.
        let global = MicroClusterMaintainer::from_dataset(train, mc_config)?;

        // Shared bandwidths from the aggregated global statistics.
        let mut agg = udm_microcluster::MicroCluster::new(train.dim());
        for c in global.clusters() {
            agg.merge(c)?;
        }
        let sigmas: Vec<f64> = (0..train.dim())
            .map(|j| udm_core::num::clamped_sqrt(agg.variance(j)))
            .collect();
        let bandwidths = config
            .bandwidth
            .bandwidths_from_sigmas(&sigmas, train.len())?;

        let global_kde = MicroClusterKde::fit_with_bandwidths(
            global.clusters(),
            bandwidths.clone(),
            config.kernel_form,
            config.error_adjusted,
        )?;

        // Per-class summaries: q_i proportional to |D_i|, at least 1.
        let mut class_kdes = Vec::with_capacity(labels.len());
        let mut priors = Vec::with_capacity(labels.len());
        let mut majority = (labels[0], 0usize);
        for &label in &labels {
            let class_data = partition
                .class(label)
                .ok_or(UdmError::UnknownLabel(label.id()))?;
            // The per-class budget q_i <= q, which fits in usize.
            #[allow(clippy::cast_possible_truncation)]
            let q_i =
                ((q as f64 * class_data.len() as f64 / train.len() as f64).round() as usize).max(1);
            let m = MicroClusterMaintainer::from_dataset(
                class_data,
                MaintainerConfig {
                    max_clusters: q_i,
                    distance: config.distance,
                },
            )?;
            class_kdes.push(MicroClusterKde::fit_with_bandwidths(
                m.clusters(),
                bandwidths.clone(),
                config.kernel_form,
                config.error_adjusted,
            )?);
            priors.push(class_data.len() as f64 / train.len() as f64);
            if class_data.len() > majority.1 {
                majority = (label, class_data.len());
            }
        }

        Ok(DensityClassifier {
            config,
            dim: train.dim(),
            labels,
            priors,
            class_kdes,
            global_kde,
            majority: majority.0,
        })
    }

    /// The training configuration.
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Serializes the trained model to JSON (micro-cluster summaries,
    /// bandwidths, priors — everything needed to classify).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| UdmError::Io(e.to_string()))
    }

    /// Restores a trained model from JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| UdmError::Parse {
            line: 0,
            message: e.to_string(),
        })
    }

    /// Data dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The class labels the model knows, ascending.
    pub fn labels(&self) -> &[ClassLabel] {
        &self.labels
    }

    /// Training-set prior `|D_i|/|D|` of a label.
    pub fn prior(&self, label: ClassLabel) -> Option<f64> {
        self.labels
            .iter()
            .position(|&l| l == label)
            .map(|i| self.priors[i])
    }

    /// The query-error vector the oracle should convolve with: the test
    /// point's own ψ when error adjustment is on and the point actually
    /// carries errors, `None` otherwise (keeps the ψ ≡ 0 fast path).
    fn query_errors_of<'a>(&self, x: &'a UncertainPoint) -> Option<&'a [f64]> {
        if self.config.error_adjusted && self.config.convolve_query_error && !x.is_exact() {
            Some(x.errors())
        } else {
            None
        }
    }

    /// Kept only because the perf ledger calls it; always `Ok(())`.
    pub fn set_backend(&self, _spec: BackendSpec) -> Result<()> {
        Ok(())
    }

    /// The Eq. 11 oracle for `x`, reading the model's own KDEs; its
    /// kernel-column caches are built on first use.
    fn oracle<'a>(&'a self, x: &'a UncertainPoint) -> KdeOracle<'a> {
        KdeOracle {
            model: self,
            query: x.values(),
            query_errors: self.query_errors_of(x),
            columns: OnceCell::new(),
        }
    }

    /// The local accuracy `A(x, S, l)` (Eq. 11) — exposed for inspection
    /// and examples.
    pub fn local_accuracy(
        &self,
        x: &UncertainPoint,
        subspace: Subspace,
        label: ClassLabel,
    ) -> Result<f64> {
        let idx = self
            .labels
            .iter()
            .position(|&l| l == label)
            .ok_or(UdmError::UnknownLabel(label.id()))?;
        Ok(self.oracle(x).accuracies(subspace)?[idx])
    }

    /// Class scores for a point: the full-space local accuracies
    /// `A(x, full, l_i)` (Eq. 11 over all dimensions), normalized to sum
    /// to 1 when any mass exists. A cheap posterior-like summary that
    /// skips the subspace roll-up.
    pub fn class_scores(&self, x: &UncertainPoint) -> Result<Vec<(ClassLabel, f64)>> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        self.scores_from(&self.oracle(x))
    }

    /// Full-space normalized scores from an already-built oracle, so the
    /// kernel-column caches can be shared with a roll-up over the same
    /// query.
    fn scores_from(&self, oracle: &KdeOracle<'_>) -> Result<Vec<(ClassLabel, f64)>> {
        let accs = oracle.accuracies(Subspace::full(self.dim)?)?;
        let total: f64 = accs.iter().filter(|a| a.is_finite()).sum();
        Ok(self
            .labels
            .iter()
            .zip(accs.iter())
            .map(|(&l, &a)| {
                let score = if a.is_finite() && total > 0.0 {
                    a / total
                } else {
                    0.0
                };
                (l, score)
            })
            .collect())
    }

    /// Classifies a point, returning the full decision trace.
    pub fn classify_detailed(&self, x: &UncertainPoint) -> Result<ClassificationOutcome> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        udm_core::num::ensure_finite_slice("query point values", x.values())?;
        udm_core::num::ensure_finite_slice("query point errors", x.errors())?;
        let _span_point = udm_observe::span!("classify_point");
        self.decide(&self.oracle(x))
    }

    /// Classifies a point and reports the normalized full-space class
    /// scores in one pass over a *single* set of per-query kernel-column
    /// caches. Bit-identical to calling [`DensityClassifier::classify_detailed`]
    /// and [`DensityClassifier::class_scores`] back to back — sharing the
    /// oracle only avoids rebuilding the column caches (one full-dimension
    /// density evaluation per KDE), which is the dominant per-query cost
    /// for a serving layer that wants both the decision and its scores.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] on a wrong-width query;
    /// [`UdmError::InvalidValue`] for non-finite values or errors;
    /// evaluation errors from the underlying KDEs.
    pub fn classify_scored(
        &self,
        x: &UncertainPoint,
    ) -> Result<(ClassificationOutcome, Vec<(ClassLabel, f64)>)> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        udm_core::num::ensure_finite_slice("query point values", x.values())?;
        udm_core::num::ensure_finite_slice("query point errors", x.errors())?;
        let _span_point = udm_observe::span!("classify_point");
        let oracle = self.oracle(x);
        Ok((self.decide(&oracle)?, self.scores_from(&oracle)?))
    }

    /// The subspace roll-up decision from an already-built oracle.
    fn decide(&self, oracle: &KdeOracle<'_>) -> Result<ClassificationOutcome> {
        let outcome = rollup(
            oracle,
            self.dim,
            self.config.accuracy_threshold,
            RollupLimits::from_config(&self.config),
        )?;
        let selected =
            select_non_overlapping(outcome.qualifying, self.config.max_selected_subspaces);

        if selected.is_empty() {
            let label = match (self.config.fallback, outcome.best_singleton) {
                (Fallback::BestSingleton, Some(best)) => best.label,
                _ => self.majority,
            };
            return Ok(ClassificationOutcome {
                label,
                selected: Vec::new(),
                candidates_evaluated: outcome.candidates_evaluated,
                used_fallback: true,
            });
        }

        // Majority vote over the dominant classes of the selected sets;
        // ties broken by summed accuracy, then by label order.
        let mut votes: BTreeMap<ClassLabel, (usize, f64)> = BTreeMap::new();
        for s in &selected {
            let e = votes.entry(s.label).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.accuracy;
        }
        // `selected` was verified non-empty above, so at least one vote
        // exists; the error path is unreachable but typed.
        let (&label, _) = votes
            .iter()
            .max_by(|(_, (ca, aa)), (_, (cb, ab))| ca.cmp(cb).then(aa.total_cmp(ab)))
            .ok_or(UdmError::EmptyDataset)?;

        Ok(ClassificationOutcome {
            label,
            selected,
            candidates_evaluated: outcome.candidates_evaluated,
            used_fallback: false,
        })
    }
}

impl Classifier for DensityClassifier {
    fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
        Ok(self.classify_detailed(x)?.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udm_data::{stratified_split, ErrorModel, GaussianClassSpec, MixtureGenerator, UciDataset};

    /// Well-separated 2-class mixture in 3 dims; only dims 0 and 1 are
    /// informative, dim 2 is identical noise for both classes.
    fn informative_mixture() -> MixtureGenerator {
        MixtureGenerator::new(
            3,
            vec![
                GaussianClassSpec {
                    mean: vec![0.0, 0.0, 0.0],
                    std: vec![1.0, 1.0, 1.0],
                    weight: 1.0,
                },
                GaussianClassSpec {
                    mean: vec![4.0, 4.0, 0.0],
                    std: vec![1.0, 1.0, 1.0],
                    weight: 1.0,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_single_class_training() {
        let g = MixtureGenerator::new(1, vec![GaussianClassSpec::spherical(vec![0.0], 1.0, 1.0)])
            .unwrap();
        let d = g.generate(50, 1);
        assert!(DensityClassifier::fit(&d, ClassifierConfig::default()).is_err());
    }

    #[test]
    fn learns_well_separated_classes() {
        let g = informative_mixture();
        let train = g.generate(600, 10);
        let test = g.generate(200, 11);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(60)).unwrap();
        let mut correct = 0;
        for p in test.iter() {
            if model.classify(p).unwrap() == p.label().unwrap() {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn classify_detailed_reports_subspaces() {
        let g = informative_mixture();
        let train = g.generate(600, 20);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(60)).unwrap();
        // A point deep in class 1 territory.
        let x = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        let out = model.classify_detailed(&x).unwrap();
        assert_eq!(out.label, ClassLabel(1));
        assert!(!out.used_fallback);
        assert!(!out.selected.is_empty());
        assert!(out.candidates_evaluated >= 3);
        // Selected subspaces are pairwise non-overlapping.
        for (i, a) in out.selected.iter().enumerate() {
            for b in &out.selected[i + 1..] {
                assert!(!a.subspace.overlaps(b.subspace));
            }
        }
    }

    #[test]
    fn discriminative_dims_have_higher_accuracy() {
        let g = informative_mixture();
        let train = g.generate(800, 30);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(60)).unwrap();
        let x = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        let informative = model
            .local_accuracy(&x, Subspace::singleton(0).unwrap(), ClassLabel(1))
            .unwrap();
        let noise = model
            .local_accuracy(&x, Subspace::singleton(2).unwrap(), ClassLabel(1))
            .unwrap();
        assert!(
            informative > noise,
            "informative {informative} vs noise {noise}"
        );
        // The noise dimension carries no signal: accuracy ≈ prior (0.5).
        assert!((noise - 0.5).abs() < 0.15, "noise-dim accuracy {noise}");
    }

    #[test]
    fn error_adjusted_beats_unadjusted_under_heavy_noise() {
        let g = informative_mixture();
        let clean_train = g.generate(800, 40);
        let clean_test = g.generate(300, 41);
        let noisy_train = ErrorModel::paper(2.0).apply(&clean_train, 42).unwrap();
        let noisy_test = ErrorModel::paper(2.0).apply(&clean_test, 43).unwrap();

        let adj =
            DensityClassifier::fit(&noisy_train, ClassifierConfig::error_adjusted(60)).unwrap();
        let unadj = DensityClassifier::fit(&noisy_train, ClassifierConfig::unadjusted(60)).unwrap();

        let accuracy = |m: &DensityClassifier| {
            let mut c = 0;
            for p in noisy_test.iter() {
                if m.classify(p).unwrap() == p.label().unwrap() {
                    c += 1;
                }
            }
            c as f64 / noisy_test.len() as f64
        };
        let a_adj = accuracy(&adj);
        let a_unadj = accuracy(&unadj);
        assert!(
            a_adj >= a_unadj - 0.02,
            "adjusted {a_adj} vs unadjusted {a_unadj}"
        );
        assert!(a_adj > 0.6, "adjusted accuracy too low: {a_adj}");
    }

    #[test]
    fn identical_at_zero_error() {
        // The paper: "the two density based classifiers had exactly the
        // same accuracy when the error-parameter was zero."
        let g = informative_mixture();
        let train = g.generate(400, 50);
        let test = g.generate(100, 51);
        let adj = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(40)).unwrap();
        let unadj = DensityClassifier::fit(&train, ClassifierConfig::unadjusted(40)).unwrap();
        for p in test.iter() {
            assert_eq!(adj.classify(p).unwrap(), unadj.classify(p).unwrap());
        }
    }

    #[test]
    fn classify_scored_matches_separate_calls_bitwise() {
        let g = informative_mixture();
        let train = g.generate(400, 55);
        let test = ErrorModel::paper(1.0)
            .apply(&g.generate(40, 56), 57)
            .unwrap();
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(40)).unwrap();
        for p in test.iter() {
            let (outcome, scores) = model.classify_scored(p).unwrap();
            let detailed = model.classify_detailed(p).unwrap();
            let separate = model.class_scores(p).unwrap();
            assert_eq!(outcome, detailed);
            assert_eq!(scores.len(), separate.len());
            for ((la, sa), (lb, sb)) in scores.iter().zip(separate.iter()) {
                assert_eq!(la, lb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "score drift for {la:?}");
            }
        }
    }

    #[test]
    fn classify_scored_rejects_bad_queries() {
        let g = informative_mixture();
        let train = g.generate(100, 58);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let wrong = UncertainPoint::exact(vec![0.0]).unwrap();
        assert!(model.classify_scored(&wrong).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let g = informative_mixture();
        let train = g.generate(100, 60);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let wrong = UncertainPoint::exact(vec![0.0]).unwrap();
        assert!(model.classify_detailed(&wrong).is_err());
    }

    #[test]
    fn fallback_majority_when_threshold_unreachable() {
        let g = informative_mixture();
        let train = g.generate(300, 70);
        let mut config = ClassifierConfig::error_adjusted(30);
        config.accuracy_threshold = 1e9; // nothing can qualify
        config.fallback = Fallback::MajorityClass;
        let model = DensityClassifier::fit(&train, config).unwrap();
        let x = UncertainPoint::exact(vec![0.0, 0.0, 0.0]).unwrap();
        let out = model.classify_detailed(&x).unwrap();
        assert!(out.used_fallback);
        assert!(out.selected.is_empty());
        assert_eq!(Some(out.label), {
            let part = train.partition_by_class();
            part.labels()
                .into_iter()
                .max_by_key(|&l| part.class(l).unwrap().len())
        });
    }

    #[test]
    fn fallback_best_singleton_is_instance_specific() {
        let g = informative_mixture();
        let train = g.generate(600, 80);
        let mut config = ClassifierConfig::error_adjusted(60);
        config.accuracy_threshold = 1e9;
        config.fallback = Fallback::BestSingleton;
        let model = DensityClassifier::fit(&train, config).unwrap();
        let x0 = UncertainPoint::exact(vec![0.0, 0.0, 0.0]).unwrap();
        let x1 = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        assert_eq!(model.classify(&x0).unwrap(), ClassLabel(0));
        assert_eq!(model.classify(&x1).unwrap(), ClassLabel(1));
    }

    #[test]
    fn class_scores_normalized_and_discriminative() {
        let g = informative_mixture();
        let train = g.generate(400, 95);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(30)).unwrap();
        let x = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        let scores = model.class_scores(&x).unwrap();
        assert_eq!(scores.len(), 2);
        let total: f64 = scores.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // class 1 dominates at its own centroid
        let s1 = scores.iter().find(|(l, _)| *l == ClassLabel(1)).unwrap().1;
        assert!(s1 > 0.8, "score {s1}");
        // arity validated
        assert!(model
            .class_scores(&UncertainPoint::exact(vec![0.0]).unwrap())
            .is_err());
    }

    #[test]
    fn json_roundtrip_preserves_decisions() {
        let g = informative_mixture();
        let train = g.generate(300, 97);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(25)).unwrap();
        let json = model.to_json().unwrap();
        let restored = DensityClassifier::from_json(&json).unwrap();
        let test = g.generate(60, 98);
        for p in test.iter() {
            assert_eq!(model.classify(p).unwrap(), restored.classify(p).unwrap());
        }
        assert!(DensityClassifier::from_json("{bad").is_err());
    }

    #[test]
    fn malformed_kde_json_is_an_error() {
        // Edits of the first KDE's arrays that used to load and then
        // panic (a missing bandwidth or coordinate) or serve answers
        // (a zero bandwidth) must fail the load itself.
        // Replaces `first,` of the first `"key":[first,…]` with `with`.
        fn edit_first(json: &str, key: &str, with: &str) -> String {
            let pattern = format!("\"{key}\":[");
            let open = json.find(&pattern).unwrap() + pattern.len();
            let comma = open + json[open..].find(',').unwrap();
            format!("{}{with}{}", &json[..open], &json[comma + 1..])
        }
        let train = informative_mixture().generate(200, 97);
        let json = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(10))
            .unwrap()
            .to_json()
            .unwrap();
        for (what, edited) in [
            ("missing bandwidth", edit_first(&json, "bandwidths", "")),
            (
                "missing centroid coordinate",
                edit_first(&json, "centroid", ""),
            ),
            ("zero bandwidth", edit_first(&json, "bandwidths", "0.0,")),
        ] {
            assert_ne!(edited, json, "{what}: edit did nothing");
            assert!(
                DensityClassifier::from_json(&edited).is_err(),
                "{what} loaded"
            );
        }
    }

    #[test]
    fn exact_backend_default_is_bit_identical_to_pre_trait_path() {
        // `set_backend(Exact)` is a no-op: every query reads the fitted
        // mixture before and after it, bit for bit.
        let g = informative_mixture();
        let train = g.generate(400, 110);
        let test = ErrorModel::paper(1.0)
            .apply(&g.generate(40, 111), 112)
            .unwrap();
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(40)).unwrap();
        let before: Vec<_> = test
            .iter()
            .map(|p| model.classify_scored(p).unwrap())
            .collect();
        model.set_backend(BackendSpec::Exact).unwrap();
        for (p, (want_out, want_scores)) in test.iter().zip(&before) {
            let (out, scores) = model.classify_scored(p).unwrap();
            assert_eq!(&out, want_out);
            for ((la, sa), (lb, sb)) in scores.iter().zip(want_scores) {
                assert_eq!(la, lb);
                assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
    }

    /// The literal decision rule at f = 2: the error-adjusted roll-up
    /// gives the majority class to at least 96% of the test points on
    /// every stand-in and seed, and its balanced accuracy sits near
    /// 1/k. Each row pins the means over seeds 7, 11 and 13 of
    /// accuracy, balanced accuracy and majority share to within `BAND`,
    /// so a change to the rule has to move these pins on purpose.
    #[test]
    fn majority_collapse_is_pinned_on_every_standin() {
        const BAND: f64 = 0.01;
        // (stand-in, error-adjusted, accuracy, balanced, majority share)
        let pins = [
            (UciDataset::Adult, true, 0.7645, 0.5095, 0.9955),
            (UciDataset::Adult, false, 0.7244, 0.4955, 0.9378),
            (UciDataset::Ionosphere, true, 0.6156, 0.5, 1.0),
            (UciDataset::Ionosphere, false, 0.6156, 0.5, 1.0),
            (UciDataset::BreastCancer, true, 0.66, 0.5063, 0.9889),
            (UciDataset::BreastCancer, false, 0.6733, 0.5429, 0.9267),
            (UciDataset::ForestCover, true, 0.4977, 0.1582, 0.9888),
            (UciDataset::ForestCover, false, 0.4978, 0.1641, 0.8754),
        ];
        for (ds, adjusted, accuracy, balanced, majority) in pins {
            let mut means = [0.0; 3];
            for seed in [7u64, 11, 13] {
                let noisy = ErrorModel::paper(2.0)
                    .apply(&ds.generate(500, seed), seed + 100)
                    .unwrap();
                let split = stratified_split(&noisy, 0.3, seed + 200).unwrap();
                let q = if ds == UciDataset::ForestCover {
                    140
                } else {
                    60
                };
                let mut config = if adjusted {
                    ClassifierConfig::error_adjusted(q)
                } else {
                    ClassifierConfig::unadjusted(q)
                };
                if ds == UciDataset::Ionosphere {
                    // The full 34-dim roll-up visits ~12.7k subspaces
                    // per point, too slow for a debug-profile unit test.
                    config.max_subspace_dim = Some(2);
                }
                let model = DensityClassifier::fit(&split.train, config).unwrap();
                let r = crate::eval::evaluate(&model, &split.test).unwrap();
                let got = [r.accuracy(), r.balanced_accuracy(), r.majority_share()];
                assert!(
                    !adjusted || got[2] >= 0.96,
                    "{} seed {seed}: adjusted majority share {}",
                    ds.name(),
                    got[2]
                );
                for (mean, v) in means.iter_mut().zip(got) {
                    *mean += v / 3.0;
                }
            }
            for (name, got, want) in [
                ("accuracy", means[0], accuracy),
                ("balanced accuracy", means[1], balanced),
                ("majority share", means[2], majority),
            ] {
                assert!(
                    (got - want).abs() <= BAND,
                    "{} adjusted={adjusted}: {name} {got:.4}, pinned {want}",
                    ds.name()
                );
            }
        }
    }

    #[test]
    fn models_saved_with_a_runtime_field_still_load() {
        // Models saved while the classifier carried runtime backend
        // state end in `,"runtime":null}`; they load and answer bit for
        // bit like the fitted model.
        let g = informative_mixture();
        let train = g.generate(200, 140);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let json = model.to_json().unwrap();
        let saved = format!("{},\"runtime\":null}}", json.strip_suffix('}').unwrap());
        let restored = DensityClassifier::from_json(&saved).unwrap();
        assert_eq!(restored.to_json().unwrap(), json);
        let test = ErrorModel::paper(1.0)
            .apply(&g.generate(40, 141), 142)
            .unwrap();
        for p in test.iter() {
            let (want, want_scores) = model.classify_scored(p).unwrap();
            let (got, got_scores) = restored.classify_scored(p).unwrap();
            assert_eq!(got, want);
            assert_eq!(got_scores.len(), want_scores.len());
            for ((la, sa), (lb, sb)) in got_scores.iter().zip(&want_scores) {
                assert_eq!(la, lb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "score drift for {la:?}");
            }
        }
    }

    #[test]
    fn rollup_and_vote_match_the_reference_path_on_wide_data() {
        // The 34-dim ionosphere stand-in at the ledger's operating point:
        // f = 1.2, q = 60 and the default limits, under which the
        // 4096-per-level cap binds. Labels alone would not show a
        // difference: nearly every point gets the majority class.
        let noisy = ErrorModel::paper(1.2)
            .apply(&UciDataset::Ionosphere.generate(400, 150), 151)
            .unwrap();
        let split = stratified_split(&noisy, 0.3, 152).unwrap();
        let config = ClassifierConfig::error_adjusted(60);
        let limits = RollupLimits::from_config(&config);
        let model = DensityClassifier::fit(&split.train, config).unwrap();
        for x in split.test.iter().take(3) {
            let got = model.classify_detailed(x).unwrap();
            let oracle = model.oracle(x);
            let want = crate::rollup::reference_rollup(
                &oracle,
                model.dim,
                model.config.accuracy_threshold,
                limits,
            )
            .unwrap();
            assert!(got.candidates_evaluated > 2 * 4096, "cap never bound");
            assert_eq!(got.candidates_evaluated, want.candidates_evaluated);
            let selected = crate::subspace_select::reference_select(
                want.qualifying,
                model.config.max_selected_subspaces,
            );
            assert!(!selected.is_empty());
            assert_eq!(got.selected, selected);
        }
    }

    #[test]
    fn fit_rejects_data_wider_than_the_bitmask() {
        // Two classes told apart by the last dimension only.
        let last_dim_signal = |dim: usize| {
            let mut shifted = vec![0.0; dim];
            shifted[dim - 1] = 6.0;
            MixtureGenerator::new(
                dim,
                vec![
                    GaussianClassSpec::spherical(vec![0.0; dim], 1.0, 1.0),
                    GaussianClassSpec::spherical(shifted, 1.0, 1.0),
                ],
            )
            .unwrap()
            .generate(200, 160)
        };
        for dim in [Subspace::MAX_DIMS + 1, Subspace::MAX_DIMS + 2] {
            let err =
                DensityClassifier::fit(&last_dim_signal(dim), ClassifierConfig::error_adjusted(10))
                    .unwrap_err();
            assert_eq!(
                err.to_string(),
                UdmError::SubspaceCapacityExceeded { dim: dim - 1 }.to_string()
            );
        }
        // 64 dims still fit, and the roll-up reaches the last one.
        let mut config = ClassifierConfig::error_adjusted(10);
        config.max_subspace_dim = Some(1);
        let model = DensityClassifier::fit(&last_dim_signal(Subspace::MAX_DIMS), config).unwrap();
        let mut values = vec![0.0; Subspace::MAX_DIMS];
        values[Subspace::MAX_DIMS - 1] = 6.0;
        let x = UncertainPoint::exact(values).unwrap();
        let (out, scores) = model.classify_scored(&x).unwrap();
        assert_eq!(out.candidates_evaluated, Subspace::MAX_DIMS);
        assert_eq!(
            out.selected[0].subspace,
            Subspace::singleton(Subspace::MAX_DIMS - 1).unwrap()
        );
        assert_eq!(out.selected[0].label, ClassLabel(1));
        assert!(scores[1].1 > 0.9, "{scores:?}");
    }

    #[test]
    fn priors_reported() {
        let g = informative_mixture();
        let train = g.generate(400, 90);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let p0 = model.prior(ClassLabel(0)).unwrap();
        let p1 = model.prior(ClassLabel(1)).unwrap();
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
        assert!(model.prior(ClassLabel(9)).is_none());
    }
}
