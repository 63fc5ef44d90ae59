//! Stratified k-fold cross-validation over uncertain datasets.

use crate::eval::{evaluate, Classifier, EvalReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use udm_core::{ClassLabel, Result, UdmError, UncertainDataset};

/// Per-fold and aggregate results of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CrossValidationReport {
    /// One evaluation report per fold, in fold order.
    pub folds: Vec<EvalReport>,
}

impl CrossValidationReport {
    /// Mean accuracy across folds.
    pub fn mean_accuracy(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        self.folds.iter().map(|f| f.accuracy()).sum::<f64>() / self.folds.len() as f64
    }

    /// Population standard deviation of fold accuracies.
    pub fn std_accuracy(&self) -> f64 {
        if self.folds.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_accuracy();
        let var = self
            .folds
            .iter()
            .map(|f| (f.accuracy() - mean).powi(2))
            .sum::<f64>()
            / self.folds.len() as f64;
        udm_core::num::clamped_sqrt(var)
    }
}

/// Builds stratified fold assignments: labelled points are dealt
/// round-robin (after a seeded shuffle) within each class, so every fold
/// sees every class when counts permit. Unlabelled points are distributed
/// round-robin too.
fn fold_assignments(data: &UncertainDataset, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buckets: BTreeMap<Option<ClassLabel>, Vec<usize>> = BTreeMap::new();
    for (i, p) in data.iter().enumerate() {
        buckets.entry(p.label()).or_default().push(i);
    }
    let mut fold = vec![0usize; data.len()];
    for (_, mut idxs) in buckets {
        idxs.shuffle(&mut rng);
        for (rank, &i) in idxs.iter().enumerate() {
            fold[i] = rank % k;
        }
    }
    fold
}

/// Runs stratified k-fold cross-validation: `fit` trains a classifier on
/// each training portion and the held-out fold is evaluated.
///
/// # Errors
///
/// [`UdmError::InvalidConfig`] for `k < 2` or `k > data.len()`; training
/// and evaluation failures propagate.
pub fn cross_validate<C, F>(
    data: &UncertainDataset,
    k: usize,
    seed: u64,
    fit: F,
) -> Result<CrossValidationReport>
where
    C: Classifier,
    F: Fn(&UncertainDataset) -> Result<C>,
{
    if k < 2 {
        return Err(UdmError::InvalidConfig(
            "cross-validation needs at least 2 folds".into(),
        ));
    }
    if k > data.len() {
        return Err(UdmError::InvalidConfig(format!(
            "{k} folds exceed {} data points",
            data.len()
        )));
    }
    let assignments = fold_assignments(data, k, seed);
    let mut folds = Vec::with_capacity(k);
    for fold in 0..k {
        let model = fit(&fold_split(data, &assignments, fold, false)?)?;
        folds.push(evaluate(
            &model,
            &fold_split(data, &assignments, fold, true)?,
        )?);
    }
    Ok(CrossValidationReport { folds })
}

/// The training (`held_out == false`) or test (`held_out == true`)
/// portion of one fold, preserving dataset order.
fn fold_split(
    data: &UncertainDataset,
    assignments: &[usize],
    fold: usize,
    held_out: bool,
) -> Result<UncertainDataset> {
    let mut out = UncertainDataset::new(data.dim());
    for (i, p) in data.iter().enumerate() {
        if (assignments[i] == fold) == held_out {
            out.push(p.clone())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udm_core::UncertainPoint;

    /// Classifies by the sign of coordinate 0 — no training state needed.
    struct SignClassifier;
    impl Classifier for SignClassifier {
        fn classify(&self, x: &udm_core::UncertainPoint) -> Result<ClassLabel> {
            Ok(ClassLabel((x.value(0) >= 0.0) as u32))
        }
    }

    fn dataset(n: usize) -> UncertainDataset {
        UncertainDataset::from_points(
            (0..n)
                .map(|i| {
                    let v = i as f64 - (n / 2) as f64;
                    UncertainPoint::exact(vec![v])
                        .unwrap()
                        .with_label(ClassLabel((v >= 0.0) as u32))
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn folds_partition_the_data() {
        let d = dataset(97);
        let a = fold_assignments(&d, 5, 3);
        assert_eq!(a.len(), 97);
        let mut counts = [0usize; 5];
        for &f in &a {
            counts[f] += 1;
        }
        // Balanced within 2 of each other.
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 2, "{counts:?}");
    }

    #[test]
    fn perfect_classifier_scores_one_everywhere() {
        let d = dataset(50);
        let r = cross_validate(&d, 5, 1, |_| Ok(SignClassifier)).unwrap();
        assert_eq!(r.folds.len(), 5);
        assert!((r.mean_accuracy() - 1.0).abs() < 1e-12);
        assert_eq!(r.std_accuracy(), 0.0);
    }

    #[test]
    fn stratification_puts_both_classes_in_every_fold() {
        let d = dataset(40);
        let a = fold_assignments(&d, 4, 9);
        for fold in 0..4 {
            let mut c0 = 0;
            let mut c1 = 0;
            for (i, p) in d.iter().enumerate() {
                if a[i] == fold {
                    match p.label().unwrap().id() {
                        0 => c0 += 1,
                        _ => c1 += 1,
                    }
                }
            }
            assert!(c0 > 0 && c1 > 0, "fold {fold}: {c0}/{c1}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = dataset(30);
        let a = fold_assignments(&d, 3, 11);
        let b = fold_assignments(&d, 3, 11);
        assert_eq!(a, b);
        let c = fold_assignments(&d, 3, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_k_rejected() {
        let d = dataset(10);
        assert!(cross_validate(&d, 1, 0, |_| Ok(SignClassifier)).is_err());
        assert!(cross_validate(&d, 11, 0, |_| Ok(SignClassifier)).is_err());
    }

    #[test]
    fn parallel_folds_match_sequential() {
        // 4 folds of 50 points each: every fold is large enough for
        // `evaluate` to split it over the host's cores.
        let d = dataset(200);
        let report = cross_validate(&d, 4, 17, |_| Ok(SignClassifier)).unwrap();
        let assignments = fold_assignments(&d, 4, 17);
        for (fold, got) in report.folds.iter().enumerate() {
            let held_out = fold_split(&d, &assignments, fold, true).unwrap();
            assert!(held_out.len() >= 32, "fold {fold} has {}", held_out.len());
            let mut expected: BTreeMap<(ClassLabel, ClassLabel), usize> = BTreeMap::new();
            for p in held_out.iter() {
                let predicted = SignClassifier.classify(p).unwrap();
                *expected.entry((p.label().unwrap(), predicted)).or_insert(0) += 1;
            }
            assert_eq!(got.n, held_out.len());
            assert_eq!(got.confusion, expected, "fold {fold}");
        }
    }

    #[test]
    fn training_errors_propagate() {
        let d = dataset(10);
        let r = cross_validate(&d, 2, 0, |_| -> Result<SignClassifier> {
            Err(UdmError::EmptyDataset)
        });
        assert!(r.is_err());
    }

    #[test]
    fn real_classifier_end_to_end() {
        use crate::config::ClassifierConfig;
        use crate::model::DensityClassifier;
        use udm_data::{GaussianClassSpec, MixtureGenerator};
        let g = MixtureGenerator::new(
            2,
            vec![
                GaussianClassSpec::spherical(vec![0.0, 0.0], 1.0, 1.0),
                GaussianClassSpec::spherical(vec![6.0, 6.0], 1.0, 1.0),
            ],
        )
        .unwrap();
        let d = g.generate(300, 5);
        let r = cross_validate(&d, 3, 7, |train| {
            DensityClassifier::fit(train, ClassifierConfig::error_adjusted(20))
        })
        .unwrap();
        assert!(r.mean_accuracy() > 0.9, "{}", r.mean_accuracy());
    }
}
