//! Integration tests spanning data generation, noise injection,
//! micro-clustering, and classification — the paper's full pipeline.

use std::collections::BTreeMap;
use udm_classify::{evaluate, Classifier, ClassifierConfig, DensityClassifier, NnClassifier};
use udm_core::{ClassLabel, UncertainDataset, UncertainPoint};
use udm_data::{stratified_split, ErrorModel, UciDataset};

/// Train/test split of a perturbed stand-in at error level `f`.
fn noisy_split(ds: UciDataset, n: usize, f: f64, seed: u64) -> udm_data::Split {
    let clean = ds.generate(n, seed);
    let noisy = ErrorModel::paper(f).apply(&clean, seed + 1).unwrap();
    stratified_split(&noisy, 0.3, seed + 2).unwrap()
}

#[test]
fn every_standin_beats_random_at_zero_error() {
    for ds in UciDataset::ALL {
        let split = noisy_split(ds, 400, 0.0, 3);
        let model =
            DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(30)).unwrap();
        let report = evaluate(&model, &split.test).unwrap();
        // The majority prior is the strongest trivial baseline.
        let majority = ds.class_priors().iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            report.accuracy() >= majority - 0.05,
            "{}: accuracy {} vs majority {}",
            ds.name(),
            report.accuracy(),
            majority
        );
    }
}

#[test]
fn adjusted_and_unadjusted_identical_at_zero_error() {
    // §4: "the two density based classifiers had exactly the same accuracy
    // when the error-parameter was zero."
    let split = noisy_split(UciDataset::BreastCancer, 300, 0.0, 5);
    let adj = DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(25)).unwrap();
    let unadj = DensityClassifier::fit(&split.train, ClassifierConfig::unadjusted(25)).unwrap();
    for p in split.test.iter() {
        assert_eq!(adj.classify(p).unwrap(), unadj.classify(p).unwrap());
    }
}

#[test]
fn error_adjustment_helps_under_heavy_noise() {
    // The paper's headline claim, aggregated over seeds to be robust: at
    // f = 2 the adjusted method is at least as accurate as the unadjusted
    // baseline and strictly better than nearest neighbor on adult.
    let mut adj_total = 0.0;
    let mut unadj_total = 0.0;
    let mut nn_total = 0.0;
    let seeds = [11, 23, 37];
    for &seed in &seeds {
        let split = noisy_split(UciDataset::Adult, 500, 2.0, seed);
        let adj =
            DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(40)).unwrap();
        let unadj = DensityClassifier::fit(&split.train, ClassifierConfig::unadjusted(40)).unwrap();
        let nn = NnClassifier::fit(&split.train).unwrap();
        adj_total += evaluate(&adj, &split.test).unwrap().accuracy();
        unadj_total += evaluate(&unadj, &split.test).unwrap().accuracy();
        nn_total += evaluate(&nn, &split.test).unwrap().accuracy();
    }
    let k = seeds.len() as f64;
    let (adj, unadj, nn) = (adj_total / k, unadj_total / k, nn_total / k);
    assert!(adj >= unadj - 0.01, "adjusted {adj} vs unadjusted {unadj}");
    assert!(adj > nn + 0.02, "adjusted {adj} vs nn {nn}");
}

#[test]
fn nn_collapses_with_noise_but_adjusted_does_not() {
    let clean_split = noisy_split(UciDataset::ForestCover, 600, 0.0, 9);
    let noisy_split_ = noisy_split(UciDataset::ForestCover, 600, 3.0, 9);

    let nn_clean = NnClassifier::fit(&clean_split.train).unwrap();
    let nn_noisy = NnClassifier::fit(&noisy_split_.train).unwrap();
    let acc_clean = evaluate(&nn_clean, &clean_split.test).unwrap().accuracy();
    let acc_noisy = evaluate(&nn_noisy, &noisy_split_.test).unwrap().accuracy();
    assert!(
        acc_clean - acc_noisy > 0.25,
        "nn should collapse: {acc_clean} -> {acc_noisy}"
    );

    let adj =
        DensityClassifier::fit(&noisy_split_.train, ClassifierConfig::error_adjusted(40)).unwrap();
    let adj_noisy = evaluate(&adj, &noisy_split_.test).unwrap().accuracy();
    assert!(
        adj_noisy > acc_noisy,
        "adjusted {adj_noisy} should beat collapsed nn {acc_noisy}"
    );
}

#[test]
fn parallel_evaluation_matches_sequential_for_real_model() {
    // `evaluate` splits sets of 32 points and more over the host's
    // cores; 251 points split unevenly over any core count from 2 to 8.
    let split = noisy_split(UciDataset::BreastCancer, 900, 1.0, 13);
    let model = DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(20)).unwrap();
    for n in [1, 31, 32, 33, 251] {
        // Every fifth point is unlabelled, which `evaluate` skips.
        let points: Vec<UncertainPoint> = split.test.points()[..n]
            .iter()
            .enumerate()
            .map(|(i, p)| match i % 5 {
                4 => UncertainPoint::new(p.values().to_vec(), p.errors().to_vec()).unwrap(),
                _ => p.clone(),
            })
            .collect();
        let mut tally: BTreeMap<(ClassLabel, ClassLabel), usize> = BTreeMap::new();
        let mut correct = 0;
        for p in &points {
            let Some(actual) = p.label() else { continue };
            let predicted = model.classify(p).unwrap();
            correct += usize::from(predicted == actual);
            *tally.entry((actual, predicted)).or_insert(0) += 1;
        }
        let report = evaluate(&model, &UncertainDataset::from_points(points).unwrap()).unwrap();
        assert_eq!(report.n, tally.values().sum::<usize>(), "n = {n}");
        assert_eq!(report.correct, correct, "n = {n}");
        assert_eq!(report.confusion, tally, "n = {n}");
    }
}

#[test]
fn classifier_is_deterministic() {
    let split = noisy_split(UciDataset::Adult, 300, 1.0, 17);
    let m1 = DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(30)).unwrap();
    let m2 = DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(30)).unwrap();
    for p in split.test.iter().take(50) {
        assert_eq!(m1.classify(p).unwrap(), m2.classify(p).unwrap());
    }
}

#[test]
fn multiclass_labels_all_reachable() {
    // Forest cover has 7 classes; with enough clean data and clusters the
    // model should predict more than just the two majority classes.
    let split = noisy_split(UciDataset::ForestCover, 800, 0.0, 19);
    let model = DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(60)).unwrap();
    let mut predicted: std::collections::BTreeSet<ClassLabel> = Default::default();
    for p in split.test.iter() {
        predicted.insert(model.classify(p).unwrap());
    }
    assert!(
        predicted.len() >= 3,
        "only {} distinct labels predicted",
        predicted.len()
    );
}
