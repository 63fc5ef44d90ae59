//! Naive density Bayes: the simplest classifier the paper's density
//! transform supports.
//!
//! Instead of searching for discriminative subspaces (Fig. 3), assume
//! dimension independence and score each class by its prior times the
//! product of *one-dimensional* error-adjusted class-conditional
//! densities:
//!
//! ```text
//! score(l, x) = |D_l|/|D| · Π_j g(x_j, {j}, D_l)
//! ```
//!
//! All densities come from the same micro-cluster summaries as the full
//! classifier, so training cost is identical and classification is
//! `O(k·d·q)` with no roll-up — a fast, strong baseline that shows how
//! little code a new density-based algorithm needs on this substrate.

use crate::config::ClassifierConfig;
use crate::eval::Classifier;
use serde::{Deserialize, Serialize};
use udm_core::{ClassLabel, Result, Subspace, UdmError, UncertainDataset, UncertainPoint};
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

/// A trained naive density Bayes classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NaiveDensityBayes {
    dim: usize,
    labels: Vec<ClassLabel>,
    log_priors: Vec<f64>,
    class_kdes: Vec<MicroClusterKde>,
    convolve_query_error: bool,
}

impl NaiveDensityBayes {
    /// Trains on a labelled dataset using the classifier configuration's
    /// micro-cluster budget, bandwidth rule and error-adjustment flags.
    pub fn fit(train: &UncertainDataset, config: ClassifierConfig) -> Result<Self> {
        config.validate()?;
        let partition = train.partition_by_class();
        if partition.num_classes() < 2 {
            return Err(UdmError::InvalidConfig(format!(
                "training data has {} class(es); need at least 2",
                partition.num_classes()
            )));
        }
        let labels = partition.labels();

        // Shared bandwidths from a global summary, as in the full model.
        let global = MicroClusterMaintainer::from_dataset(
            train,
            MaintainerConfig {
                max_clusters: config.micro_clusters,
                distance: config.distance,
            },
        )?;
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

        let mut class_kdes = Vec::with_capacity(labels.len());
        let mut log_priors = Vec::with_capacity(labels.len());
        for &label in &labels {
            let class_data = partition
                .class(label)
                .ok_or(UdmError::UnknownLabel(label.id()))?;
            // The per-class budget q_i <= micro_clusters, which fits in usize.
            #[allow(clippy::cast_possible_truncation)]
            let q_i =
                ((config.micro_clusters as f64 * class_data.len() as f64 / train.len() as f64)
                    .round() as usize)
                    .max(1);
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
            log_priors.push((class_data.len() as f64 / train.len() as f64).ln());
        }

        Ok(NaiveDensityBayes {
            dim: train.dim(),
            labels,
            log_priors,
            class_kdes,
            convolve_query_error: config.error_adjusted && config.convolve_query_error,
        })
    }

    /// The class labels, ascending.
    pub fn labels(&self) -> &[ClassLabel] {
        &self.labels
    }

    /// Log-score of each class at `x` (unnormalized log-posterior).
    pub fn log_scores(&self, x: &UncertainPoint) -> Result<Vec<(ClassLabel, f64)>> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        let query_errors = if self.convolve_query_error && !x.is_exact() {
            Some(x.errors())
        } else {
            None
        };
        let mut out = Vec::with_capacity(self.labels.len());
        for (i, kde) in self.class_kdes.iter().enumerate() {
            // One column build per class serves every singleton dimension.
            let columns = kde.kernel_columns(x.values(), query_errors)?;
            let mut log_score = self.log_priors[i];
            for j in 0..self.dim {
                let g = columns.density(Subspace::singleton(j)?)?;
                // Floor against log(0): an empty class region contributes a
                // large but finite penalty so other dimensions still count.
                log_score += g.max(1e-300).ln();
            }
            out.push((self.labels[i], log_score));
        }
        Ok(out)
    }
}

impl Classifier for NaiveDensityBayes {
    fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
        let scores = self.log_scores(x)?;
        // Fitting requires ≥ 2 classes, so scores is never empty; the
        // error path is unreachable but typed.
        Ok(scores
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or(UdmError::EmptyDataset)?
            .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use udm_data::{stratified_split, ErrorModel, GaussianClassSpec, MixtureGenerator, UciDataset};

    fn blobs(n: usize, seed: u64) -> UncertainDataset {
        MixtureGenerator::new(
            2,
            vec![
                GaussianClassSpec::spherical(vec![0.0, 0.0], 1.0, 1.0),
                GaussianClassSpec::spherical(vec![5.0, 5.0], 1.0, 1.0),
            ],
        )
        .unwrap()
        .generate(n, seed)
    }

    #[test]
    fn rejects_single_class() {
        let g = MixtureGenerator::new(1, vec![GaussianClassSpec::spherical(vec![0.0], 1.0, 1.0)])
            .unwrap();
        let d = g.generate(30, 1);
        assert!(NaiveDensityBayes::fit(&d, ClassifierConfig::error_adjusted(10)).is_err());
    }

    #[test]
    fn separable_blobs_classify_well() {
        let train = blobs(400, 2);
        let test = blobs(150, 3);
        let model = NaiveDensityBayes::fit(&train, ClassifierConfig::error_adjusted(30)).unwrap();
        let acc = evaluate(&model, &test).unwrap().accuracy();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn log_scores_ordered_and_validated() {
        let train = blobs(300, 4);
        let model = NaiveDensityBayes::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let x = UncertainPoint::exact(vec![5.0, 5.0]).unwrap();
        let scores = model.log_scores(&x).unwrap();
        assert_eq!(scores.len(), 2);
        let s1 = scores.iter().find(|(l, _)| *l == ClassLabel(1)).unwrap().1;
        let s0 = scores.iter().find(|(l, _)| *l == ClassLabel(0)).unwrap().1;
        assert!(s1 > s0);
        assert!(model
            .log_scores(&UncertainPoint::exact(vec![0.0]).unwrap())
            .is_err());
    }

    #[test]
    fn reasonable_on_noisy_standin() {
        let clean = UciDataset::BreastCancer.generate(500, 5);
        let noisy = ErrorModel::paper(1.0).apply(&clean, 6).unwrap();
        let split = stratified_split(&noisy, 0.3, 7).unwrap();
        let model =
            NaiveDensityBayes::fit(&split.train, ClassifierConfig::error_adjusted(30)).unwrap();
        let acc = evaluate(&model, &split.test).unwrap().accuracy();
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn far_query_does_not_panic_on_log_zero() {
        let train = blobs(200, 8);
        let model = NaiveDensityBayes::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let x = UncertainPoint::exact(vec![1e6, -1e6]).unwrap();
        let label = model.classify(&x).unwrap();
        assert!(model.labels().contains(&label));
    }
}
