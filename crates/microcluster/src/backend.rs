//! The coreset density backend: a certified reduction of a micro-cluster
//! mixture.
//!
//! Every density consumer reads a [`MicroClusterKde`]. Under
//! `BackendSpec::Exact` that is the fitted mixture itself; under
//! `BackendSpec::Coreset { eps }` it is the reduced mixture held by a
//! [`CoresetKde`] — a discrepancy-style reduction in the spirit of
//! Phillips & Tai (arXiv:1710.04325). Pseudo-points are greedily merged
//! (cheapest certified pair first, under one shared budget) while a
//! *certified* `L∞` bound on the density perturbation stays under
//! `eps · f_max`, where `f_max` bounds the peak density of the mixture
//! and of every subspace marginal. The construction is a deterministic
//! function of the model: same pseudo-points in, same coreset out.
//!
//! ## Certified coreset error bound
//!
//! Replacing weighted kernels `w_a·K_a + w_b·K_b` by `(w_a+w_b)·K_m`
//! (second moments preserved per dimension) perturbs the un-normalized
//! mixture by at most `w_a·sup|K_a−K_m| + w_b·sup|K_b−K_m|`. For
//! product-form Gaussian kernels with per-dimension peak `p_j`, center
//! `c_j` and variance `v_j`, a telescoping bound over any subspace `S`
//! gives
//!
//! ```text
//! sup |Π_{j∈S} k_j − Π_{j∈S} k'_j|  ≤  Σ_{j∈S} D_j · Π_{l∈S, l≠j} max(p_l, p'_l)
//!                                    ≤  Σ_j D_j · Π_{l≠j} max(1, p_l, p'_l)
//! D_j ≤ |p_j−p'_j| + p'_j·( |v_j−v'_j| / (e·min(v_j,v'_j))
//!                          + |c_j−c'_j| · e^{−1/2} / √v'_j )
//! ```
//!
//! using `sup_t |∂/∂v e^{−t²/2v}| ≤ 1/(e·v)` and
//! `sup_t |d/dt e^{−t²/2v}| = e^{−1/2}/√v`. Clamping every factor at 1
//! makes the right-hand side independent of `S`: a marginal drops the
//! factors outside `S`, which can only shrink a product of terms ≥ 1.
//! The peak bound `Σ_i w_i · Π_j max(1, p_ij)` is clamped the same way,
//! so it bounds the peak of every marginal too. Merge costs accumulate
//! by the triangle inequality, so [`CoresetKde::certified_error`] is a
//! true `L∞` bound against the source mixture on every subspace at once
//! — the property `tests/backend_equivalence.rs` checks over random
//! models and random subspaces.
//!
//! **Query errors.** Under `ErrorKernelForm::Normalized` the kernel at a
//! query with its own error `ψ(x)` is the error-free kernel convolved
//! with the Gaussian `N(0, ψ(x)²)` — the same density for every
//! pseudo-point, merged or not. Convolving the error function with a
//! probability density cannot raise its maximum, so the certificate
//! also covers error-convolved queries. `ErrorKernelForm::PaperFaithful`
//! scales each kernel by `1/(h + ψ)`, which is not a convolution; under
//! that form the certificate covers error-free queries only.

use crate::density::MicroClusterKde;
use crate::pseudo::PseudoPoint;
use udm_core::num::{clamped_sqrt, f64_from_count};
use udm_core::Result;
use udm_kde::backend::BackendSpec;
use udm_kde::GaussianErrorKernel;

/// `Σ_i w_i · Π_j max(1, p_ij)` — the un-normalized peak-density upper
/// bound of the mixture *and of every subspace marginal* (each kernel
/// product peaks at diff = 0, and a marginal keeps a subset of the
/// factors, each at most `max(1, p_ij)`). `None` when any kernel
/// degenerates to a point mass, which no finite-error reduction can
/// bound.
fn peak_sum_of(
    pseudos: &[PseudoPoint],
    bandwidths: &[f64],
    kernel: &GaussianErrorKernel,
) -> Option<f64> {
    let mut total = 0.0;
    for p in pseudos {
        let mut prod = f64_from_count(p.weight);
        for (&bw, &dl) in bandwidths.iter().zip(p.delta.iter()) {
            let (pref, _) = kernel.factors(bw, dl)?;
            prod *= pref.max(1.0);
        }
        total += prod;
    }
    Some(total)
}

/// Weighted second-moment-preserving merge of two pseudo-points: the
/// merged Δ² absorbs both spreads *and* the centroid displacement, so
/// the merged kernel matches the pair's per-dimension mean and variance.
fn merge_pseudo(a: &PseudoPoint, b: &PseudoPoint) -> PseudoPoint {
    let wa = f64_from_count(a.weight);
    let wb = f64_from_count(b.weight);
    let w = wa + wb;
    let dim = a.dim();
    let mut centroid = Vec::with_capacity(dim);
    let mut delta = Vec::with_capacity(dim);
    for j in 0..dim {
        let c = (wa * a.centroid[j] + wb * b.centroid[j]) / w;
        centroid.push(c);
        let da = a.centroid[j] - c;
        let db = b.centroid[j] - c;
        let second = (wa * (a.delta[j] * a.delta[j] + da * da)
            + wb * (b.delta[j] * b.delta[j] + db * db))
            / w;
        delta.push(clamped_sqrt(second));
    }
    PseudoPoint {
        centroid,
        delta,
        weight: a.weight + b.weight,
    }
}

/// Certified `sup_x |K_p(x) − K_m(x)|` for two product-form Gaussian
/// kernels, over every subspace marginal at once (see the module-level
/// derivation). Conservative but rigorous; `inf` (merge refused) when
/// any variance degenerates.
fn sup_kernel_diff(
    p: &PseudoPoint,
    m: &PseudoPoint,
    bandwidths: &[f64],
    kernel: &GaussianErrorKernel,
) -> f64 {
    let dim = bandwidths.len();
    let mut d = vec![0.0; dim];
    let mut maxpeak = vec![0.0; dim];
    for j in 0..dim {
        let (Some((pp, ptv)), Some((mp, mtv))) = (
            kernel.factors(bandwidths[j], p.delta[j]),
            kernel.factors(bandwidths[j], m.delta[j]),
        ) else {
            return f64::INFINITY;
        };
        let (pv, mv) = (ptv * 0.5, mtv * 0.5);
        let vmin = pv.min(mv);
        if vmin.is_nan() || vmin <= 0.0 {
            return f64::INFINITY;
        }
        let shift = (p.centroid[j] - m.centroid[j]).abs();
        d[j] = (pp - mp).abs()
            + mp * ((pv - mv).abs() / (std::f64::consts::E * vmin)
                + shift * (-0.5f64).exp() / clamped_sqrt(mv));
        maxpeak[j] = pp.max(mp).max(1.0);
    }
    let mut total = 0.0;
    for (j, &dj) in d.iter().enumerate() {
        let mut term = dj;
        for (l, &pk) in maxpeak.iter().enumerate() {
            if l != j {
                term *= pk;
            }
        }
        total += term;
    }
    total
}

/// Certified un-normalized cost (in `N·density` units) of replacing the
/// pair `(a, b)` by their merge.
fn merge_cost(
    a: &PseudoPoint,
    b: &PseudoPoint,
    bandwidths: &[f64],
    k: &GaussianErrorKernel,
) -> f64 {
    let m = merge_pseudo(a, b);
    f64_from_count(a.weight) * sup_kernel_diff(a, &m, bandwidths, k)
        + f64_from_count(b.weight) * sup_kernel_diff(b, &m, bandwidths, k)
}

/// A bounded-`L∞`-error coreset of a micro-cluster mixture.
///
/// Holds a reduced [`MicroClusterKde`] built from merged pseudo-points,
/// so evaluation (including the columnar per-query cache) reuses the
/// exact machinery — just over fewer rows. `certified_error` is an
/// absolute `L∞` bound on `|f_coreset − f_exact|` over all of space, for
/// the full mixture and every subspace marginal (and, under the
/// `Normalized` kernel form, for error-convolved queries) — by
/// construction it never exceeds `eps · peak_density_bound`.
#[derive(Debug, Clone)]
pub struct CoresetKde {
    inner: MicroClusterKde,
    eps: f64,
    source_rows: usize,
    certified_error: f64,
    peak_bound: f64,
}

impl CoresetKde {
    /// Runs the deterministic reduction at relative budget `eps`.
    ///
    /// Degenerate mixtures (point-mass kernels, non-finite peak bounds)
    /// fall back to an uncompressed copy with `certified_error = 0`.
    ///
    /// # Errors
    ///
    /// [`udm_core::UdmError::InvalidConfig`] when `eps` leaves `(0, 1)`.
    pub fn build(kde: &MicroClusterKde, eps: f64) -> Result<Self> {
        BackendSpec::Coreset { eps }.validate()?;
        let kernel = GaussianErrorKernel::new(kde.kernel_form());
        let bandwidths = kde.bandwidths().to_vec();
        let n = f64_from_count(kde.total_points());
        let source_rows = kde.pseudo_points().len();

        let exact_copy = |peak_bound: f64| CoresetKde {
            inner: kde.clone(),
            eps,
            source_rows,
            certified_error: 0.0,
            peak_bound,
        };

        let Some(peak_sum) = peak_sum_of(kde.pseudo_points(), &bandwidths, &kernel) else {
            return Ok(exact_copy(f64::INFINITY));
        };
        let peak_bound = peak_sum / n;
        if !peak_bound.is_finite() || peak_bound <= 0.0 {
            return Ok(exact_copy(peak_bound));
        }

        // Canonical order: centroid-lexicographic (ties by spread then
        // weight), so merge candidates are spatial neighbors and the
        // construction is independent of cluster arrival order.
        let mut points: Vec<PseudoPoint> = kde.pseudo_points().to_vec();
        points.sort_by(|a, b| {
            let by_centroid = a
                .centroid
                .iter()
                .zip(b.centroid.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne());
            let by_delta = || {
                a.delta
                    .iter()
                    .zip(b.delta.iter())
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
            };
            by_centroid
                .or_else(by_delta)
                .unwrap_or_else(|| a.weight.cmp(&b.weight))
        });

        let budget = eps * peak_sum; // un-normalized units (N·density)
        let mut spent = 0.0;
        let mut costs: Vec<f64> = (0..points.len().saturating_sub(1))
            .map(|i| merge_cost(&points[i], &points[i + 1], &bandwidths, &kernel))
            .collect();
        while points.len() > 1 {
            // Cheapest certified pair first; ties resolve to the lowest
            // index, keeping the cascade deterministic.
            let (best, &cost) = match costs
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
            {
                Some(found) => found,
                None => break,
            };
            if !(cost.is_finite() && spent + cost <= budget) {
                break;
            }
            spent += cost;
            let merged = merge_pseudo(&points[best], &points[best + 1]);
            points[best] = merged;
            points.remove(best + 1);
            costs.remove(best);
            if best < costs.len() {
                costs[best] = merge_cost(&points[best], &points[best + 1], &bandwidths, &kernel);
            }
            if best > 0 {
                costs[best - 1] =
                    merge_cost(&points[best - 1], &points[best], &bandwidths, &kernel);
            }
        }

        let inner = MicroClusterKde::from_pseudo_points(
            points,
            bandwidths,
            kde.kernel_form(),
            kde.total_points(),
        )?;
        Ok(CoresetKde {
            inner,
            eps,
            source_rows,
            certified_error: spent / n,
            peak_bound,
        })
    }

    /// The relative budget the coreset was built at.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Pseudo-points in the reduced mixture.
    pub fn rows(&self) -> usize {
        self.inner.num_pseudo_points()
    }

    /// Pseudo-points in the source mixture.
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// The certified absolute `L∞` error against the source mixture, on
    /// every subspace (`≤ eps · peak_density_bound` by construction).
    pub fn certified_error(&self) -> f64 {
        self.certified_error
    }

    /// Upper bound on the peak density of the source mixture and of each
    /// of its subspace marginals.
    pub fn peak_density_bound(&self) -> f64 {
        self.peak_bound
    }

    /// The reduced estimator — what a `coreset:EPS` consumer reads.
    pub fn inner(&self) -> &MicroClusterKde {
        &self.inner
    }

    /// Consumes the coreset, keeping only the reduced estimator.
    pub fn into_inner(self) -> MicroClusterKde {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainer::{MaintainerConfig, MicroClusterMaintainer};
    use udm_core::{Subspace, UncertainDataset, UncertainPoint};
    use udm_kde::KdeConfig;

    fn fitted(n: usize, q: usize) -> MicroClusterKde {
        let points = (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_749).fract() * 10.0;
                let y = (i as f64 * 0.414_213_562_373).fract() * 6.0 - 3.0;
                UncertainPoint::new(vec![x, y], vec![(i % 4) as f64 * 0.1, 0.05]).unwrap()
            })
            .collect();
        let d = UncertainDataset::from_points(points).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(q)).unwrap();
        MicroClusterKde::fit(m.clusters(), KdeConfig::error_adjusted()).unwrap()
    }

    #[test]
    fn coreset_reduces_rows_and_respects_certified_bound() {
        let kde = fitted(500, 48);
        let coreset = CoresetKde::build(&kde, 0.2).unwrap();
        assert!(coreset.rows() < coreset.source_rows(), "nothing merged");
        assert!(coreset.certified_error() <= 0.2 * coreset.peak_density_bound() + 1e-12);
        for s in [
            Subspace::full(2).unwrap(),
            Subspace::singleton(0).unwrap(),
            Subspace::singleton(1).unwrap(),
        ] {
            for i in 0..40 {
                let x = [i as f64 * 0.25, (i % 7) as f64 - 3.0];
                let exact = kde.density_subspace_with_error(&x, None, s).unwrap();
                let approx = coreset
                    .inner()
                    .density_subspace_with_error(&x, None, s)
                    .unwrap();
                assert!(
                    (exact - approx).abs() <= coreset.certified_error() + 1e-12,
                    "x={x:?} {s:?}: |{exact} - {approx}| > {}",
                    coreset.certified_error()
                );
            }
        }
    }

    #[test]
    fn coreset_is_deterministic() {
        let kde = fitted(400, 32);
        let a = CoresetKde::build(&kde, 0.15).unwrap();
        let b = CoresetKde::build(&kde, 0.15).unwrap();
        assert_eq!(a.rows(), b.rows());
        let x = [1.0, 0.5];
        let s = Subspace::full(2).unwrap();
        assert_eq!(
            a.inner()
                .density_subspace_with_error(&x, None, s)
                .unwrap()
                .to_bits(),
            b.into_inner()
                .density_subspace_with_error(&x, None, s)
                .unwrap()
                .to_bits()
        );
    }

    #[test]
    fn tighter_eps_means_more_rows() {
        let kde = fitted(500, 48);
        let loose = CoresetKde::build(&kde, 0.5).unwrap();
        let tight = CoresetKde::build(&kde, 0.01).unwrap();
        assert!(tight.rows() >= loose.rows());
    }

    #[test]
    fn peak_bound_covers_every_marginal_peak() {
        // Spread-out data puts every per-dimension kernel peak below 1,
        // so each singleton marginal peaks above the full-space product.
        let points = (0..300)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_749).fract() * 100.0;
                let y = (i as f64 * 0.414_213_562_373).fract() * 60.0;
                UncertainPoint::new(vec![x, y], vec![1.0, 2.0]).unwrap()
            })
            .collect();
        let d = UncertainDataset::from_points(points).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(24)).unwrap();
        let kde = MicroClusterKde::fit(m.clusters(), KdeConfig::error_adjusted()).unwrap();
        let bound = CoresetKde::build(&kde, 0.1).unwrap().peak_density_bound();
        for p in kde.pseudo_points() {
            for s in [
                Subspace::full(2).unwrap(),
                Subspace::singleton(0).unwrap(),
                Subspace::singleton(1).unwrap(),
            ] {
                let d = kde
                    .density_subspace_with_error(&p.centroid, None, s)
                    .unwrap();
                assert!(d <= bound, "{s:?}: density {d} above peak bound {bound}");
            }
        }
    }

    #[test]
    fn exact_and_coreset_paths_validate_inputs() {
        let kde = fitted(200, 16);
        let coreset = CoresetKde::build(&kde, 0.1).unwrap();
        let full = Subspace::full(2).unwrap();
        for (name, mixture) in [("exact", &kde), ("coreset", coreset.inner())] {
            assert!(mixture.density(&[0.0]).is_err(), "{name}: arity unchecked");
            assert!(
                mixture.kernel_columns(&[0.0], None).is_err(),
                "{name}: column arity unchecked"
            );
            assert!(
                mixture
                    .density_subspace_with_error(&[f64::NAN, 0.0], None, full)
                    .is_err(),
                "{name}: NaN unchecked"
            );
            assert!(
                mixture.kernel_columns(&[f64::NAN, 0.0], None).is_err(),
                "{name}: column NaN unchecked"
            );
            assert!(
                mixture
                    .density_subspace_with_error(&[0.0, 0.0], Some(&[0.1]), full)
                    .is_err(),
                "{name}: error arity unchecked"
            );
            assert!(
                mixture.kernel_columns(&[0.0, 0.0], Some(&[0.1])).is_err(),
                "{name}: column error arity unchecked"
            );
            assert!(
                mixture
                    .kernel_columns(&[0.0, 0.0], Some(&[f64::NAN, 0.1]))
                    .is_err(),
                "{name}: column NaN error unchecked"
            );
            assert!(
                mixture
                    .density_subspace_with_error(&[0.0, 0.0], None, Subspace::EMPTY)
                    .is_err(),
                "{name}: empty subspace unchecked"
            );
            assert!(
                mixture
                    .kernel_columns(&[0.0, 0.0], None)
                    .unwrap()
                    .density(Subspace::EMPTY)
                    .is_err(),
                "{name}: column empty subspace unchecked"
            );
        }
    }

    #[test]
    fn build_rejects_bad_eps() {
        let kde = fitted(100, 8);
        for eps in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(CoresetKde::build(&kde, eps).is_err(), "accepted eps {eps}");
        }
    }
}
