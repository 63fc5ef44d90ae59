//! Micro-cluster kernel density estimation (Eqs. 9–10).
//!
//! Each micro-cluster contributes one error-based kernel centred at its
//! centroid with width `√(h² + Δ(C)²)` (Eq. 9), weighted by its member
//! count (Eq. 10):
//!
//! ```text
//! f^Q(x) = (1/N) · Σ_i n(C_i) · Q'_h(x − c(C_i), Δ(C_i))
//! ```
//!
//! Evaluation cost is `O(q·|S|)` per query — independent of the original
//! data size `N`, which is the entire point of the compression (§2.1).
//!
//! ## Columnar hot path
//!
//! The per-query kernel-column cache ([`MicroClusterKde::kernel_columns`])
//! has one builder: a loop per dimension over a lazily derived
//! structure-of-arrays layout (centroids, squared spreads and the
//! diff-independent kernel factors, stored dimension-major), generic
//! over the exponential. The naive
//! [`MicroClusterKde::density_subspace_with_error`] loop is the oracle
//! every cached density is tested against bit for bit.
//!
//! Every constructor — [`MicroClusterKde::fit`],
//! [`MicroClusterKde::fit_with_bandwidths`] and deserialization — checks
//! the mixture's parts, so a malformed model is an error, never a panic
//! or a point-mass kernel.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::feature::MicroCluster;
use crate::pseudo::PseudoPoint;
use std::sync::OnceLock;
use udm_core::num::{clamped_sqrt, ensure_finite_slice, ensure_finite_slice_opt, f64_from_count};
use udm_core::{Result, Subspace, UdmError};
use udm_kde::{chunked, ErrorKernelForm, GaussianErrorKernel, KdeConfig, KernelColumns};

/// Precomputed dimension-major (SoA) pseudo-point statistics for the
/// columnar kernel build.
///
/// Each vector holds `rows × dim` values with column `j` contiguous at
/// `[j·rows, (j+1)·rows)`, so the per-dimension build loop streams
/// through memory. `prefs`/`two_vars` are the diff-independent factors
/// of the error-based kernel at `ψ = Δ_j(C_i)`
/// ([`GaussianErrorKernel::factors`]); `delta2` keeps `Δ²` for queries
/// that convolve their own error (`ψ` then varies per query and the
/// factors are computed in the build loop).
#[derive(Debug, Clone)]
struct ColumnLayout {
    centroids: Vec<f64>,
    delta2: Vec<f64>,
    prefs: Vec<f64>,
    two_vars: Vec<f64>,
    weights: Vec<f64>,
}

/// Lazily built [`ColumnLayout`], serialized as `null`.
///
/// The layout is derived state: it is fully reconstructible from the
/// pseudo-points and bandwidths, so round-tripping a model never embeds
/// redundant data in the JSON, and deserialization starts unbuilt.
#[derive(Debug, Clone, Default)]
struct LayoutCache(OnceLock<ColumnLayout>);

impl serde::Serialize for LayoutCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

/// The kernel factors `(pref, two_var)` at `(h, ψ)`. The point-mass
/// case (`None`) cannot occur for a checked mixture, whose bandwidths
/// satisfy `h·h > 0`; it maps to NaN so [`KernelColumns::new`] would
/// reject the column rather than evaluate it.
#[inline]
fn factors_or_nan(kernel: GaussianErrorKernel, h: f64, psi: f64) -> (f64, f64) {
    kernel.factors(h, psi).unwrap_or((f64::NAN, f64::NAN))
}

/// Density estimator over micro-cluster summaries.
///
/// Built once from a slice of clusters (one pre-processing step, as in
/// §3); queries can then be evaluated over any subspace without touching
/// the original data.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MicroClusterKde {
    pseudos: Vec<PseudoPoint>,
    bandwidths: Vec<f64>,
    kernel: GaussianErrorKernel,
    total_n: u64,
    dim: usize,
    layout: LayoutCache,
}

/// Deserializes through the same checks as every constructor, so a
/// malformed model (a missing bandwidth or coordinate, a zero
/// bandwidth, a non-finite value) fails to load instead of panicking or
/// serving answers later.
impl serde::Deserialize for MicroClusterKde {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::DeError::expected("object", v))?;
        MicroClusterKde::checked(
            serde::de::field(map, "pseudos")?,
            serde::de::field(map, "bandwidths")?,
            serde::de::field(map, "kernel")?,
            serde::de::field(map, "total_n")?,
            serde::de::field(map, "dim")?,
        )
        .map_err(|e| serde::DeError(format!("invalid MicroClusterKde: {e}")))
    }
}

impl MicroClusterKde {
    /// Fits the estimator from micro-cluster statistics.
    ///
    /// Bandwidths follow the configured rule using the *global* column
    /// standard deviations reconstructed from the aggregated cluster
    /// statistics (`Σ CF1`, `Σ CF2`, `Σ n`), and `N = Σ n(C_i)` — i.e. the
    /// same `1.06·σ·N^{−1/5}` the exact estimator would use, recovered
    /// without a second pass over the data.
    ///
    /// `config.error_adjusted` selects whether pseudo-point errors include
    /// the `EF2` term (Lemma 1) or only the within-cluster spread, which is
    /// the unadjusted baseline's behaviour.
    ///
    /// # Errors
    ///
    /// [`UdmError::EmptyDataset`] when `clusters` is empty or all empty;
    /// [`UdmError::DimensionMismatch`] on ragged dimensionality;
    /// [`UdmError::InvalidValue`] when a fitted part is out of its
    /// domain: a bandwidth that is not finite and positive with
    /// `h·h > 0`, a non-finite centroid, or a negative or non-finite
    /// spread `Δ`.
    pub fn fit(clusters: &[MicroCluster], config: KdeConfig) -> Result<Self> {
        let non_empty: Vec<&MicroCluster> = clusters.iter().filter(|c| !c.is_empty()).collect();
        let first = non_empty.first().ok_or(UdmError::EmptyDataset)?;
        let dim = first.dim();

        // Aggregate global statistics to recover per-dimension sigma and N
        // (merging also rejects ragged dimensionality).
        let mut agg = MicroCluster::new(dim);
        for c in &non_empty {
            agg.merge(c)?;
        }
        let total_n = agg.n();
        let sigmas: Vec<f64> = (0..dim).map(|j| clamped_sqrt(agg.variance(j))).collect();
        let bandwidths = config
            .bandwidth
            .bandwidths_from_sigmas(&sigmas, usize::try_from(total_n).unwrap_or(usize::MAX))?;

        let pseudos = non_empty
            .iter()
            .map(|c| PseudoPoint::from_cluster(c, config.error_adjusted))
            .collect::<Result<Vec<_>>>()?;

        Self::checked(
            pseudos,
            bandwidths,
            GaussianErrorKernel::new(config.form),
            total_n,
            dim,
        )
    }

    /// Fits with explicitly supplied per-dimension bandwidths (used by the
    /// classifier so class-conditional densities and the global density
    /// share one bandwidth vector, keeping Eq. 11's ratio consistent).
    ///
    /// # Errors
    ///
    /// As [`Self::fit`], plus [`UdmError::DimensionMismatch`] on a
    /// wrong-arity bandwidth vector.
    pub fn fit_with_bandwidths(
        clusters: &[MicroCluster],
        bandwidths: Vec<f64>,
        form: ErrorKernelForm,
        error_adjusted: bool,
    ) -> Result<Self> {
        let non_empty: Vec<&MicroCluster> = clusters.iter().filter(|c| !c.is_empty()).collect();
        let first = non_empty.first().ok_or(UdmError::EmptyDataset)?;
        let dim = first.dim();
        let mut total_n = 0;
        let mut pseudos = Vec::with_capacity(non_empty.len());
        for c in &non_empty {
            total_n += c.n();
            pseudos.push(PseudoPoint::from_cluster(c, error_adjusted)?);
        }
        Self::checked(
            pseudos,
            bandwidths,
            GaussianErrorKernel::new(form),
            total_n,
            dim,
        )
    }

    /// The one check of a mixture's parts, shared by every constructor
    /// and by deserialization. A mixture that passes has a factored
    /// kernel in every (pseudo-point, dimension) cell: `h·h > 0` rules
    /// out the point-mass kernel `h = Δ = 0`.
    fn checked(
        pseudos: Vec<PseudoPoint>,
        bandwidths: Vec<f64>,
        kernel: GaussianErrorKernel,
        total_n: u64,
        dim: usize,
    ) -> Result<Self> {
        if pseudos.is_empty() || total_n == 0 {
            return Err(UdmError::EmptyDataset);
        }
        if dim == 0 {
            return Err(UdmError::InvalidConfig(
                "a mixture needs at least one dimension".into(),
            ));
        }
        if bandwidths.len() != dim {
            return Err(UdmError::DimensionMismatch {
                expected: dim,
                actual: bandwidths.len(),
            });
        }
        for &h in &bandwidths {
            if !(h.is_finite() && h > 0.0 && h * h > 0.0) {
                return Err(UdmError::InvalidValue {
                    what: "bandwidth",
                    value: h,
                });
            }
        }
        for p in &pseudos {
            for arity in [p.centroid.len(), p.delta.len()] {
                if arity != dim {
                    return Err(UdmError::DimensionMismatch {
                        expected: dim,
                        actual: arity,
                    });
                }
            }
            ensure_finite_slice("pseudo-point centroid", &p.centroid)?;
            for &delta in &p.delta {
                if !(delta.is_finite() && delta >= 0.0) {
                    return Err(UdmError::InvalidValue {
                        what: "pseudo-point spread",
                        value: delta,
                    });
                }
            }
        }
        Ok(MicroClusterKde {
            pseudos,
            bandwidths,
            kernel,
            total_n,
            dim,
            layout: LayoutCache::default(),
        })
    }

    /// Dimensionality of the estimator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The pseudo-points of the mixture, in fit order.
    pub fn pseudo_points(&self) -> &[PseudoPoint] {
        &self.pseudos
    }

    /// The kernel normalization form the estimator was fitted with.
    pub fn kernel_form(&self) -> ErrorKernelForm {
        self.kernel.form()
    }

    /// Total number of original points represented (`N`).
    pub fn total_points(&self) -> u64 {
        self.total_n
    }

    /// Number of pseudo-points (micro-clusters) in the mixture.
    pub fn num_pseudo_points(&self) -> usize {
        self.pseudos.len()
    }

    /// The fitted (or supplied) per-dimension bandwidths.
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// Density at `x` over the full dimensionality (Eq. 10).
    pub fn density(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        self.density_subspace(x, Subspace::full(self.dim)?)
    }

    /// Density at `x` over subspace `S` — the compressed analogue of the
    /// exact `g(x, S, D)`. `x` is in full-dimensional coordinates.
    pub fn density_subspace(&self, x: &[f64], subspace: Subspace) -> Result<f64> {
        self.density_subspace_with_error(x, None, subspace)
    }

    /// Like [`Self::density_subspace`], but additionally convolves each
    /// kernel with the *query point's own* error `ψ(x)`:
    /// the per-dimension kernel variance becomes `h² + Δ² + ψ_j(x)²`.
    ///
    /// This is the density of observing the noisy measurement `x` under
    /// the mixture — the paper's Figure 1 scenario, where the test
    /// example's own error boundary determines which training structure it
    /// could plausibly coincide with. With `query_errors = None` (or all
    /// zeros) it reduces to the plain estimate.
    ///
    /// This naive loop is the oracle [`Self::kernel_columns`] is tested
    /// against bit for bit.
    pub fn density_subspace_with_error(
        &self,
        x: &[f64],
        query_errors: Option<&[f64]>,
        subspace: Subspace,
    ) -> Result<f64> {
        self.check_query_arity(x, query_errors)?;
        ensure_finite_slice("query coordinate", x)?;
        ensure_finite_slice_opt("query error", query_errors)?;
        subspace.validate_for(self.dim)?;
        if subspace.is_empty() {
            return Err(UdmError::InvalidConfig(
                "cannot evaluate a density over the empty subspace".into(),
            ));
        }
        let mut sum = 0.0;
        // Tallied locally, published once per query: no atomics in the loop.
        let mut evals: u64 = 0;
        for p in &self.pseudos {
            let mut prod = f64_from_count(p.weight);
            for j in subspace.dims() {
                let psi = match query_errors {
                    Some(errs) => clamped_sqrt(p.delta[j] * p.delta[j] + errs[j] * errs[j]),
                    None => p.delta[j],
                };
                prod *= self
                    .kernel
                    .evaluate(x[j] - p.centroid[j], self.bandwidths[j], psi);
                evals += 1;
                // udm-lint: allow(UDM002) exact underflow short-circuit (bit-for-bit cache contract)
                if prod == 0.0 {
                    break;
                }
            }
            sum += prod;
        }
        udm_observe::counter_add!("udm_microcluster_kernel_evals_total", evals);
        Ok(sum / f64_from_count(self.total_n))
    }

    /// Builds the per-query kernel-column cache for `x` (optionally
    /// convolved with the query's own error, as in
    /// [`Self::density_subspace_with_error`]): every per-dimension
    /// kernel evaluation of every pseudo-point, computed once and
    /// reusable across all subspace queries of the same test point.
    ///
    /// [`KernelColumns::density`] on the result is bit-for-bit identical
    /// to [`Self::density_subspace_with_error`] for every valid
    /// subspace, including the `prod == 0.0` underflow short-circuit
    /// (the cached row product hits the same hard zero in the same
    /// dimension order).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] on wrong query or error arity;
    /// [`UdmError::InvalidValue`] on a non-finite query value or error,
    /// or when a kernel value overflows to a non-finite number (a
    /// query value and error near `1e200`).
    pub fn kernel_columns(&self, x: &[f64], query_errors: Option<&[f64]>) -> Result<KernelColumns> {
        self.check_query_arity(x, query_errors)?;
        ensure_finite_slice("query coordinate", x)?;
        ensure_finite_slice_opt("query error", query_errors)?;
        self.build(x, query_errors, udm_kde::fast_exp)
    }

    fn check_query_arity(&self, x: &[f64], query_errors: Option<&[f64]>) -> Result<()> {
        if x.len() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        if let Some(errs) = query_errors {
            if errs.len() != self.dim {
                return Err(UdmError::DimensionMismatch {
                    expected: self.dim,
                    actual: errs.len(),
                });
            }
        }
        Ok(())
    }

    /// The lazily built SoA layout (first call pays the transpose; all
    /// later column builds stream through it).
    fn layout(&self) -> &ColumnLayout {
        self.layout.0.get_or_init(|| {
            let rows = self.pseudos.len();
            let dim = self.dim;
            let mut layout = ColumnLayout {
                centroids: vec![0.0; rows * dim],
                delta2: vec![0.0; rows * dim],
                prefs: vec![0.0; rows * dim],
                two_vars: vec![0.0; rows * dim],
                weights: Vec::with_capacity(rows),
            };
            for (r, p) in self.pseudos.iter().enumerate() {
                layout.weights.push(f64_from_count(p.weight));
                for j in 0..dim {
                    let at = j * rows + r;
                    layout.centroids[at] = p.centroid[j];
                    layout.delta2[at] = p.delta[j] * p.delta[j];
                    (layout.prefs[at], layout.two_vars[at]) =
                        factors_or_nan(self.kernel, self.bandwidths[j], p.delta[j]);
                }
            }
            layout
        })
    }

    /// The one kernel-column builder: per dimension `j`, one
    /// [`chunked::gaussian_kernel_row`] pass computing
    /// `pref · exp(−(x_j − c)² / two_var)` per pseudo-point. Plain
    /// queries read the precomputed factors at `ψ = Δ`; error-convolved
    /// queries compute them in the loop at `ψ = √(Δ² + ψ_j(x)²)`. Either
    /// way each element is the same operation sequence on the same
    /// operands as [`GaussianErrorKernel::evaluate`] in the naive loop,
    /// so the cache is bit-identical to it when `exp` is `fast_exp`.
    fn build<F: Fn(f64) -> f64 + Copy>(
        &self,
        x: &[f64],
        query_errors: Option<&[f64]>,
        exp: F,
    ) -> Result<KernelColumns> {
        let layout = self.layout();
        let rows = self.pseudos.len();
        let mut cols = vec![0.0; rows * self.dim];
        for (j, &xj) in x.iter().enumerate() {
            let span = j * rows..(j + 1) * rows;
            let out = &mut cols[span.clone()];
            let centroids = &layout.centroids[span.clone()];
            match query_errors {
                None => {
                    let prefs = &layout.prefs[span.clone()];
                    let two_vars = &layout.two_vars[span];
                    chunked::gaussian_kernel_row(
                        out,
                        xj,
                        centroids,
                        |r| (prefs[r], two_vars[r]),
                        exp,
                    );
                }
                Some(errs) => {
                    let delta2 = &layout.delta2[span];
                    let (h, e2) = (self.bandwidths[j], errs[j] * errs[j]);
                    chunked::gaussian_kernel_row(
                        out,
                        xj,
                        centroids,
                        |r| factors_or_nan(self.kernel, h, clamped_sqrt(delta2[r] + e2)),
                        exp,
                    );
                }
            }
        }
        self.publish_build_counters(cols.len());
        KernelColumns::new(
            self.dim,
            cols,
            layout.weights.clone(),
            f64_from_count(self.total_n),
        )
    }

    fn publish_build_counters(&self, evals: usize) {
        udm_observe::counter_inc!("udm_microcluster_column_builds_total");
        udm_observe::counter_add!(
            "udm_microcluster_kernel_evals_total",
            u64::try_from(evals).unwrap_or(u64::MAX)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainer::{MaintainerConfig, MicroClusterMaintainer};
    use udm_core::{UncertainDataset, UncertainPoint};
    use udm_kde::quadrature::trapezoid;
    use udm_kde::{BandwidthRule, ErrorKde};

    fn pt(v: f64, e: f64) -> UncertainPoint {
        UncertainPoint::new(vec![v], vec![e]).unwrap()
    }

    fn dataset_1d(n: usize) -> UncertainDataset {
        // deterministic pseudo-random-ish spread with varying errors
        UncertainDataset::from_points(
            (0..n)
                .map(|i| {
                    let x = (i as f64 * 0.618_033_988_749).fract() * 10.0;
                    let e = (i % 5) as f64 * 0.1;
                    pt(x, e)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn empty_clusters_rejected() {
        assert!(MicroClusterKde::fit(&[], KdeConfig::default()).is_err());
        assert!(MicroClusterKde::fit(&[MicroCluster::new(2)], KdeConfig::default()).is_err());
    }

    #[test]
    fn singleton_clusters_reproduce_exact_kde() {
        // One point per cluster (q = N): the micro-cluster density must
        // equal the exact point-based density: each pseudo-point has zero
        // bias so Δ = ψ, and bandwidths agree by construction.
        let d = dataset_1d(40);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(40)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let exact = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        for x in [-1.0, 0.0, 2.5, 5.0, 9.9, 12.0] {
            let a = mc.density(&[x]).unwrap();
            let b = exact.density(&[x]).unwrap();
            assert!((a - b).abs() < 1e-9, "x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn compressed_density_approximates_exact() {
        let d = dataset_1d(500);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(60)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let exact = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        // L1-style check over a coarse grid: compression error is bounded.
        let mut total_abs = 0.0;
        let mut total = 0.0;
        for i in 0..100 {
            let x = -2.0 + 14.0 * i as f64 / 99.0;
            let a = mc.density(&[x]).unwrap();
            let b = exact.density(&[x]).unwrap();
            total_abs += (a - b).abs();
            total += b;
        }
        assert!(
            total_abs / total < 0.2,
            "relative L1 error {}",
            total_abs / total
        );
    }

    #[test]
    fn density_integrates_to_one() {
        let d = dataset_1d(200);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(20)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let mass = trapezoid(|x| mc.density(&[x]).unwrap(), -40.0, 50.0, 40_001);
        assert!((mass - 1.0).abs() < 1e-6, "mass={mass}");
    }

    #[test]
    fn weighting_by_cluster_size() {
        // Two clusters: one with 9 points at 0, one with 1 point at 10.
        let mut big = MicroCluster::new(1);
        for _ in 0..9 {
            big.insert(&pt(0.0, 0.0)).unwrap();
        }
        let small = MicroCluster::from_point(&pt(10.0, 0.0));
        let mc = MicroClusterKde::fit_with_bandwidths(
            &[big, small],
            vec![1.0],
            ErrorKernelForm::Normalized,
            true,
        )
        .unwrap();
        let at_big = mc.density(&[0.0]).unwrap();
        let at_small = mc.density(&[10.0]).unwrap();
        assert!((at_big / at_small - 9.0).abs() < 1e-6);
    }

    #[test]
    fn subspace_evaluation_ignores_other_dims() {
        let points = vec![
            UncertainPoint::new(vec![0.0, 100.0], vec![0.1, 5.0]).unwrap(),
            UncertainPoint::new(vec![1.0, -100.0], vec![0.2, 5.0]).unwrap(),
            UncertainPoint::new(vec![2.0, 0.0], vec![0.0, 5.0]).unwrap(),
        ];
        let d = UncertainDataset::from_points(points).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(3)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let s0 = Subspace::singleton(0).unwrap();
        let a = mc.density_subspace(&[1.0, 999.0], s0).unwrap();
        let b = mc.density_subspace(&[1.0, -999.0], s0).unwrap();
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn unadjusted_excludes_member_errors() {
        let mut c = MicroCluster::new(1);
        c.insert(&pt(0.0, 5.0)).unwrap();
        c.insert(&pt(1.0, 5.0)).unwrap();
        let adj = MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![0.5],
            ErrorKernelForm::Normalized,
            true,
        )
        .unwrap();
        let unadj = MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![0.5],
            ErrorKernelForm::Normalized,
            false,
        )
        .unwrap();
        // Adjusted spreads much wider -> lower peak at the centroid.
        assert!(adj.density(&[0.5]).unwrap() < unadj.density(&[0.5]).unwrap());
    }

    #[test]
    fn fit_with_bandwidths_validates() {
        let c = MicroCluster::from_point(&pt(0.0, 0.0));
        assert!(MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![1.0, 1.0],
            ErrorKernelForm::Normalized,
            true
        )
        .is_err());
        assert!(MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![0.0],
            ErrorKernelForm::Normalized,
            true
        )
        .is_err());
    }

    #[test]
    fn query_arity_validated() {
        let d = dataset_1d(10);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(4)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        assert!(mc.density(&[0.0, 1.0]).is_err());
        assert!(mc.density_subspace(&[0.0], Subspace::EMPTY).is_err());
    }

    #[test]
    fn cached_columns_match_naive_bitwise() {
        let points = vec![
            UncertainPoint::new(vec![0.0, 10.0, -3.0], vec![0.1, 0.5, 0.0]).unwrap(),
            UncertainPoint::new(vec![1.0, 12.0, -1.0], vec![0.0, 0.2, 0.4]).unwrap(),
            UncertainPoint::new(vec![2.0, 11.0, -2.0], vec![0.3, 0.1, 0.2]).unwrap(),
            UncertainPoint::new(vec![1.5, 11.5, -2.2], vec![0.2, 0.0, 0.1]).unwrap(),
        ];
        let d = UncertainDataset::from_points(points).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(2)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let x = [0.5, 11.5, -2.5];
        for errs in [None, Some([0.3, 0.0, 0.7].as_slice())] {
            let cols = mc.kernel_columns(&x, errs).unwrap();
            // All 7 non-empty subspaces of 3 dimensions.
            for bits in 1u64..8 {
                let s = Subspace::from_bits(bits);
                let naive = mc.density_subspace_with_error(&x, errs, s).unwrap();
                let cached = cols.density(s).unwrap();
                assert_eq!(
                    naive.to_bits(),
                    cached.to_bits(),
                    "subspace {bits:#b}, errs {errs:?}"
                );
            }
        }
        assert!(mc.kernel_columns(&[0.0], None).is_err());
        assert!(mc.kernel_columns(&x, Some(&[0.0])).is_err());
    }

    #[test]
    fn cached_path_short_circuits_underflowed_rows() {
        // With h = 1 the kernel of the cluster at 1e6 underflows to a
        // hard 0.0 in dimension 0; the cache must reproduce the naive
        // loop's short-circuit of that row exactly and stay finite.
        let near = MicroCluster::from_point(&UncertainPoint::exact(vec![0.0, 0.0]).unwrap());
        let far = MicroCluster::from_point(&UncertainPoint::exact(vec![1e6, 0.0]).unwrap());
        let mc = MicroClusterKde::fit_with_bandwidths(
            &[near, far],
            vec![1.0, 1.0],
            ErrorKernelForm::Normalized,
            true,
        )
        .unwrap();
        let x = [0.0, 0.0];
        for errs in [None, Some([0.5, 0.25].as_slice())] {
            let psi = errs.map_or(0.0, |e| e[0]);
            assert_eq!(mc.kernel.evaluate(1e6, 1.0, psi), 0.0, "no underflow");
            let cols = mc.kernel_columns(&x, errs).unwrap();
            for bits in 1u64..4 {
                let s = Subspace::from_bits(bits);
                let naive = mc.density_subspace_with_error(&x, errs, s).unwrap();
                let cached = cols.density(s).unwrap();
                assert_eq!(
                    naive.to_bits(),
                    cached.to_bits(),
                    "subspace {bits:#b}, errs {errs:?}"
                );
                assert!(naive.is_finite());
            }
        }
    }

    #[test]
    fn fastexp_build_within_budget_of_exact_build() {
        // The bounded-error exp through the one builder, including
        // weights and normalization, stays within the exp budget per
        // dimension, relative, of a libm build on every subspace.
        let pts: Vec<UncertainPoint> = (0..60)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_749).fract() * 20.0 - 10.0;
                let y = (i as f64 * 0.414_213_562_373).fract() * 6.0;
                UncertainPoint::new(vec![x, y], vec![(i % 4) as f64 * 0.2, 0.1]).unwrap()
            })
            .collect();
        let d = UncertainDataset::from_points(pts).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(8)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        for q in [[-9.5, 0.3], [0.0, 3.0], [4.2, 5.9], [11.0, -1.0]] {
            for errs in [None, Some([0.3, 0.7].as_slice())] {
                let exact = mc.build(&q, errs, f64::exp).unwrap();
                let fast = mc.build(&q, errs, udm_kde::fast_exp).unwrap();
                for bits in 1u64..4 {
                    let s = Subspace::from_bits(bits);
                    let a = exact.density(s).unwrap();
                    let b = fast.density(s).unwrap();
                    let dims = udm_core::num::f64_from_usize(s.cardinality());
                    let tol = dims * udm_kde::FAST_EXP_MAX_ABS_ERROR * a + 1e-12;
                    assert!(
                        a > 0.0 && (a - b).abs() <= tol,
                        "query {q:?} errs {errs:?} subspace {bits:#b}: exact {a} vs fast {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn overflowing_query_is_rejected_by_the_cache() {
        // A query value and error near 1e200 overflow the kernel to
        // inf/inf = NaN; the naive loop answers NaN, the cache refuses.
        let d = dataset_1d(20);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(4)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let (x, errs) = ([1e200], [1e200]);
        let full = Subspace::full(1).unwrap();
        assert!(mc
            .density_subspace_with_error(&x, Some(&errs), full)
            .unwrap()
            .is_nan());
        assert!(matches!(
            mc.kernel_columns(&x, Some(&errs)),
            Err(UdmError::InvalidValue { .. })
        ));
        // The value alone stays finite: every kernel is a hard 0.
        assert_eq!(
            mc.kernel_columns(&x, None).unwrap().density(full).unwrap(),
            0.0
        );
    }

    /// Replaces `first,` of the first `"key":[first,…]` in `json` with
    /// `with`.
    fn edit_first(json: &str, key: &str, with: &str) -> String {
        let pattern = format!("\"{key}\":[");
        let open = json.find(&pattern).unwrap() + pattern.len();
        let comma = open + json[open..].find(',').unwrap();
        format!("{}{with}{}", &json[..open], &json[comma + 1..])
    }

    #[test]
    fn malformed_model_json_is_an_error() {
        let mc = fitted_2d();
        let json = serde_json::to_string(&mc).unwrap();
        let restored: MicroClusterKde = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&restored).unwrap(), json);
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
                serde_json::from_str::<MicroClusterKde>(&edited).is_err(),
                "{what} deserialized"
            );
        }
    }

    #[test]
    fn from_pseudo_points_checks_every_part() {
        // `checked` is the one check every constructor and
        // deserialization share; the mixture's dimensionality comes from
        // its first pseudo-point here.
        let good = fitted_2d();
        let pseudos = good.pseudo_points().to_vec();
        let hs = good.bandwidths().to_vec();
        let n = good.total_points();
        let check = |pseudos: Vec<PseudoPoint>, hs: Vec<f64>, n: u64| {
            let dim = pseudos.first().map_or(good.dim(), PseudoPoint::dim);
            MicroClusterKde::checked(pseudos, hs, good.kernel, n, dim)
        };
        assert!(check(pseudos.clone(), hs.clone(), n).is_ok());
        assert!(check(vec![], hs.clone(), n).is_err());
        assert!(check(pseudos.clone(), hs.clone(), 0).is_err());
        // h·h underflows to 0: a point-mass kernel wherever Δ = 0.
        for h in [0.0, -1.0, 1e-200, f64::NAN, f64::INFINITY] {
            let bad = vec![hs[0], h];
            assert!(
                check(pseudos.clone(), bad, n).is_err(),
                "bandwidth {h} accepted"
            );
        }
        for (centroid, spread) in [
            (f64::NAN, 0.1),
            (0.0, f64::NAN),
            (0.0, -0.5),
            (0.0, f64::INFINITY),
        ] {
            let mut bad = pseudos.clone();
            bad[0].centroid[1] = centroid;
            bad[0].delta[1] = spread;
            assert!(
                check(bad, hs.clone(), n).is_err(),
                "centroid {centroid}, spread {spread} accepted"
            );
        }
        let mut ragged = pseudos.clone();
        ragged[0].delta.pop();
        assert!(check(ragged, hs.clone(), n).is_err());
        let empty_dim = vec![PseudoPoint {
            centroid: vec![],
            delta: vec![],
            weight: 1,
        }];
        assert!(check(empty_dim, vec![], n).is_err());
    }

    #[test]
    fn fitted_mixture_validates_inputs() {
        let mc = fitted_2d();
        let full = Subspace::full(2).unwrap();
        assert!(mc.density(&[0.0]).is_err(), "arity unchecked");
        assert!(
            mc.kernel_columns(&[0.0], None).is_err(),
            "column arity unchecked"
        );
        assert!(
            mc.density_subspace_with_error(&[f64::NAN, 0.0], None, full)
                .is_err(),
            "NaN unchecked"
        );
        assert!(
            mc.kernel_columns(&[f64::NAN, 0.0], None).is_err(),
            "column NaN unchecked"
        );
        assert!(
            mc.density_subspace_with_error(&[0.0, 0.0], Some(&[0.1]), full)
                .is_err(),
            "error arity unchecked"
        );
        assert!(
            mc.kernel_columns(&[0.0, 0.0], Some(&[0.1])).is_err(),
            "column error arity unchecked"
        );
        assert!(
            mc.kernel_columns(&[0.0, 0.0], Some(&[f64::NAN, 0.1]))
                .is_err(),
            "column NaN error unchecked"
        );
        assert!(
            mc.density_subspace_with_error(&[0.0, 0.0], None, Subspace::EMPTY)
                .is_err(),
            "empty subspace unchecked"
        );
        assert!(
            mc.kernel_columns(&[0.0, 0.0], None)
                .unwrap()
                .density(Subspace::EMPTY)
                .is_err(),
            "column empty subspace unchecked"
        );
    }

    fn fitted_2d() -> MicroClusterKde {
        let pts: Vec<UncertainPoint> = (0..30)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_749).fract() * 10.0;
                UncertainPoint::new(vec![x, -x], vec![0.1, 0.2]).unwrap()
            })
            .collect();
        let d = UncertainDataset::from_points(pts).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(5)).unwrap();
        MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap()
    }

    #[test]
    fn bandwidths_recovered_from_aggregate_match_exact() {
        let d = dataset_1d(100);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(100)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let hs = BandwidthRule::Silverman.bandwidths(&d).unwrap();
        assert!((mc.bandwidths()[0] - hs[0]).abs() < 1e-9);
    }
}
