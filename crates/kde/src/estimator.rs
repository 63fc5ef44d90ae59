//! The point-based error-adjusted density estimator (Eqs. 1, 4 of the
//! paper), evaluable over the full space or any subspace.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::bandwidth::BandwidthRule;
use crate::error_kernel::{ErrorKernelForm, GaussianErrorKernel};
use serde::{Deserialize, Serialize};
use udm_core::num::{ensure_finite_slice, f64_from_usize};
use udm_core::{Result, Subspace, UdmError, UncertainDataset};

/// Configuration for [`ErrorKde`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KdeConfig {
    /// How per-dimension bandwidths `h_j` are chosen.
    pub bandwidth: BandwidthRule,
    /// Normalization form of the error-based kernel (see
    /// [`crate::error_kernel`]).
    pub form: ErrorKernelForm,
    /// When `false`, all errors are treated as zero: the estimator computes
    /// the plain Eq. 1 density. This is the switch that builds the paper's
    /// *unadjusted* baseline (§4) without duplicating any code.
    pub error_adjusted: bool,
}

impl Default for KdeConfig {
    fn default() -> Self {
        KdeConfig {
            bandwidth: BandwidthRule::Silverman,
            form: ErrorKernelForm::Normalized,
            error_adjusted: true,
        }
    }
}

impl KdeConfig {
    /// Configuration matching the paper's error-adjusted method.
    pub fn error_adjusted() -> Self {
        Self::default()
    }

    /// Configuration for the unadjusted baseline (ψ treated as 0).
    pub fn unadjusted() -> Self {
        KdeConfig {
            error_adjusted: false,
            ..Self::default()
        }
    }
}

/// Error-adjusted kernel density estimator over a borrowed dataset.
///
/// The estimate at `x` over subspace `S` is (Eq. 4, product form):
///
/// ```text
/// f^Q(x) = (1/N) · Σ_i Π_{j ∈ S} Q'_{h_j}(x_j − X_i^j, ψ_j(X_i))
/// ```
///
/// This is the exact (non-compressed) estimator: evaluation is `O(N·|S|)`
/// per query. The scalable micro-cluster variant lives in
/// `udm-microcluster::density`.
///
/// # Example
///
/// ```
/// use udm_core::{UncertainDataset, UncertainPoint};
/// use udm_kde::{ErrorKde, KdeConfig};
///
/// let data = UncertainDataset::from_points(vec![
///     UncertainPoint::new(vec![0.0], vec![0.5]).unwrap(), // noisy
///     UncertainPoint::new(vec![1.0], vec![0.0]).unwrap(), // exact
/// ]).unwrap();
/// let kde = ErrorKde::fit(&data, KdeConfig::error_adjusted()).unwrap();
/// let density = kde.density(&[0.5]).unwrap();
/// assert!(density > 0.0);
/// ```
#[derive(Debug)]
pub struct ErrorKde<'a> {
    data: &'a UncertainDataset,
    bandwidths: Vec<f64>,
    kernel: GaussianErrorKernel,
    error_adjusted: bool,
}

impl<'a> ErrorKde<'a> {
    /// Fits the estimator: computes per-dimension bandwidths from the data.
    ///
    /// # Errors
    ///
    /// Propagates bandwidth-selection failures (empty dataset, invalid
    /// fixed bandwidth).
    pub fn fit(data: &'a UncertainDataset, config: KdeConfig) -> Result<Self> {
        let bandwidths = config.bandwidth.bandwidths(data)?;
        Ok(ErrorKde {
            data,
            bandwidths,
            kernel: GaussianErrorKernel::new(config.form),
            error_adjusted: config.error_adjusted,
        })
    }

    /// The fitted per-dimension bandwidths `h_j`.
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// The underlying dataset.
    pub fn data(&self) -> &UncertainDataset {
        self.data
    }

    /// Whether per-point errors widen the kernels (`false` for the
    /// unadjusted baseline configuration).
    pub fn is_error_adjusted(&self) -> bool {
        self.error_adjusted
    }

    /// Density at `x` over the full dimensionality (Eq. 4).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] if `x.len() != d`;
    /// [`UdmError::SubspaceCapacityExceeded`] when `d` exceeds
    /// [`Subspace::MAX_DIMS`].
    pub fn density(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.data.dim() {
            return Err(UdmError::DimensionMismatch {
                expected: self.data.dim(),
                actual: x.len(),
            });
        }
        self.density_subspace(x, Subspace::full(self.data.dim())?)
    }

    /// Density at `x` over the subspace `S` — the paper's `g(x, S, D)`.
    ///
    /// `x` is given in **full-dimensional** coordinates; only the
    /// coordinates named by `S` are read. This matches how the roll-up
    /// classifier queries many subspaces for one test point.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] on wrong query arity,
    /// [`UdmError::DimensionOutOfRange`] if `S` exceeds the data
    /// dimensionality, and [`UdmError::InvalidConfig`] for an empty `S`
    /// (a zero-dimensional density is meaningless).
    pub fn density_subspace(&self, x: &[f64], subspace: Subspace) -> Result<f64> {
        if x.len() != self.data.dim() {
            return Err(UdmError::DimensionMismatch {
                expected: self.data.dim(),
                actual: x.len(),
            });
        }
        subspace.validate_for(self.data.dim())?;
        if subspace.is_empty() {
            return Err(UdmError::InvalidConfig(
                "cannot evaluate a density over the empty subspace".into(),
            ));
        }
        if self.data.is_empty() {
            return Err(UdmError::EmptyDataset);
        }
        ensure_finite_slice("query coordinate", x)?;
        let mut sum = 0.0;
        // Kernel evaluations are tallied locally and published once per
        // query, so the hot loop carries no atomic traffic.
        let mut evals: u64 = 0;
        for p in self.data.iter() {
            let mut prod = 1.0;
            for j in subspace.dims() {
                let psi = if self.error_adjusted { p.error(j) } else { 0.0 };
                prod *= self
                    .kernel
                    .evaluate(x[j] - p.value(j), self.bandwidths[j], psi);
                evals += 1;
                // udm-lint: allow(UDM002) exact underflow short-circuit: the rest of the row stays 0
                if prod == 0.0 {
                    break;
                }
            }
            sum += prod;
        }
        udm_observe::counter_add!("udm_kde_kernel_evals_total", evals);
        Ok(sum / f64_from_usize(self.data.len()))
    }

    /// Convenience: density of a 1-dimensional subspace `{dim}`.
    pub fn density_1d(&self, x: f64, dim: usize) -> Result<f64> {
        let mut query = vec![0.0; self.data.dim()];
        if dim >= self.data.dim() {
            return Err(UdmError::DimensionOutOfRange {
                dim,
                dimensionality: self.data.dim(),
            });
        }
        query[dim] = x;
        self.density_subspace(&query, Subspace::singleton(dim)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::{trapezoid, trapezoid2d};
    use udm_core::UncertainPoint;

    fn exact_1d(values: &[f64]) -> UncertainDataset {
        UncertainDataset::from_points(
            values
                .iter()
                .map(|&v| UncertainPoint::exact(vec![v]).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn noisy_1d(values_errors: &[(f64, f64)]) -> UncertainDataset {
        UncertainDataset::from_points(
            values_errors
                .iter()
                .map(|&(v, e)| UncertainPoint::new(vec![v], vec![e]).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn density_integrates_to_one_1d() {
        let d = exact_1d(&[0.0, 1.0, 2.0, 5.0, 5.5]);
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let mass = trapezoid(|x| kde.density(&[x]).unwrap(), -30.0, 40.0, 50_001);
        assert!((mass - 1.0).abs() < 1e-6, "mass={mass}");
    }

    #[test]
    fn error_adjusted_density_integrates_to_one_1d() {
        let d = noisy_1d(&[(0.0, 0.5), (1.0, 2.0), (3.0, 0.0)]);
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let mass = trapezoid(|x| kde.density(&[x]).unwrap(), -40.0, 50.0, 50_001);
        assert!((mass - 1.0).abs() < 1e-6, "mass={mass}");
    }

    #[test]
    fn density_2d_integrates_to_one() {
        let points = vec![
            UncertainPoint::new(vec![0.0, 0.0], vec![0.3, 0.1]).unwrap(),
            UncertainPoint::new(vec![1.0, 2.0], vec![0.0, 0.8]).unwrap(),
            UncertainPoint::new(vec![-1.0, 1.0], vec![0.2, 0.2]).unwrap(),
        ];
        let d = UncertainDataset::from_points(points).unwrap();
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let mass = trapezoid2d(
            |x, y| kde.density(&[x, y]).unwrap(),
            (-15.0, 15.0),
            (-15.0, 15.0),
            601,
            601,
        );
        assert!((mass - 1.0).abs() < 1e-3, "mass={mass}");
    }

    #[test]
    fn unadjusted_ignores_errors() {
        let noisy = noisy_1d(&[(0.0, 5.0), (1.0, 5.0)]);
        let clean = exact_1d(&[0.0, 1.0]);
        let kde_unadj = ErrorKde::fit(&noisy, KdeConfig::unadjusted()).unwrap();
        let kde_clean = ErrorKde::fit(&clean, KdeConfig::default()).unwrap();
        for x in [-1.0, 0.0, 0.5, 2.0] {
            let a = kde_unadj.density(&[x]).unwrap();
            let b = kde_clean.density(&[x]).unwrap();
            assert!((a - b).abs() < 1e-12, "x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn adjusted_flattens_peak_of_noisy_point() {
        // One precise point and one noisy point at different locations: the
        // density at the noisy point's location should be lower than at the
        // precise point's location.
        let d = noisy_1d(&[(0.0, 0.0), (5.0, 3.0)]);
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let at_precise = kde.density(&[0.0]).unwrap();
        let at_noisy = kde.density(&[5.0]).unwrap();
        assert!(at_precise > at_noisy);
    }

    #[test]
    fn subspace_density_matches_projected_dataset() {
        let points = vec![
            UncertainPoint::new(vec![0.0, 10.0, -3.0], vec![0.1, 0.5, 0.0]).unwrap(),
            UncertainPoint::new(vec![1.0, 12.0, -1.0], vec![0.0, 0.2, 0.4]).unwrap(),
            UncertainPoint::new(vec![2.0, 11.0, -2.0], vec![0.3, 0.1, 0.2]).unwrap(),
        ];
        let d = UncertainDataset::from_points(points).unwrap();
        let s = Subspace::from_dims(&[0, 2]).unwrap();

        let kde_full = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let via_subspace = kde_full
            .density_subspace(&[0.5, 999.0, -2.5], s) // dim 1 coordinate ignored
            .unwrap();

        // Independent computation: project the dataset, fit with the same
        // bandwidths (hand-built via Fixed per-dim is not possible here, so
        // recompute: Silverman bandwidths depend only on the column, which
        // projection preserves).
        let projected = d.project(s).unwrap();
        let kde_proj = ErrorKde::fit(&projected, KdeConfig::default()).unwrap();
        let direct = kde_proj.density(&[0.5, -2.5]).unwrap();

        assert!(
            (via_subspace - direct).abs() < 1e-12,
            "{via_subspace} vs {direct}"
        );
    }

    #[test]
    fn rejects_wrong_arity_and_bad_subspace() {
        let d = exact_1d(&[0.0, 1.0]);
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        assert!(kde.density(&[0.0, 1.0]).is_err());
        assert!(kde
            .density_subspace(&[0.0], Subspace::from_dims(&[3]).unwrap())
            .is_err());
        assert!(kde.density_subspace(&[0.0], Subspace::EMPTY).is_err());
    }

    #[test]
    fn full_space_density_beyond_subspace_capacity_is_an_error() {
        // 65 dimensions do not fit a subspace bitmask: the full-space
        // density must fail rather than answer the 64-dim marginal.
        let dim = Subspace::MAX_DIMS + 1;
        let d = UncertainDataset::from_points(vec![
            UncertainPoint::exact(vec![0.0; dim]).unwrap(),
            UncertainPoint::exact(vec![1.0; dim]).unwrap(),
        ])
        .unwrap();
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        assert!(matches!(
            kde.density(&vec![0.5; dim]),
            Err(UdmError::SubspaceCapacityExceeded { .. })
        ));
    }

    #[test]
    fn rejects_empty_dataset() {
        let empty = UncertainDataset::new(1);
        assert!(ErrorKde::fit(&empty, KdeConfig::default()).is_err());
    }

    #[test]
    fn density_1d_helper_matches_subspace_call() {
        let points = vec![
            UncertainPoint::new(vec![0.0, 5.0], vec![0.1, 0.2]).unwrap(),
            UncertainPoint::new(vec![1.0, 6.0], vec![0.2, 0.1]).unwrap(),
        ];
        let d = UncertainDataset::from_points(points).unwrap();
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let a = kde.density_1d(5.5, 1).unwrap();
        let b = kde
            .density_subspace(&[0.0, 5.5], Subspace::singleton(1).unwrap())
            .unwrap();
        assert!((a - b).abs() < 1e-15);
        assert!(kde.density_1d(0.0, 7).is_err());
    }

    #[test]
    fn density_is_translation_equivariant() {
        let base = noisy_1d(&[(0.0, 0.4), (2.0, 0.1)]);
        let shifted = noisy_1d(&[(10.0, 0.4), (12.0, 0.1)]);
        let k1 = ErrorKde::fit(&base, KdeConfig::default()).unwrap();
        let k2 = ErrorKde::fit(&shifted, KdeConfig::default()).unwrap();
        for x in [-1.0, 0.0, 1.0, 2.5] {
            let a = k1.density(&[x]).unwrap();
            let b = k2.density(&[x + 10.0]).unwrap();
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn mass_concentrates_near_data() {
        let d = exact_1d(&[0.0, 0.1, -0.1, 0.05]);
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        assert!(kde.density(&[0.0]).unwrap() > kde.density(&[10.0]).unwrap());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use udm_core::UncertainPoint;

    fn arbitrary_dataset() -> impl Strategy<Value = UncertainDataset> {
        proptest::collection::vec((-50.0f64..50.0, 0.0f64..5.0), 2..30).prop_map(|rows| {
            UncertainDataset::from_points(
                rows.into_iter()
                    .map(|(v, e)| UncertainPoint::new(vec![v], vec![e]).unwrap())
                    .collect(),
            )
            .unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn density_is_non_negative(d in arbitrary_dataset(), x in -100.0f64..100.0) {
            let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
            prop_assert!(kde.density(&[x]).unwrap() >= 0.0);
        }

        #[test]
        fn adjusted_equals_unadjusted_on_exact_data(
            values in proptest::collection::vec(-50.0f64..50.0, 2..20),
            x in -60.0f64..60.0,
        ) {
            let d = UncertainDataset::from_points(
                values.iter().map(|&v| UncertainPoint::exact(vec![v]).unwrap()).collect(),
            ).unwrap();
            let adj = ErrorKde::fit(&d, KdeConfig::error_adjusted()).unwrap();
            let unadj = ErrorKde::fit(&d, KdeConfig::unadjusted()).unwrap();
            let a = adj.density(&[x]).unwrap();
            let b = unadj.density(&[x]).unwrap();
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
