//! Classic (error-free) multivariate KDE, generic over the kernel
//! function — the Eq. 1 estimator in its textbook form.
//!
//! [`crate::ErrorKde`] is Gaussian-only because only the Gaussian has the
//! closed-form error convolution of Eq. 3. When data is exact (or errors
//! are deliberately ignored) any kernel works; this estimator provides
//! the product-kernel form with a caller-chosen [`Kernel`], which is also
//! how the compact-support kernels (Epanechnikov, uniform, triangular)
//! become usable for fast density queries: points outside the support
//! radius contribute exactly zero.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::bandwidth::BandwidthRule;
use crate::kernel::Kernel;
use udm_core::num::{ensure_finite_slice, f64_from_usize};
use udm_core::{Result, Subspace, UdmError, UncertainDataset};

/// Product-kernel density estimator `f(x) = (1/N)·Σ_i Π_j K_{h_j}(x_j − X_i^j)`.
#[derive(Debug)]
pub struct ClassicKde<'a, K: Kernel> {
    data: &'a UncertainDataset,
    bandwidths: Vec<f64>,
    kernel: K,
}

impl<'a, K: Kernel> ClassicKde<'a, K> {
    /// Fits the estimator with the given kernel and bandwidth rule.
    pub fn fit(data: &'a UncertainDataset, kernel: K, rule: BandwidthRule) -> Result<Self> {
        let bandwidths = rule.bandwidths(data)?;
        Ok(ClassicKde {
            data,
            bandwidths,
            kernel,
        })
    }

    /// The fitted per-dimension bandwidths.
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// Density at `x` over the full dimensionality.
    pub fn density(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.data.dim() {
            return Err(UdmError::DimensionMismatch {
                expected: self.data.dim(),
                actual: x.len(),
            });
        }
        self.density_subspace(x, Subspace::full(self.data.dim())?)
    }

    /// Density at `x` over the subspace `S` (full-dimensional query
    /// coordinates, only `S`'s components read).
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
        let support = self.kernel.support_radius();
        let mut sum = 0.0;
        for p in self.data.iter() {
            let mut prod = 1.0;
            for j in subspace.dims() {
                let diff = x[j] - p.value(j);
                if let Some(r) = support {
                    if diff.abs() > r * self.bandwidths[j] {
                        prod = 0.0;
                        break;
                    }
                }
                prod *= self.kernel.evaluate(diff, self.bandwidths[j]);
                // udm-lint: allow(UDM002) exact underflow short-circuit (bit-for-bit cache contract)
                if prod == 0.0 {
                    break;
                }
            }
            sum += prod;
        }
        Ok(sum / f64_from_usize(self.data.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{ErrorKde, KdeConfig};
    use crate::kernel::{EpanechnikovKernel, GaussianKernel, TriangularKernel, UniformKernel};
    use crate::quadrature::trapezoid;
    use udm_core::UncertainPoint;

    fn data_1d() -> UncertainDataset {
        UncertainDataset::from_points(
            [0.0, 0.5, 1.0, 3.0, 3.5, 4.0]
                .iter()
                .map(|&v| UncertainPoint::exact(vec![v]).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn gaussian_classic_matches_unadjusted_error_kde() {
        let d = data_1d();
        let classic = ClassicKde::fit(&d, GaussianKernel, BandwidthRule::Silverman).unwrap();
        let error_kde = ErrorKde::fit(&d, KdeConfig::unadjusted()).unwrap();
        // The error-based path routes its exp through hot_exp, so under
        // fast-math it may differ from the libm-exp classic kernel by
        // the documented fast_exp budget (amplified by the prefactor).
        let tol = if cfg!(feature = "fast-math") {
            1e-6
        } else {
            1e-12
        };
        for x in [-1.0, 0.0, 0.7, 2.0, 4.2] {
            let a = classic.density(&[x]).unwrap();
            let b = error_kde.density(&[x]).unwrap();
            assert!((a - b).abs() < tol, "x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn all_kernels_integrate_to_one() {
        let d = data_1d();
        macro_rules! check {
            ($k:expr) => {
                let kde = ClassicKde::fit(&d, $k, BandwidthRule::Silverman).unwrap();
                let mass = trapezoid(|x| kde.density(&[x]).unwrap(), -20.0, 25.0, 40_001);
                assert!((mass - 1.0).abs() < 1e-3, "{:?}: {mass}", $k);
            };
        }
        check!(GaussianKernel);
        check!(EpanechnikovKernel);
        check!(UniformKernel);
        check!(TriangularKernel);
    }

    #[test]
    fn compact_kernels_vanish_far_from_data() {
        let d = data_1d();
        let kde = ClassicKde::fit(&d, EpanechnikovKernel, BandwidthRule::Silverman).unwrap();
        assert_eq!(kde.density(&[100.0]).unwrap(), 0.0);
        assert!(kde.density(&[0.5]).unwrap() > 0.0);
    }

    #[test]
    fn subspace_and_validation() {
        let d = UncertainDataset::from_points(vec![
            UncertainPoint::exact(vec![0.0, 5.0]).unwrap(),
            UncertainPoint::exact(vec![1.0, 6.0]).unwrap(),
        ])
        .unwrap();
        let kde = ClassicKde::fit(&d, GaussianKernel, BandwidthRule::Silverman).unwrap();
        let s = Subspace::singleton(1).unwrap();
        let a = kde.density_subspace(&[999.0, 5.5], s).unwrap();
        assert!(a > 0.0);
        assert!(kde.density(&[0.0]).is_err());
        assert!(kde.density_subspace(&[0.0, 0.0], Subspace::EMPTY).is_err());
    }

    #[test]
    fn epanechnikov_peak_higher_than_gaussian_at_mode() {
        // Same bandwidth: the compact kernel concentrates more mass near
        // its centre than the Gaussian.
        let d = UncertainDataset::from_points(vec![
            UncertainPoint::exact(vec![0.0]).unwrap(),
            UncertainPoint::exact(vec![0.0]).unwrap(),
        ])
        .unwrap();
        let g = ClassicKde::fit(&d, GaussianKernel, BandwidthRule::Fixed(1.0)).unwrap();
        let e = ClassicKde::fit(&d, EpanechnikovKernel, BandwidthRule::Fixed(1.0)).unwrap();
        assert!(e.density(&[0.0]).unwrap() > g.density(&[0.0]).unwrap());
    }
}
