//! Classic (error-free) kernel functions.
//!
//! A kernel `K` is a symmetric probability density; the scaled kernel used
//! in estimation is `K_h(u) = (1/h)·K(u/h)` (Eq. 2 of the paper for the
//! Gaussian case). All kernels here integrate to 1 over ℝ, which the test
//! suite verifies by quadrature.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use serde::{Deserialize, Serialize};

/// The constant `1/√(2π)`.
pub(crate) const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// A symmetric, normalized kernel function.
pub trait Kernel: std::fmt::Debug + Send + Sync {
    /// Evaluates the *standardized* kernel `K(u)`.
    fn profile(&self, u: f64) -> f64;

    /// Evaluates the scaled kernel `K_h(diff) = (1/h)·K(diff/h)`.
    ///
    /// For degenerate `h = 0` the kernel collapses to a point mass; we
    /// return `+∞` at `diff == 0` and `0` elsewhere, which keeps densities
    /// well-ordered in comparisons even if not integrable.
    fn evaluate(&self, diff: f64, h: f64) -> f64 {
        if h <= 0.0 {
            // udm-lint: allow(UDM002) degenerate point mass sits exactly at diff == 0
            return if diff == 0.0 { f64::INFINITY } else { 0.0 };
        }
        self.profile(diff / h) / h
    }

    /// Radius (in multiples of `h`) beyond which the kernel is exactly or
    /// effectively zero. `None` means unbounded support (Gaussian).
    fn support_radius(&self) -> Option<f64>;
}

/// The Gaussian kernel `K(u) = (1/√2π)·e^{−u²/2}` — the kernel the paper
/// uses throughout (Eq. 2), and the only one with an analytic error-based
/// generalization (see [`crate::error_kernel`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaussianKernel;

impl Kernel for GaussianKernel {
    #[inline]
    fn profile(&self, u: f64) -> f64 {
        INV_SQRT_2PI * (-0.5 * u * u).exp()
    }

    fn support_radius(&self) -> Option<f64> {
        None
    }
}

/// The Epanechnikov kernel `K(u) = 0.75·(1 − u²)` for `|u| ≤ 1` — the
/// mean-integrated-squared-error optimal kernel; provided for completeness
/// and for exact-support grid evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpanechnikovKernel;

impl Kernel for EpanechnikovKernel {
    #[inline]
    fn profile(&self, u: f64) -> f64 {
        if u.abs() <= 1.0 {
            0.75 * (1.0 - u * u)
        } else {
            0.0
        }
    }

    fn support_radius(&self) -> Option<f64> {
        Some(1.0)
    }
}

/// The uniform (box) kernel `K(u) = 1/2` for `|u| ≤ 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniformKernel;

impl Kernel for UniformKernel {
    #[inline]
    fn profile(&self, u: f64) -> f64 {
        if u.abs() <= 1.0 {
            0.5
        } else {
            0.0
        }
    }

    fn support_radius(&self) -> Option<f64> {
        Some(1.0)
    }
}

/// The triangular kernel `K(u) = 1 − |u|` for `|u| ≤ 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriangularKernel;

impl Kernel for TriangularKernel {
    #[inline]
    fn profile(&self, u: f64) -> f64 {
        let a = u.abs();
        if a <= 1.0 {
            1.0 - a
        } else {
            0.0
        }
    }

    fn support_radius(&self) -> Option<f64> {
        Some(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::trapezoid;

    fn integrates_to_one<K: Kernel>(k: &K) {
        // Tolerance admits the half-cell quadrature error at the jump
        // discontinuities of compact kernels (uniform): 2 × step/2 × K(1).
        let integral = trapezoid(|u| k.profile(u), -10.0, 10.0, 20_001);
        assert!(
            (integral - 1.0).abs() < 1e-3,
            "kernel {k:?} integrates to {integral}"
        );
    }

    #[test]
    fn all_kernels_are_normalized() {
        integrates_to_one(&GaussianKernel);
        integrates_to_one(&EpanechnikovKernel);
        integrates_to_one(&UniformKernel);
        integrates_to_one(&TriangularKernel);
    }

    #[test]
    fn gaussian_peak_value() {
        assert!((GaussianKernel.profile(0.0) - INV_SQRT_2PI).abs() < 1e-15);
    }

    #[test]
    fn kernels_are_symmetric() {
        for u in [0.1, 0.5, 0.9, 2.0] {
            assert_eq!(GaussianKernel.profile(u), GaussianKernel.profile(-u));
            assert_eq!(
                EpanechnikovKernel.profile(u),
                EpanechnikovKernel.profile(-u)
            );
            assert_eq!(UniformKernel.profile(u), UniformKernel.profile(-u));
            assert_eq!(TriangularKernel.profile(u), TriangularKernel.profile(-u));
        }
    }

    #[test]
    fn scaled_kernel_integrates_to_one_for_any_h() {
        for h in [0.1, 1.0, 3.7] {
            let integral = trapezoid(|x| GaussianKernel.evaluate(x, h), -50.0, 50.0, 100_001);
            assert!((integral - 1.0).abs() < 1e-6, "h={h}: {integral}");
        }
    }

    #[test]
    fn scaling_shrinks_peak() {
        let narrow = GaussianKernel.evaluate(0.0, 0.5);
        let wide = GaussianKernel.evaluate(0.0, 2.0);
        assert!(narrow > wide);
    }

    #[test]
    fn compact_kernels_vanish_outside_support() {
        assert_eq!(EpanechnikovKernel.profile(1.01), 0.0);
        assert_eq!(UniformKernel.profile(-1.01), 0.0);
        assert_eq!(TriangularKernel.profile(2.0), 0.0);
    }

    #[test]
    fn degenerate_bandwidth_is_point_mass() {
        assert_eq!(GaussianKernel.evaluate(0.5, 0.0), 0.0);
        assert!(GaussianKernel.evaluate(0.0, 0.0).is_infinite());
    }

    #[test]
    fn support_radii() {
        assert_eq!(GaussianKernel.support_radius(), None);
        assert_eq!(EpanechnikovKernel.support_radius(), Some(1.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn kernels_are_non_negative(u in -100.0f64..100.0) {
            prop_assert!(GaussianKernel.profile(u) >= 0.0);
            prop_assert!(EpanechnikovKernel.profile(u) >= 0.0);
            prop_assert!(UniformKernel.profile(u) >= 0.0);
            prop_assert!(TriangularKernel.profile(u) >= 0.0);
        }

        #[test]
        fn gaussian_is_maximized_at_origin(u in -100.0f64..100.0) {
            prop_assert!(GaussianKernel.profile(u) <= GaussianKernel.profile(0.0));
        }

        #[test]
        fn evaluate_scales_correctly(diff in -10.0f64..10.0, h in 0.01f64..10.0) {
            let direct = GaussianKernel.evaluate(diff, h);
            let manual = GaussianKernel.profile(diff / h) / h;
            prop_assert!((direct - manual).abs() < 1e-12);
        }
    }
}
