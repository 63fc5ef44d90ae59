//! The error-based Gaussian kernel (Eq. 3 of the paper).
//!
//! For a point with error `ψ`, the kernel bump is widened so that, as the
//! bandwidth `h → 0` (large-`N` limit of the Silverman rule), the kernel
//! converges to a Gaussian whose standard error equals the point's own
//! standard error `ψ`; conversely at `ψ = 0` it reduces to the standard
//! kernel (both boundary cases are verified by tests).
//!
//! ## Paper-faithful vs. renormalized form
//!
//! Equation 3 as printed uses `(h + ψ)` in the normalizing prefactor but
//! `(h² + ψ²)` in the exponent:
//!
//! ```text
//! Q'(u, ψ) = 1/(√2π·(h+ψ)) · exp(−u² / (2·(h²+ψ²)))         (paper)
//! ```
//!
//! A Gaussian with variance `h² + ψ²` integrates to 1 only with the
//! prefactor `1/(√2π·√(h²+ψ²))`. Since `h + ψ ≥ √(h²+ψ²)`, the printed form
//! slightly *under-weights* points for which both `h` and `ψ` are nonzero
//! (by a factor of at most `√2`), and the resulting density does not
//! integrate exactly to 1. Both boundary cases quoted in the paper (`h→0`
//! or `ψ→0`) agree between the two forms.
//!
//! We implement both: [`ErrorKernelForm::PaperFaithful`] reproduces Eq. 3
//! verbatim; [`ErrorKernelForm::Normalized`] (the default) uses the proper
//! Gaussian normalization, which is what the classification-accuracy ratios
//! of §3 implicitly assume. The difference is benchmarked in the ablation
//! suite.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::fastexp::fast_exp;
use crate::kernel::INV_SQRT_2PI;
use serde::{Deserialize, Serialize};
use udm_core::num::clamped_sqrt;

/// Which normalizing prefactor the error-based kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ErrorKernelForm {
    /// `1/(√2π · √(h² + ψ²))` — a true Gaussian density (integrates to 1).
    #[default]
    Normalized,
    /// `1/(√2π · (h + ψ))` — Eq. 3 exactly as printed in the paper.
    PaperFaithful,
}

/// The one-dimensional error-based Gaussian kernel `Q'_h(x − X_i, ψ(X_i))`.
///
/// Multi-dimensional densities take the product of this kernel over the
/// dimensions of the evaluation subspace, each dimension using its own
/// bandwidth `h_j` and error `ψ_j(X_i)` (§2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GaussianErrorKernel {
    form: ErrorKernelForm,
}

impl GaussianErrorKernel {
    /// Creates the kernel with the given normalization form.
    pub fn new(form: ErrorKernelForm) -> Self {
        Self { form }
    }

    /// The configured form.
    pub fn form(&self) -> ErrorKernelForm {
        self.form
    }

    /// Evaluates `Q'_h(diff, ψ)` where `diff = x − X_i`.
    ///
    /// `h` and `psi` must be non-negative; if both are zero the kernel is a
    /// point mass (`+∞` at `diff == 0`, else `0`).
    #[inline]
    pub fn evaluate(&self, diff: f64, h: f64, psi: f64) -> f64 {
        match self.factors(h, psi) {
            Some((pref, two_var)) => pref * fast_exp(-diff * diff / two_var),
            None => {
                // udm-lint: allow(UDM002) degenerate point mass sits exactly at diff == 0
                if diff == 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
        }
    }

    /// The diff-independent factors of the kernel: the normalizing
    /// prefactor `1/(√2π·scale)` and the doubled variance `2·(h²+ψ²)`,
    /// so that `evaluate(diff, h, psi)` is exactly
    /// `pref · exp(−diff²/two_var)`.
    ///
    /// `None` for the degenerate point-mass case (`h = ψ = 0`). The
    /// kernel-column builder precomputes these per (row, dimension) pair
    /// (or computes them per element for error-convolved queries) and
    /// stays bit-for-bit identical to [`Self::evaluate`] because the
    /// remaining per-element operations (`−diff·diff/two_var`, one
    /// multiply) are the same operations on the same operands.
    #[inline]
    pub fn factors(&self, h: f64, psi: f64) -> Option<(f64, f64)> {
        debug_assert!(h >= 0.0 && psi >= 0.0);
        let var = h * h + psi * psi;
        if var <= 0.0 {
            return None;
        }
        let scale = match self.form {
            // `clamped_sqrt` is bit-for-bit `sqrt` on this var ≥ 0 branch.
            ErrorKernelForm::Normalized => clamped_sqrt(var),
            ErrorKernelForm::PaperFaithful => h + psi,
        };
        Some((INV_SQRT_2PI / scale, 2.0 * var))
    }

    /// Effective standard deviation of the bump: `√(h² + ψ²)`.
    #[inline]
    pub fn effective_width(h: f64, psi: f64) -> f64 {
        clamped_sqrt(h * h + psi * psi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastexp::FAST_EXP_MAX_ABS_ERROR;
    use crate::kernel::{GaussianKernel, Kernel};
    use crate::quadrature::trapezoid;

    #[test]
    fn reduces_to_standard_kernel_at_zero_error() {
        // Boundary case from the paper: "the error-based kernel function
        // converges to the standard kernel function when ψ(X_i) is 0".
        let ek = GaussianErrorKernel::new(ErrorKernelForm::Normalized);
        let pk = GaussianErrorKernel::new(ErrorKernelForm::PaperFaithful);
        for diff in [-2.0, -0.5, 0.0, 0.7, 3.0] {
            for h in [0.2, 1.0, 4.0] {
                // The error-based kernel's exp is fast_exp, the standard
                // kernel's is libm: they differ by at most the prefactor
                // times the exp budget, plus float noise.
                let tol = INV_SQRT_2PI / h * FAST_EXP_MAX_ABS_ERROR + 1e-12;
                let std = GaussianKernel.evaluate(diff, h);
                assert!((ek.evaluate(diff, h, 0.0) - std).abs() < tol);
                assert!((pk.evaluate(diff, h, 0.0) - std).abs() < tol);
            }
        }
    }

    #[test]
    fn zero_bandwidth_limit_is_error_gaussian() {
        // Boundary case: as h → 0 the kernel is a Gaussian with standard
        // error exactly ψ.
        let ek = GaussianErrorKernel::default();
        let psi = 1.5;
        // fast_exp against libm: the prefactor times the exp budget,
        // plus float noise.
        let tol = INV_SQRT_2PI / psi * FAST_EXP_MAX_ABS_ERROR + 1e-12;
        for diff in [-1.0, 0.0, 2.0] {
            let expected = INV_SQRT_2PI / psi * (-diff * diff / (2.0 * psi * psi)).exp();
            assert!((ek.evaluate(diff, 0.0, psi) - expected).abs() < tol);
        }
    }

    #[test]
    fn normalized_form_integrates_to_one() {
        let ek = GaussianErrorKernel::new(ErrorKernelForm::Normalized);
        for (h, psi) in [(0.5, 0.0), (0.5, 1.0), (0.0, 2.0), (1.0, 1.0)] {
            let integral = trapezoid(|x| ek.evaluate(x, h, psi), -40.0, 40.0, 80_001);
            assert!((integral - 1.0).abs() < 1e-6, "h={h} psi={psi}: {integral}");
        }
    }

    #[test]
    fn paper_form_underweights_when_both_positive() {
        let pk = GaussianErrorKernel::new(ErrorKernelForm::PaperFaithful);
        let integral = trapezoid(|x| pk.evaluate(x, 1.0, 1.0), -40.0, 40.0, 80_001);
        // prefactor ratio sqrt(2)/2: mass = sqrt(h²+ψ²)/(h+ψ) = 1/√2.
        assert!((integral - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn larger_error_flattens_the_bump() {
        let ek = GaussianErrorKernel::default();
        let peak_small = ek.evaluate(0.0, 0.5, 0.1);
        let peak_large = ek.evaluate(0.0, 0.5, 2.0);
        assert!(peak_small > peak_large);
        // ... but raises the tails:
        let tail_small = ek.evaluate(5.0, 0.5, 0.1);
        let tail_large = ek.evaluate(5.0, 0.5, 2.0);
        assert!(tail_large > tail_small);
    }

    #[test]
    fn degenerate_point_mass() {
        let ek = GaussianErrorKernel::default();
        assert!(ek.evaluate(0.0, 0.0, 0.0).is_infinite());
        assert_eq!(ek.evaluate(1.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn effective_width_pythagorean() {
        assert!((GaussianErrorKernel::effective_width(3.0, 4.0) - 5.0).abs() < 1e-12);
        assert_eq!(GaussianErrorKernel::effective_width(0.0, 2.0), 2.0);
    }

    #[test]
    fn symmetric_in_diff() {
        let ek = GaussianErrorKernel::default();
        for d in [0.3, 1.7, 9.0] {
            assert_eq!(ek.evaluate(d, 1.0, 0.5), ek.evaluate(-d, 1.0, 0.5));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn non_negative_everywhere(
            diff in -50.0f64..50.0,
            h in 0.0f64..10.0,
            psi in 0.0f64..10.0,
        ) {
            prop_assume!(h + psi > 0.0);
            let ek = GaussianErrorKernel::default();
            prop_assert!(ek.evaluate(diff, h, psi) >= 0.0);
            let pk = GaussianErrorKernel::new(ErrorKernelForm::PaperFaithful);
            prop_assert!(pk.evaluate(diff, h, psi) >= 0.0);
        }

        #[test]
        fn monotone_decreasing_in_abs_diff(
            d1 in 0.0f64..10.0,
            extra in 0.001f64..10.0,
            h in 0.01f64..5.0,
            psi in 0.0f64..5.0,
        ) {
            let ek = GaussianErrorKernel::default();
            let closer = ek.evaluate(d1, h, psi);
            let farther = ek.evaluate(d1 + extra, h, psi);
            prop_assert!(closer >= farther);
        }

        #[test]
        fn peak_decreases_with_error(
            h in 0.01f64..5.0,
            psi1 in 0.0f64..5.0,
            dpsi in 0.001f64..5.0,
        ) {
            let ek = GaussianErrorKernel::default();
            prop_assert!(ek.evaluate(0.0, h, psi1) > ek.evaluate(0.0, h, psi1 + dpsi));
        }

        #[test]
        fn forms_agree_when_one_scale_vanishes(
            diff in -10.0f64..10.0,
            s in 0.01f64..5.0,
        ) {
            let n = GaussianErrorKernel::new(ErrorKernelForm::Normalized);
            let p = GaussianErrorKernel::new(ErrorKernelForm::PaperFaithful);
            prop_assert!((n.evaluate(diff, s, 0.0) - p.evaluate(diff, s, 0.0)).abs() < 1e-12);
            prop_assert!((n.evaluate(diff, 0.0, s) - p.evaluate(diff, 0.0, s)).abs() < 1e-12);
        }
    }
}
