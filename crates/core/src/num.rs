//! Numeric-safety guards for the density core.
//!
//! The estimators in this workspace depend on floating-point invariants
//! that fail *silently* rather than loudly when violated:
//!
//! * Lemma 1's pseudo-point error `Δ_j(C)² = CF2_j/r − (CF1_j/r)² + EF2_j/r`
//!   is mathematically non-negative but can go (slightly) negative under
//!   catastrophic cancellation of the `CF2/r − (CF1/r)²` term; feeding the
//!   raw value to `sqrt` would produce a `NaN` that poisons every density
//!   downstream.
//! * Eq. 5's error-adjusted distance relies on the `max{0, ·}` clamp per
//!   dimension.
//! * Bandwidths must stay finite and positive for the kernels to stay
//!   normalized.
//!
//! This module centralizes those clamps and guards so they are *auditable*:
//! [`clamped_sqrt`] / [`clamp_non_negative`] count every time the clamp
//! actually fires (see [`negative_clamp_count`]), which turns "silent
//! corruption" into an observable counter, and the `udm-lint` workspace
//! linter (rule **UDM003**) statically requires variance-like `sqrt`
//! arguments to be routed through here.

use crate::error::{Result, UdmError};

/// Name of the clamp-event counter in the `udm-observe` registry.
pub const NEGATIVE_CLAMPS_METRIC: &str = "udm_core_negative_clamps_total";

/// Registry handle for the clamp counter; the recording macro in
/// [`clamp_non_negative`] and these accessors resolve to the same metric
/// by name.
static NEGATIVE_CLAMPS: udm_observe::LazyCounter =
    udm_observe::LazyCounter::new("udm_core_negative_clamps_total");

/// Number of times [`clamp_non_negative`] / [`clamped_sqrt`] actually had
/// to clamp a negative (or NaN) input since process start (or the last
/// [`reset_negative_clamp_count`]).
///
/// A small number of events on near-degenerate clusters is expected FP
/// cancellation; a rapidly growing count signals corrupted sufficient
/// statistics upstream.
///
/// The count is backed by the `udm-observe` metrics registry (metric
/// [`NEGATIVE_CLAMPS_METRIC`]); this accessor is a thin shim kept for
/// existing callers. When telemetry is disabled the clamps still happen
/// but are not counted, and this returns 0.
pub fn negative_clamp_count() -> u64 {
    if udm_observe::enabled() {
        NEGATIVE_CLAMPS.get().get()
    } else {
        0
    }
}

/// Resets the clamp counter to zero (test and monitoring hook).
pub fn reset_negative_clamp_count() {
    if udm_observe::enabled() {
        NEGATIVE_CLAMPS.get().reset();
    }
}

/// Clamps a mathematically non-negative quantity at zero.
///
/// Returns `x` unchanged when `x ≥ 0`; returns `0.0` (and increments the
/// [`negative_clamp_count`] observability counter) when `x` is negative
/// *or NaN*. The NaN case matters: `NaN.max(0.0)` is `NaN` under a naive
/// clamp, so this is strictly safer than `x.max(0.0)`.
#[inline]
pub fn clamp_non_negative(x: f64) -> f64 {
    if x >= 0.0 {
        x
    } else {
        udm_observe::counter_inc!("udm_core_negative_clamps_total");
        0.0
    }
}

/// `√(max{0, x})` — the only sanctioned way to take the square root of a
/// variance-like expression (Lemma 1's `Δ²`, within-cluster variances,
/// mean-squared errors).
///
/// For `x ≥ 0` this is bit-for-bit `x.sqrt()`, so routing existing clamped
/// call sites through it cannot change any result; for negative or NaN
/// inputs it returns `0.0` and bumps [`negative_clamp_count`].
#[inline]
pub fn clamped_sqrt(x: f64) -> f64 {
    clamp_non_negative(x).sqrt()
}

/// A finite, non-negative `f64` — the domain of standard deviations,
/// bandwidths, errors `ψ`, and variances.
///
/// Constructing one is the *proof* that the guard ran; APIs that take a
/// `NonNegF64` cannot be handed a NaN or a negative width.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct NonNegF64(f64);

impl NonNegF64 {
    /// Zero.
    pub const ZERO: NonNegF64 = NonNegF64(0.0);

    /// Validates `value` as finite and non-negative.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidValue`] tagged with `what` otherwise.
    pub fn new(what: &'static str, value: f64) -> Result<Self> {
        if value.is_finite() && value >= 0.0 {
            Ok(NonNegF64(value))
        } else {
            Err(UdmError::InvalidValue { what, value })
        }
    }

    /// Clamps instead of failing: negative/NaN becomes zero (counted),
    /// `+∞` is rejected as unrepresentable.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidValue`] for `+∞`.
    pub fn clamped(what: &'static str, value: f64) -> Result<Self> {
        if value == f64::INFINITY {
            return Err(UdmError::InvalidValue { what, value });
        }
        Ok(NonNegF64(clamp_non_negative(value)))
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Square root (always well-defined on this domain).
    #[inline]
    pub fn sqrt(self) -> f64 {
        self.0.sqrt()
    }
}

impl From<NonNegF64> for f64 {
    fn from(v: NonNegF64) -> f64 {
        v.0
    }
}

/// Default absolute tolerance of [`approx_eq`].
pub const APPROX_EQ_ABS: f64 = 1e-12;
/// Default relative tolerance of [`approx_eq`].
pub const APPROX_EQ_REL: f64 = 1e-9;

/// Tolerant float equality: `|a − b| ≤ max(ABS, REL·max(|a|, |b|))`.
///
/// This is the helper `udm-lint` rule **UDM002** asks bare float `==`
/// comparisons to use. NaN compares unequal to everything (including
/// NaN), matching IEEE `==` semantics.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_eps(a, b, APPROX_EQ_ABS, APPROX_EQ_REL)
}

/// [`approx_eq`] with explicit absolute and relative tolerances.
// This is the one place exact float comparison is the tool's job: the
// fast path must short-circuit on bitwise-equal operands and same-sign
// infinities before any subtraction.
#[allow(clippy::float_cmp)]
#[inline]
pub fn approx_eq_eps(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
    if a == b {
        // Covers exact equality and infinities of the same sign.
        return true;
    }
    let diff = (a - b).abs();
    // Non-finite diff (NaN operands, opposite infinities, overflow) is
    // never "approximately equal": `∞ ≤ rel·∞` would otherwise pass.
    diff.is_finite() && diff <= abs_tol.max(rel_tol * a.abs().max(b.abs()))
}

/// Validates that every element of `values` is finite.
///
/// This is the runtime guard public estimator entry points use on query
/// coordinates and per-dimension errors (`udm-lint` rule **UDM005**): a
/// NaN query would otherwise flow through every kernel product and come
/// back as a NaN "density" with no indication of where it entered.
///
/// # Errors
///
/// [`UdmError::InvalidValue`] tagged with `what` for the first non-finite
/// element.
pub fn ensure_finite_slice(what: &'static str, values: &[f64]) -> Result<()> {
    for &v in values {
        if !v.is_finite() {
            return Err(UdmError::InvalidValue { what, value: v });
        }
    }
    Ok(())
}

/// Convenience: [`ensure_finite_slice`] over an `Option<&[f64]>` (used
/// for optional query-error vectors).
///
/// # Errors
///
/// As [`ensure_finite_slice`]; `None` always passes.
pub fn ensure_finite_slice_opt(what: &'static str, values: Option<&[f64]>) -> Result<()> {
    match values {
        Some(vs) => ensure_finite_slice(what, vs),
        None => Ok(()),
    }
}

/// `u64` point/weight count as `f64`, with a debug-time guard that the
/// count is exactly representable (`≤ 2⁵³`). The sanctioned conversion
/// for the kernel modules, where `clippy::as_conversions` bans bare `as`
/// casts.
#[inline]
pub fn f64_from_count(n: u64) -> f64 {
    debug_assert!(
        n <= (1u64 << f64::MANTISSA_DIGITS),
        "count {n} exceeds the exactly-representable f64 range"
    );
    n as f64 // guarded by the debug_assert above
}

/// `usize` length as `f64` (same contract as [`f64_from_count`]).
#[inline]
pub fn f64_from_usize(n: usize) -> f64 {
    debug_assert!(
        (n as u64) <= (1u64 << f64::MANTISSA_DIGITS), // widening on 64-bit targets
        "length {n} exceeds the exactly-representable f64 range"
    );
    n as f64 // guarded by the debug_assert above
}

/// Debug-build assertion that a slice of floats is entirely finite.
///
/// Zero-cost in release builds; use on internal hot paths where the
/// runtime [`ensure_finite_slice`] guard would be redundant with checks
/// already performed at the public boundary.
#[macro_export]
macro_rules! debug_assert_finite {
    ($what:expr, $values:expr) => {
        if cfg!(debug_assertions) {
            for (__idx, __v) in ::core::iter::IntoIterator::into_iter($values).enumerate() {
                let __v: f64 = *__v;
                debug_assert!(
                    __v.is_finite(),
                    "non-finite {} ({}) at index {}",
                    $what,
                    __v,
                    __idx
                );
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_passes_non_negative_through_bitwise() {
        for x in [0.0, 1e-300, 1.5, f64::MAX] {
            assert_eq!(clamp_non_negative(x).to_bits(), x.to_bits());
            assert_eq!(clamped_sqrt(x).to_bits(), x.sqrt().to_bits());
        }
    }

    #[test]
    fn clamp_counts_negative_and_nan() {
        reset_negative_clamp_count();
        let before = negative_clamp_count();
        assert_eq!(clamp_non_negative(-1e-18), 0.0);
        assert_eq!(clamp_non_negative(f64::NAN), 0.0);
        assert_eq!(clamped_sqrt(-4.0), 0.0);
        assert_eq!(negative_clamp_count() - before, 3);
    }

    #[test]
    fn clamped_sqrt_never_nan() {
        for x in [-1.0, -0.0, 0.0, f64::NAN, f64::NEG_INFINITY, 4.0] {
            assert!(!clamped_sqrt(x).is_nan(), "x={x}");
        }
    }

    #[test]
    fn non_neg_f64_validates() {
        assert_eq!(NonNegF64::new("w", 2.25).unwrap().sqrt(), 1.5);
        assert_eq!(NonNegF64::new("w", 0.0).unwrap().get(), 0.0);
        assert!(NonNegF64::new("w", -0.1).is_err());
        assert!(NonNegF64::new("w", f64::NAN).is_err());
        assert!(NonNegF64::new("w", f64::INFINITY).is_err());
        assert_eq!(f64::from(NonNegF64::ZERO), 0.0);
    }

    #[test]
    fn non_neg_f64_clamped_counts() {
        reset_negative_clamp_count();
        assert_eq!(NonNegF64::clamped("w", -3.0).unwrap().get(), 0.0);
        assert!(negative_clamp_count() >= 1);
        assert!(NonNegF64::clamped("w", f64::INFINITY).is_err());
    }

    #[test]
    fn approx_eq_basics() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + 1e-13));
        assert!(approx_eq(1e9, 1e9 * (1.0 + 1e-10)));
        assert!(!approx_eq(1.0, 1.0001));
        assert!(!approx_eq(f64::NAN, f64::NAN));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn ensure_finite_slice_reports_offender() {
        assert!(ensure_finite_slice("q", &[0.0, 1.0, -2.0]).is_ok());
        let err = ensure_finite_slice("q", &[0.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, UdmError::InvalidValue { what: "q", .. }));
        assert!(ensure_finite_slice("q", &[f64::INFINITY]).is_err());
        assert!(ensure_finite_slice_opt("q", None).is_ok());
        assert!(ensure_finite_slice_opt("q", Some(&[f64::NAN])).is_err());
    }

    #[test]
    fn count_conversions_are_exact_in_range() {
        assert_eq!(f64_from_count(0), 0.0);
        assert_eq!(f64_from_count(12_345), 12_345.0);
        assert_eq!(
            f64_from_usize(usize::try_from(1u64 << 53).unwrap()),
            2f64.powi(53)
        );
    }

    #[test]
    fn debug_assert_finite_accepts_finite() {
        let xs = [0.0, -1.0, 1e300];
        debug_assert_finite!("xs", xs.iter());
        debug_assert_finite!("xs", &xs);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    #[cfg(debug_assertions)]
    fn debug_assert_finite_panics_on_nan() {
        let xs = [0.0, f64::NAN];
        debug_assert_finite!("xs", &xs);
    }
}
