//! The kernel exponential: a bounded-error, branch-free `exp`.
//!
//! Every kernel evaluation costs one `exp`, and the column builds are
//! `exp`-bound: the rest of the per-element work is a subtraction, two
//! multiplies and a divide. A libm `exp` call is correctly rounded but
//! opaque to the optimizer: it can neither inline nor vectorize, so a
//! loop that calls it stays scalar. [`fast_exp`] is the only
//! exponential any kernel evaluation calls, both in
//! `GaussianErrorKernel::evaluate` (the naive path) and in the column
//! builds through [`crate::chunked::gaussian_kernel_row`], so cached
//! and naive densities stay bit-identical.
//!
//! It trades the last few bits for a short, inlineable
//! table-plus-polynomial pipeline (the classic `exp2`-style scheme used
//! by vectorized math libraries):
//!
//! 1. **8-way Cody–Waite range reduction**: `x = m·(ln2/8) + r` with
//!    `|r| ≤ ln2/16 ≈ 0.0433`, where `m·(ln2/8)` is subtracted in two
//!    parts (`LN2_HI_8` has 20 trailing zero mantissa bits, so
//!    `m·LN2_HI_8` is exact for the `|m| ≤ 8172` range used here). The
//!    integer `m` is extracted with the round-to-nearest "magic
//!    number" trick (adding `1.5·2^52` forces it into the low mantissa
//!    bits), avoiding a libm `round` call.
//! 2. **Degree-4 Taylor polynomial** for `exp(r)` on the reduced
//!    interval, in Estrin form so the dependency chain is 4 FP ops
//!    instead of 8. The truncation error is `≤ r⁵/5! ≈ 1.3e−9`
//!    relative — an 8× shorter interval buys three polynomial terms.
//! 3. **Table + exponent assembly**: write `m = 8e + j` with
//!    `j ∈ 0..8`; then `2^(m/8) = 2^e · 2^(j/8)`. The eight
//!    `2^(j/8)` significands come from a correctly-rounded bit table
//!    and `2^e` is added directly onto their IEEE-754 exponent field
//!    with integer ops.
//!
//! **Domain.** The kernel's argument is `−d²/two_var` with
//! `two_var = 2(h² + ψ²) > 0` (`GaussianErrorKernel::factors` answers
//! `None` at `h = ψ = 0`), so it is `≤ 0`, `−∞` or `NaN`, never
//! positive. On `x ≤ 0` the error contract is *absolute*:
//! `|fast_exp(x) − exp(x)| ≤` [`FAST_EXP_MAX_ABS_ERROR`] (since
//! `exp(x) ≤ 1` there, the ~1.3e−9 relative error is also an absolute
//! bound; the proptests below enforce both forms).
//!
//! **Branch-free.** The argument is clamped into the domain with plain
//! comparisons and the result selected to `0.0` below the underflow
//! cutoff, so the body has no early return and no libm arm, and the
//! column loop compiles to vector code: a single libm call anywhere in
//! the body keeps the whole loop scalar. The test-only oracle
//! `fast_exp_branchy` keeps the early-return form, with positive
//! arguments sent to libm, and a proptest pins the two bit for bit on
//! the domain.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

/// Documented absolute error bound of [`fast_exp`] against `f64::exp`
/// for arguments `x ≤ 0` (the Gaussian kernel's domain). Enforced by
/// proptests in this module; quoted in DESIGN.md's error budget.
pub const FAST_EXP_MAX_ABS_ERROR: f64 = 1e-8;

/// Below this argument `exp(x)` is within `3e−308` of zero (and the
/// `2^k` scale would leave the normal range), so [`fast_exp`] returns
/// exactly `0.0`. The introduced absolute error is ≤ `exp(−708)`,
/// i.e. ~300 orders of magnitude inside the error budget.
const UNDERFLOW_CUTOFF: f64 = -708.0;

/// High part of `ln2 / 8` (`0x3FB62E42FEE00000`): 20 trailing zero
/// mantissa bits make `m·LN2_HI_8` exact for `|m| < 2^20`.
const LN2_HI_8: f64 = f64::from_bits(0x3FB6_2E42_FEE0_0000);
/// Low part of `ln2 / 8` (`0x3DBA39EF35793C76`); `LN2_HI_8 + LN2_LO_8`
/// matches `ln2 / 8` to ~105 bits.
const LN2_LO_8: f64 = f64::from_bits(0x3DBA_39EF_3579_3C76);
/// `8 / ln2`: the reduction multiplier, so the magic-number trick
/// rounds `x·8/ln2` rather than `x/ln2` (eighth-of-an-octave steps).
const EIGHT_OVER_LN2: f64 = 8.0 * std::f64::consts::LOG2_E;
/// `1.5·2^52`: adding then subtracting rounds to the nearest integer
/// and leaves that integer in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// Correctly-rounded bit patterns of `2^(j/8)` for `j = 0..8`. Every
/// entry has biased exponent 1023, so adding `e·2^52` with integer
/// ops rescales the table value by an exact power of two.
const EXP2_FRAC_BITS: [u64; 8] = [
    0x3FF0_0000_0000_0000, // 2^(0/8) = 1.0
    0x3FF1_72B8_3C7D_517B, // 2^(1/8)
    0x3FF3_06FE_0A31_B715, // 2^(2/8)
    0x3FF4_BFDA_D536_2A27, // 2^(3/8)
    0x3FF6_A09E_667F_3BCD, // 2^(4/8) = sqrt(2)
    0x3FF8_ACE5_422A_A0DB, // 2^(5/8)
    0x3FFA_E89F_995A_D3AD, // 2^(6/8)
    0x3FFD_5818_DCFB_A487, // 2^(7/8)
];

// Taylor coefficients 1/3! and 1/4! for exp(r) on |r| ≤ ln2/16.
const C3: f64 = 1.0 / 6.0;
const C4: f64 = 1.0 / 24.0;

/// Fast `exp` with a bounded absolute error of
/// [`FAST_EXP_MAX_ABS_ERROR`] vs `f64::exp` for `x ≤ 0`.
///
/// Branch-free on the kernel's domain, so a loop of kernel evaluations
/// vectorizes: the argument is clamped into `[UNDERFLOW_CUTOFF, 0]`
/// with plain comparisons, the reduction runs unconditionally, and the
/// result is selected to `0.0` below the cutoff. Total over all of
/// `f64`: `NaN` fails both comparisons and propagates through the
/// arithmetic, `−∞` and everything below the cutoff return `0.0`, and
/// positive arguments (outside the kernel's domain) are clamped to `0`
/// and return `1.0`.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    // Plain comparisons, not `f64::max`/`min` (which drop a NaN operand).
    let below = x < UNDERFLOW_CUTOFF;
    let x = if below { UNDERFLOW_CUTOFF } else { x };
    let x = if x > 0.0 { 0.0 } else { x };
    // m = round(x · 8/ln2) via the shift trick; −8172 ≤ m ≤ 0 here.
    // `mul_add` is used deliberately throughout: rustc never contracts
    // `a*b + c` on its own, and a fused step both shortens the pipeline
    // and drops the intermediate rounding (the repo builds with
    // `target-cpu=native`, so these lower to hardware FMA).
    let shifted = x.mul_add(EIGHT_OVER_LN2, SHIFT);
    let m = shifted - SHIFT;
    // Two-part reduction: r = x − m·(ln2/8), |r| ≤ ln2/16 + 1 ulp.
    let r_hi = (-m).mul_add(LN2_HI_8, x);
    let r = (-m).mul_add(LN2_LO_8, r_hi);
    // exp(r) ≈ Σ r^i/i!, degree 4, Estrin form: the r2 square runs in
    // parallel with (1+r), halving the latency chain vs Horner.
    let r2 = r * r;
    let p = r2.mul_add(r2.mul_add(C4, r.mul_add(C3, 0.5)), 1.0 + r);
    // 2^(m/8) = 2^e · 2^(j/8) with m = 8e + j. The mantissa of
    // `shifted` holds m in two's complement relative to SHIFT's bit
    // pattern, so the wrapping arithmetic below is exact integer math
    // for |m| < 2^51: the low 3 bits index the table and the rest,
    // shifted into the exponent field (e·2^52 = (8e)·2^49), add e to
    // the table entry's biased exponent. 1023 + e ∈ [1, 1023] keeps
    // the scale a normal number. `j ≤ 7`, so `try_from` cannot fail
    // and the `unwrap_or` arm is dead.
    let mi = shifted.to_bits().wrapping_sub(SHIFT.to_bits());
    let j = usize::try_from(mi & 7).unwrap_or(0);
    let e8 = mi & !7u64;
    let scale = f64::from_bits(EXP2_FRAC_BITS[j].wrapping_add(e8.wrapping_shl(49)));
    if below {
        0.0
    } else {
        p * scale
    }
}

/// The branchy form of [`fast_exp`], kept as its test oracle: early
/// returns for `NaN`, the underflow cutoff and positive arguments
/// (which go to libm), then its own copy of the reduction, so an edit
/// to [`fast_exp`]'s reduction that changes a result fails the oracle
/// proptest.
#[cfg(test)]
fn fast_exp_branchy(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x < UNDERFLOW_CUTOFF {
        return 0.0;
    }
    if x > 0.0 {
        return x.exp();
    }
    let shifted = x.mul_add(EIGHT_OVER_LN2, SHIFT);
    let m = shifted - SHIFT;
    let r_hi = (-m).mul_add(LN2_HI_8, x);
    let r = (-m).mul_add(LN2_LO_8, r_hi);
    let r2 = r * r;
    let p = r2.mul_add(r2.mul_add(C4, r.mul_add(C3, 0.5)), 1.0 + r);
    let mi = shifted.to_bits().wrapping_sub(SHIFT.to_bits());
    let j = usize::try_from(mi & 7).unwrap_or(0);
    let e8 = mi & !7u64;
    let scale = f64::from_bits(EXP2_FRAC_BITS[j].wrapping_add(e8.wrapping_shl(49)));
    p * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_zero_and_powers_of_two_domain() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_exp(-0.0), 1.0);
    }

    #[test]
    fn special_values() {
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(-1.0e9), 0.0);
        // Positive arguments lie outside the kernel's domain; they are
        // clamped to 0, so the result is exactly exp(0).
        for x in [f64::MIN_POSITIVE, 0.5, 3.0, 100.0, 700.0, f64::INFINITY] {
            assert_eq!(fast_exp(x).to_bits(), 1.0f64.to_bits(), "x={x}");
        }
    }

    #[test]
    fn below_cutoff_is_zero_and_above_is_positive() {
        assert_eq!(fast_exp(-708.001), 0.0);
        let just_above = fast_exp(-707.999);
        assert!(just_above > 0.0 && just_above.is_finite());
    }

    #[test]
    fn spot_checks_within_budget() {
        for &x in &[-1e-12, -0.1, -0.5, -1.0, -2.0, -10.0, -87.3, -300.0, -700.0] {
            let err = (fast_exp(x) - x.exp()).abs();
            assert!(err <= FAST_EXP_MAX_ABS_ERROR, "x={x}: abs err {err:e}");
        }
    }

    #[test]
    fn branch_free_matches_branchy_oracle_at_edges() {
        let below_cutoff = f64::from_bits(UNDERFLOW_CUTOFF.to_bits() + 1);
        assert!(below_cutoff < UNDERFLOW_CUTOFF);
        for x in [0.0, -0.0, UNDERFLOW_CUTOFF, below_cutoff, f64::NEG_INFINITY] {
            assert_eq!(
                fast_exp(x).to_bits(),
                fast_exp_branchy(x).to_bits(),
                "x={x}"
            );
        }
        assert!(fast_exp(f64::NAN).is_nan() && fast_exp_branchy(f64::NAN).is_nan());
        assert!(fast_exp(-f64::NAN).is_nan());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        // The documented contract: absolute error vs f64::exp over the
        // kernel's whole domain, including past the underflow cutoff.
        #[test]
        fn absolute_error_bound_on_kernel_domain(x in -800.0f64..=0.0) {
            let err = (fast_exp(x) - x.exp()).abs();
            prop_assert!(
                err <= FAST_EXP_MAX_ABS_ERROR,
                "x={x}: fast {} vs exp {} (abs err {err:e})",
                fast_exp(x),
                x.exp()
            );
        }

        // Stronger than the contract: the relative error stays within
        // the budget wherever the result is a normal number, so the
        // bound does not rely on exp(x) being tiny.
        #[test]
        fn relative_error_bound_on_normal_range(x in -700.0f64..=0.0) {
            let truth = x.exp();
            let rel = (fast_exp(x) - truth).abs() / truth;
            prop_assert!(rel <= FAST_EXP_MAX_ABS_ERROR, "x={x}: rel err {rel:e}");
        }

        // The branch-free form answers exactly what the branchy form
        // it replaced answered, over the kernel's domain and past the
        // underflow cutoff.
        #[test]
        fn branch_free_is_bit_identical_to_branchy_oracle(x in -800.0f64..=0.0) {
            prop_assert!(
                fast_exp(x).to_bits() == fast_exp_branchy(x).to_bits(),
                "x={x}: {} vs oracle {}",
                fast_exp(x),
                fast_exp_branchy(x)
            );
        }

        // Monotone non-increasing error in the deep-negative tail: past
        // the cutoff the error is the true exp itself, still in budget.
        #[test]
        fn deep_tail_is_zero_with_negligible_error(x in -5000.0f64..-708.0) {
            prop_assert_eq!(fast_exp(x), 0.0);
            prop_assert!(x.exp() <= FAST_EXP_MAX_ABS_ERROR);
        }
    }
}
