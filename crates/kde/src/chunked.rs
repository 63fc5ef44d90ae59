//! Chunked, autovectorizer-friendly inner loops for the columnar
//! (structure-of-arrays) kernel path.
//!
//! The columnar layout in [`crate::columns`] turns subspace density
//! evaluation into primitive loops over contiguous `f64` slices:
//! multiplying one dimension's kernel column into a per-row product
//! accumulator, and a final ordered sum. The multiply loop is written
//! with a fixed-width `chunks_exact` body so the autovectorizer can
//! lift it to SIMD (the 8-wide body has no bounds checks, no
//! cross-iteration dependence, and a single load-multiply-store per
//! lane); the final sum is deliberately a plain sequential loop because
//! its evaluation *order* is part of the bit-for-bit contract with the
//! naive row-wise density loop.
//!
//! [`gaussian_kernel_row`] is the column *build* counterpart: one
//! dimension's kernel evaluations for every row, generic over the
//! exponential: production builds pass [`crate::fastexp::fast_exp`],
//! whose branch-free body lets the loop vectorize, and tests pass
//! `f64::exp` as a reference.
//!
//! [`with_scratch`] supplies the per-thread product buffer so the hot
//! path performs no per-call allocation; re-entrant use (or a poisoned
//! borrow) falls back to a fresh allocation rather than panicking.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use std::cell::RefCell;

/// Width of the unrolled multiply body. Eight f64 lanes span one or
/// two SIMD registers on every x86-64 feature level (SSE2 → AVX-512).
const UNROLL: usize = 8;

thread_local! {
    /// Per-thread product accumulator reused across subspace queries.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a zero-copy per-thread scratch slice of length `len`.
///
/// The slice contents are unspecified on entry; callers must
/// initialize it. Falls back to a fresh allocation when the
/// thread-local buffer is already borrowed (re-entrant use), so this
/// never panics.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0; len]),
    })
}

/// `acc[i] *= col[i]` over the common prefix, 8-wide unrolled.
///
/// Per-row multiplication order is preserved by construction: the
/// caller invokes this once per subspace dimension in ascending order,
/// so row `r` sees exactly the multiply sequence of the naive loop.
pub fn mul_assign(acc: &mut [f64], col: &[f64]) {
    let n = acc.len().min(col.len());
    let mut a = acc[..n].chunks_exact_mut(UNROLL);
    let mut c = col[..n].chunks_exact(UNROLL);
    for (av, cv) in a.by_ref().zip(c.by_ref()) {
        av[0] *= cv[0];
        av[1] *= cv[1];
        av[2] *= cv[2];
        av[3] *= cv[3];
        av[4] *= cv[4];
        av[5] *= cv[5];
        av[6] *= cv[6];
        av[7] *= cv[7];
    }
    for (av, cv) in a.into_remainder().iter_mut().zip(c.remainder()) {
        *av *= cv;
    }
}

/// Sequential sum in ascending index order.
///
/// NOT a pairwise/unrolled reduction on purpose: the naive density loop
/// accumulates `sum += prod` row by row, and reassociating the sum
/// would break the bit-for-bit cache contract.
pub fn ordered_sum(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &x in xs {
        sum += x;
    }
    sum
}

/// One dimension's kernel column: for every row `r`, with
/// `(pref, two_var) = factors(r)`,
/// `out[r] = pref · exp(−(xj − cen[r])² / two_var)`.
///
/// These are exactly the operations (and operand order) of
/// `GaussianErrorKernel::evaluate` once its factors are known, so the
/// column is bit-identical to `out.len()` kernel calls when `exp` is
/// the same function. `factors` supplies each row's prefactor and
/// doubled variance — read from a precomputed table, or computed in the
/// loop when they depend on the query. Generic over the exponential and
/// the factor source so each build monomorphizes to one inlined loop.
pub fn gaussian_kernel_row<E, F>(out: &mut [f64], xj: f64, cen: &[f64], factors: F, exp: E)
where
    E: Fn(f64) -> f64 + Copy,
    F: Fn(usize) -> (f64, f64),
{
    for (r, (o, &c)) in out.iter_mut().zip(cen).enumerate() {
        let (pref, two_var) = factors(r);
        let d = xj - c;
        *o = pref * exp(-d * d / two_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_assign_matches_scalar_for_all_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let mut acc: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
            let col: Vec<f64> = (0..n).map(|i| 0.9 + i as f64 * 0.01).collect();
            let expected: Vec<f64> = acc.iter().zip(&col).map(|(a, c)| a * c).collect();
            mul_assign(&mut acc, &col);
            for (got, want) in acc.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn ordered_sum_is_sequential() {
        // Grouping-sensitive values: any reassociation would differ.
        let xs: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut expected = 0.0;
        for &x in &xs {
            expected += x;
        }
        assert_eq!(ordered_sum(&xs).to_bits(), expected.to_bits());
    }

    #[test]
    fn gaussian_row_matches_scalar_kernel_ops() {
        for n in [1usize, 3, 4, 5, 8, 13] {
            let cen: Vec<f64> = (0..n).map(|i| i as f64 * 0.7 - 1.0).collect();
            let pref: Vec<f64> = (0..n).map(|i| 0.2 + i as f64 * 0.05).collect();
            let two_var: Vec<f64> = (0..n).map(|i| 0.5 + i as f64 * 0.3).collect();
            let xj = 0.37;
            let mut out = vec![0.0; n];
            gaussian_kernel_row(&mut out, xj, &cen, |r| (pref[r], two_var[r]), f64::exp);
            for i in 0..n {
                let d = xj - cen[i];
                let want = pref[i] * (-d * d / two_var[i]).exp();
                assert_eq!(out[i].to_bits(), want.to_bits(), "row {i} of {n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_and_reentrancy() {
        let a = with_scratch(8, |buf| {
            buf.fill(2.0);
            // Re-entrant use must not panic; it gets a fresh buffer.
            let inner = with_scratch(4, |b2| {
                b2.fill(3.0);
                ordered_sum(b2)
            });
            ordered_sum(buf) + inner
        });
        assert_eq!(a, 16.0 + 12.0);
        // The outer buffer grows monotonically and is reused.
        let b = with_scratch(2, |buf| buf.len());
        assert_eq!(b, 2);
    }
}
