//! Factorized kernel-column cache for the subspace roll-up hot path.
//!
//! The product form of the error-based density (Eq. 4) factorizes over
//! dimensions: for a fixed query `x`, the kernel value of point `i` in
//! dimension `j` does not depend on which subspace is being evaluated.
//! The roll-up classifier asks for `g(x, S, D)` over *many* subspaces of
//! the same query, so recomputing `Q'_{h_j}(x_j − X_i^j, ψ_j)` per
//! subspace repeats the expensive `exp` calls `O(#subspaces)` times.
//!
//! [`KernelColumns`] holds the full `n × d` matrix of per-dimension
//! kernel evaluations of one query; every subspace density is then a
//! sum over rows of a product over the cached columns selected by `S` —
//! no further kernel evaluations. `MicroClusterKde::kernel_columns` (in
//! `udm-microcluster`) is the one builder.
//!
//! ## Columnar (SoA) layout and the bit-for-bit contract
//!
//! The matrix is stored **dimension-major**: column `j` is the
//! contiguous slice `cols[j·rows .. (j+1)·rows]`. Subspace evaluation is
//! data-parallel: seed a per-row product accumulator from the weights,
//! multiply each selected column in with the unrolled loop of
//! [`crate::chunked`], and reduce with an ordered sequential sum. The
//! naive density loop multiplies each row's kernels in ascending
//! dimension order and sums rows in ascending row order — the columnar
//! schedule performs *the same multiplications on the same operands in
//! the same per-row order* and the same final ordered sum, so the
//! result is bit-for-bit identical.
//!
//! The one behavioural subtlety is the naive loop's underflow
//! short-circuit (`prod == 0.0 → break`, common in high dimensions).
//! Skipping the break is bit-preserving as long as every cached value
//! is finite: `0.0 × k = 0.0` exactly for any finite `k ≥ 0`, so the
//! remaining multiplies are no-ops. Only `0 × ∞` or a NaN would differ,
//! so [`KernelColumns::new`] rejects a cache holding any non-finite
//! value with [`UdmError::InvalidValue`]. A validated mixture produces
//! one only through overflow (a query value and error near `1e200`),
//! where the naive loop's answer is NaN anyway.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::chunked;
use udm_core::{Result, Subspace, UdmError};

/// Per-query cache of kernel evaluations, one row per pseudo-point and
/// one column per dimension, stored dimension-major (SoA).
///
/// Built by `MicroClusterKde::kernel_columns` (in `udm-microcluster`);
/// reduces subspace evaluation from `O(n·|S|)` kernel calls to
/// `O(n·|S|)` multiplications.
#[derive(Debug, Clone)]
pub struct KernelColumns {
    rows: usize,
    dim: usize,
    /// Dimension-major `dim × rows` kernel values: column `j` occupies
    /// `cols[j*rows .. (j+1)*rows]`.
    cols: Vec<f64>,
    /// Per-row weights (`n(C_i)` for micro-clusters).
    weights: Vec<f64>,
    /// Normalization divisor (`N` in Eq. 4 / Eq. 10).
    norm: f64,
}

impl KernelColumns {
    /// Assembles a cache from kernel values in **dimension-major** order
    /// (`cols[j*rows + r]`), one weight per row, and the normalizer.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] when `dim` is zero, `cols.len()`
    /// is not a multiple of `dim`, or `weights` doesn't match the row
    /// count; [`UdmError::EmptyDataset`] for zero rows;
    /// [`UdmError::InvalidValue`] for a non-positive normalizer or any
    /// non-finite kernel value.
    pub fn new(dim: usize, cols: Vec<f64>, weights: Vec<f64>, norm: f64) -> Result<Self> {
        if dim == 0 || !cols.len().is_multiple_of(dim) {
            return Err(UdmError::DimensionMismatch {
                expected: dim.max(1),
                actual: cols.len(),
            });
        }
        let rows = cols.len() / dim;
        if rows == 0 {
            return Err(UdmError::EmptyDataset);
        }
        if weights.len() != rows {
            return Err(UdmError::DimensionMismatch {
                expected: rows,
                actual: weights.len(),
            });
        }
        if !(norm.is_finite() && norm > 0.0) {
            return Err(UdmError::InvalidValue {
                what: "normalizer",
                value: norm,
            });
        }
        if let Some(&value) = cols.iter().find(|v| !v.is_finite()) {
            return Err(UdmError::InvalidValue {
                what: "kernel column value",
                value,
            });
        }
        Ok(KernelColumns {
            rows,
            dim,
            cols,
            weights,
            norm,
        })
    }

    /// Number of cached rows (pseudo-points).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Full dimensionality of the cache.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Column `j` as a contiguous slice (one kernel value per row).
    #[inline]
    fn column(&self, j: usize) -> &[f64] {
        &self.cols[j * self.rows..(j + 1) * self.rows]
    }

    /// Density over `subspace` from the cached columns alone.
    ///
    /// Matches the naive estimator bit-for-bit: same multiply order
    /// (ascending dimension), same starting weight, same final ordered
    /// sum; skipping the underflow short-circuit is a no-op because
    /// every cached value is finite (see the module docs).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionOutOfRange`] if `subspace` exceeds the
    /// cached dimensionality; [`UdmError::InvalidConfig`] for the empty
    /// subspace.
    pub fn density(&self, subspace: Subspace) -> Result<f64> {
        subspace.validate_for(self.dim)?;
        if subspace.is_empty() {
            return Err(UdmError::InvalidConfig(
                "cannot evaluate a density over the empty subspace".into(),
            ));
        }
        let sum = chunked::with_scratch(self.rows, |prod| {
            prod.copy_from_slice(&self.weights);
            for j in subspace.dims() {
                chunked::mul_assign(prod, self.column(j));
            }
            chunked::ordered_sum(prod)
        });
        Ok(sum / self.norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive row-wise schedule: each row's product in ascending
    /// dimension order with the literal `prod == 0.0` short-circuit,
    /// rows summed in order — the oracle for the columnar schedule.
    fn rowwise_density(c: &KernelColumns, subspace: Subspace) -> f64 {
        let mut sum = 0.0;
        for r in 0..c.rows {
            let mut prod = c.weights[r];
            for j in subspace.dims() {
                prod *= c.cols[j * c.rows + r];
                if prod == 0.0 {
                    break;
                }
            }
            sum += prod;
        }
        sum / c.norm
    }

    #[test]
    fn validates_shape_and_norm() {
        assert!(KernelColumns::new(0, vec![], vec![], 1.0).is_err());
        assert!(KernelColumns::new(2, vec![1.0; 3], vec![1.0], 1.0).is_err());
        assert!(KernelColumns::new(2, vec![], vec![], 1.0).is_err());
        assert!(KernelColumns::new(1, vec![1.0], vec![1.0, 2.0], 1.0).is_err());
        assert!(KernelColumns::new(1, vec![1.0], vec![1.0], 0.0).is_err());
        assert!(KernelColumns::new(1, vec![1.0], vec![1.0], -1.0).is_err());
        assert!(KernelColumns::new(1, vec![1.0], vec![1.0], f64::NAN).is_err());
        let c = KernelColumns::new(2, vec![0.5, 1.0, 0.25, 2.0], vec![1.0; 2], 2.0).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn density_is_weighted_row_products_over_norm() {
        // rows: [0.5, 0.25], [1.0, 2.0] given column by column;
        // weights 3, 1; norm 4
        let c = KernelColumns::new(2, vec![0.5, 1.0, 0.25, 2.0], vec![3.0, 1.0], 4.0).unwrap();
        let full = Subspace::full(2).unwrap();
        let expected = (3.0 * 0.5 * 0.25 + 1.0 * 2.0) / 4.0;
        assert_eq!(c.density(full).unwrap(), expected);
        let s0 = Subspace::singleton(0).unwrap();
        assert_eq!(c.density(s0).unwrap(), (3.0 * 0.5 + 1.0) / 4.0);
    }

    #[test]
    fn rejects_bad_subspaces() {
        let c = KernelColumns::new(1, vec![1.0], vec![1.0], 1.0).unwrap();
        assert!(c.density(Subspace::EMPTY).is_err());
        assert!(c.density(Subspace::singleton(1).unwrap()).is_err());
    }

    #[test]
    fn non_finite_cache_is_rejected() {
        // A hard zero ahead of an ∞ in the same row would need the naive
        // loop's literal break to stay finite (0 × ∞ = NaN); the cache
        // refuses such values instead of evaluating them differently.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            // rows [0.0, bad, 1.0] and [1.0, 5.0, 1.0], dimension-major
            let err = KernelColumns::new(3, vec![0.0, 1.0, bad, 5.0, 1.0, 1.0], vec![1.0; 2], 2.0)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    UdmError::InvalidValue {
                        what: "kernel column value",
                        ..
                    }
                ),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn hard_zero_rows_stay_zero_on_the_columnar_path() {
        // All-finite cache with an underflowed value: the columnar path
        // (no break) must produce the same hard zero the naive loop's
        // short-circuit does, for every subspace containing dim 0.
        let c = KernelColumns::new(2, vec![0.0, 2.0, 1e-300, 3.0], vec![5.0, 1.0], 2.0).unwrap();
        let full = Subspace::full(2).unwrap();
        // Row 0: 5·0·1e-300 = 0 exactly; row 1: 1·2·3 = 6.
        assert_eq!(c.density(full).unwrap().to_bits(), (6.0f64 / 2.0).to_bits());
    }

    #[test]
    fn columnar_matches_rowwise_schedule_bitwise() {
        // Random-ish finite cache: the columnar schedule and the naive
        // row-wise schedule must agree bit-for-bit on every subspace.
        let dim = 5;
        let rows = 37;
        let mut vals = Vec::with_capacity(dim * rows);
        for i in 0..dim * rows {
            // Deterministic spread over several magnitudes, incl. exact 0s.
            let v = if i % 11 == 0 {
                0.0
            } else {
                (i as f64 * 0.618_033_988_749).fract() * 10f64.powi((i % 7) as i32 - 3)
            };
            vals.push(v);
        }
        let weights: Vec<f64> = (0..rows).map(|r| 1.0 + (r % 5) as f64).collect();
        let c = KernelColumns::new(dim, vals, weights, 3.5).unwrap();
        for bits in 1u64..(1 << dim) {
            let s = Subspace::from_bits(bits);
            let fast = c.density(s).unwrap();
            let reference = rowwise_density(&c, s);
            assert_eq!(fast.to_bits(), reference.to_bits(), "subspace {bits:#b}");
        }
    }
}
