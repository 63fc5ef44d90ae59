//! Property tests for the columnar kernel hot path.
//!
//! Two contracts, checked in both feature builds:
//!
//! 1. **Bit-exact caching**: the SoA column cache evaluates every
//!    subspace bit-for-bit identically to the naive row-wise density
//!    loop, with and without query errors — under the default build
//!    *and* under `fast-math` (both paths route their exponential
//!    through `hot_exp`, so the contract is exp-agnostic).
//! 2. **Bounded drift**: against an independently computed `f64::exp`
//!    reference (rebuilt by hand from the public pseudo-point
//!    statistics), the density is float-noise exact by default and
//!    within the documented `fast_exp` budget under `fast-math`.

use proptest::prelude::*;
use udm_core::num::f64_from_count;
use udm_core::{Subspace, UncertainDataset, UncertainPoint};
use udm_kde::{ErrorKernelForm, KdeConfig};
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer, PseudoPoint};

const MAX_DIM: usize = 4;

/// (dataset, query point, query errors) of one consistent dimension.
fn case() -> impl Strategy<Value = (UncertainDataset, Vec<f64>, Vec<f64>)> {
    (1usize..=MAX_DIM).prop_flat_map(|dim| {
        let point = (
            collection::vec(-25.0f64..25.0, dim),
            collection::vec(0.0f64..3.0, dim),
        )
            .prop_map(|(vals, errs)| UncertainPoint::new(vals, errs).unwrap());
        (
            collection::vec(point, 3..40)
                .prop_map(|pts| UncertainDataset::from_points(pts).unwrap()),
            collection::vec(-30.0f64..30.0, dim),
            collection::vec(0.0f64..4.0, dim),
        )
    })
}

fn fit(d: &UncertainDataset, max_clusters: usize) -> MicroClusterKde {
    let m = MicroClusterMaintainer::from_dataset(d, MaintainerConfig::new(max_clusters)).unwrap();
    MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Contract 1a: columnar cache == naive loop, bitwise, every subspace.
    #[test]
    fn cached_density_is_bit_identical_to_naive((d, x, _e) in case()) {
        let mc = fit(&d, 6);
        let cols = mc.kernel_columns(&x, None).unwrap();
        for bits in 1u64..(1u64 << d.dim()) {
            let s = Subspace::from_bits(bits);
            let naive = mc.density_subspace(&x, s).unwrap();
            let cached = cols.density(s).unwrap();
            prop_assert!(
                naive.to_bits() == cached.to_bits(),
                "subspace {:#b}: naive {} vs cached {}", bits, naive, cached
            );
        }
    }

    // Contract 1b: same, with query-error convolution (the per-query-ψ
    // path that cannot precompute kernel factors).
    #[test]
    fn cached_density_with_query_errors_is_bit_identical((d, x, e) in case()) {
        let mc = fit(&d, 5);
        let cols = mc.kernel_columns(&x, Some(&e)).unwrap();
        for bits in 1u64..(1u64 << d.dim()) {
            let s = Subspace::from_bits(bits);
            let naive = mc.density_subspace_with_error(&x, Some(&e), s).unwrap();
            let cached = cols.density(s).unwrap();
            prop_assert!(
                naive.to_bits() == cached.to_bits(),
                "subspace {:#b}", bits
            );
        }
    }

    // Contract 2: drift against an independent f64::exp reference. The
    // reference recomputes Eq. 10 from scratch out of the public
    // pseudo-point statistics with libm exp — it shares no kernel code
    // with the estimator.
    #[test]
    fn density_within_budget_of_std_exp_reference((d, x, _e) in case()) {
        prop_assume!(d.dim() == 1);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(6)).unwrap();
        let h = 0.8;
        let mc = MicroClusterKde::fit_with_bandwidths(
            m.clusters(), vec![h], ErrorKernelForm::Normalized, true,
        ).unwrap();
        let got = mc.density(&[x[0]]).unwrap();

        let pseudos: Vec<PseudoPoint> = m
            .clusters()
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| PseudoPoint::from_cluster(c, true).unwrap())
            .collect();
        let inv_sqrt_2pi = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        let mut sum = 0.0;
        let mut n_total = 0.0;
        for p in &pseudos {
            let w = f64_from_count(p.weight);
            n_total += w;
            let var = h * h + p.delta[0] * p.delta[0];
            let diff = x[0] - p.centroid[0];
            sum += w * inv_sqrt_2pi / var.sqrt() * (-diff * diff / (2.0 * var)).exp();
        }
        let reference = sum / n_total;

        let tol = if cfg!(feature = "fast-math") { 1e-6 } else { 1e-12 };
        prop_assert!(
            (got - reference).abs() <= tol * (1.0 + reference.abs()),
            "density {} vs std-exp reference {} (tol {})", got, reference, tol
        );
    }
}
