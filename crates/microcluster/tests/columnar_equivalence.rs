//! Property tests for the columnar kernel hot path.
//!
//! Two contracts, checked in both feature builds:
//!
//! 1. **Bit-exact caching**: the SoA column cache evaluates every
//!    subspace bit-for-bit identically to the naive row-wise density
//!    loop, with and without query errors — under the default build
//!    *and* under `fast-math` (both paths route their exponential
//!    through `hot_exp`, so the contract is exp-agnostic). The
//!    proptests cover small datasets; a seed-replayable xorshift sweep
//!    covers fitted mixtures of up to 31 pseudo-points, on random
//!    subspaces and on the full space through `density`.
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

/// xorshift64* — deterministic, seed-replayable case generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        // 53 mantissa bits of the raw stream.
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        // n is tiny (dims/choices), so modulo bias is irrelevant here.
        (self.next() % n as u64) as usize
    }
}

/// Fits a random micro-cluster KDE: `n` points around 2–4 modes in
/// `dim` dimensions with per-dimension errors in `[0, 0.5)`, compressed
/// to `q` pseudo-points.
fn random_model(rng: &mut Rng, dim: usize, n: usize, q: usize) -> MicroClusterKde {
    let mut maintainer = MicroClusterMaintainer::new(dim, MaintainerConfig::new(q)).unwrap();
    let modes = 2 + rng.below(3);
    let centers: Vec<Vec<f64>> = (0..modes)
        .map(|_| (0..dim).map(|_| rng.range(-4.0, 4.0)).collect())
        .collect();
    for t in 0..n {
        let c = &centers[rng.below(modes)];
        let values: Vec<f64> = c.iter().map(|&m| m + rng.range(-1.0, 1.0)).collect();
        let psi: Vec<f64> = (0..dim).map(|_| rng.range(0.0, 0.5)).collect();
        let p = UncertainPoint::new(values, psi)
            .unwrap()
            .with_timestamp(t as u64);
        maintainer.insert(&p).unwrap();
    }
    MicroClusterKde::fit(maintainer.clusters(), KdeConfig::error_adjusted()).unwrap()
}

/// A random non-empty subspace of `dim` dimensions.
fn random_subspace(rng: &mut Rng, dim: usize) -> Subspace {
    loop {
        let dims: Vec<usize> = (0..dim).filter(|_| rng.unit() < 0.5).collect();
        if !dims.is_empty() {
            return Subspace::from_dims(&dims).unwrap();
        }
    }
}

fn random_query(rng: &mut Rng, dim: usize) -> (Vec<f64>, Option<Vec<f64>>) {
    let x: Vec<f64> = (0..dim).map(|_| rng.range(-5.0, 5.0)).collect();
    let errors = if rng.unit() < 0.5 {
        Some((0..dim).map(|_| rng.range(0.0, 0.4)).collect())
    } else {
        None
    };
    (x, errors)
}

/// Asserts the columnar path is bit-identical to the scalar entry
/// points of `kde` at one random query and subspace.
fn assert_columns_match_scalar(kde: &MicroClusterKde, rng: &mut Rng, dim: usize, seed: u64) {
    let (x, errors) = random_query(rng, dim);
    let sub = random_subspace(rng, dim);
    let want = kde
        .density_subspace_with_error(&x, errors.as_deref(), sub)
        .unwrap();
    let cols = kde.kernel_columns(&x, errors.as_deref()).unwrap();
    assert_eq!(
        cols.density(sub).unwrap().to_bits(),
        want.to_bits(),
        "columnar subspace density diverged, case seed {seed}"
    );
    let full = Subspace::full(dim).unwrap();
    let want_full = kde.density(&x).unwrap();
    let cols = kde.kernel_columns(&x, None).unwrap();
    assert_eq!(
        cols.density(full).unwrap().to_bits(),
        want_full.to_bits(),
        "columnar full-space density diverged, case seed {seed}"
    );
}

#[test]
fn fitted_mixture_is_bit_identical_on_random_models() {
    for case in 0..12u64 {
        let seed = 0xA11C_E000 + case;
        let mut rng = Rng::new(seed);
        let dim = 1 + rng.below(4);
        let n = 40 + rng.below(160);
        let q = 8 + rng.below(24);
        let kde = random_model(&mut rng, dim, n, q);
        for _ in 0..32 {
            assert_columns_match_scalar(&kde, &mut rng, dim, seed);
        }
    }
}
