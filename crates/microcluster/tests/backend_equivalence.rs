//! Randomized contracts of the two density backends every consumer reads:
//!
//! 1. the **exact** backend: the kernel-column path that the classifier
//!    roll-up and the serve daemon read (`kernel_columns(..).density(S)`)
//!    answers **bit-identically** to the inherent `MicroClusterKde`
//!    entry points, over random models, random queries, random query
//!    errors, and random subspaces — for the fitted mixture and for a
//!    coreset's reduced one;
//! 2. the **coreset** backend: a `CoresetKde` never deviates from the
//!    exact density by more than its own `certified_error()` on *any*
//!    subspace — with and without query errors under the `Normalized`
//!    kernel form, without query errors under `PaperFaithful` — and that
//!    bound respects the requested `eps` times the model's peak density
//!    bound;
//! 3. the coreset construction is deterministic across rebuilds.
//!
//! The generator is a hand-rolled xorshift so every case is replayable
//! from the printed seed — no external property-testing dependency.

use udm_core::{Subspace, UncertainPoint};
use udm_kde::{ErrorKernelForm, KdeConfig};
use udm_microcluster::{CoresetKde, MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

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

/// Fits a random micro-cluster KDE: `n` clustered points in `dim`
/// dimensions with random per-dimension errors drawn from `errors`,
/// compressed to `q` pseudo-points.
fn random_model(
    rng: &mut Rng,
    dim: usize,
    n: usize,
    q: usize,
    errors: (f64, f64),
    form: ErrorKernelForm,
) -> MicroClusterKde {
    let mut maintainer = MicroClusterMaintainer::new(dim, MaintainerConfig::new(q)).unwrap();
    let modes = 2 + rng.below(3);
    let centers: Vec<Vec<f64>> = (0..modes)
        .map(|_| (0..dim).map(|_| rng.range(-4.0, 4.0)).collect())
        .collect();
    for t in 0..n {
        let c = &centers[rng.below(modes)];
        let values: Vec<f64> = c.iter().map(|&m| m + rng.range(-1.0, 1.0)).collect();
        let psi: Vec<f64> = (0..dim).map(|_| rng.range(errors.0, errors.1)).collect();
        let p = UncertainPoint::new(values, psi)
            .unwrap()
            .with_timestamp(t as u64);
        maintainer.insert(&p).unwrap();
    }
    let config = KdeConfig {
        form,
        ..KdeConfig::error_adjusted()
    };
    MicroClusterKde::fit(maintainer.clusters(), config).unwrap()
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

/// Every subspace of `dim` dimensions the roll-up can visit: all
/// singletons, the full space, and a few random ones.
fn subspaces_to_check(rng: &mut Rng, dim: usize) -> Vec<Subspace> {
    let mut out: Vec<Subspace> = (0..dim).map(|d| Subspace::singleton(d).unwrap()).collect();
    out.push(Subspace::full(dim).unwrap());
    out.extend((0..3).map(|_| random_subspace(rng, dim)));
    out
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
fn exact_backend_is_bit_identical_on_random_models() {
    for case in 0..12u64 {
        let seed = 0xA11C_E000 + case;
        let mut rng = Rng::new(seed);
        let dim = 1 + rng.below(4);
        let n = 40 + rng.below(160);
        let q = 8 + rng.below(24);
        let kde = random_model(&mut rng, dim, n, q, (0.0, 0.5), ErrorKernelForm::Normalized);
        let coreset = CoresetKde::build(&kde, 0.2).unwrap();
        for _ in 0..16 {
            assert_columns_match_scalar(&kde, &mut rng, dim, seed);
            assert_columns_match_scalar(coreset.inner(), &mut rng, dim, seed);
        }
    }
}

/// Checks the certificate of `coreset` against `kde` on every subspace
/// [`subspaces_to_check`] yields, at `queries` random points (with
/// query errors half the time when `query_errors`). Returns the worst
/// observed `error / certified_error` ratio.
fn check_certificate(
    kde: &MicroClusterKde,
    coreset: &CoresetKde,
    rng: &mut Rng,
    queries: usize,
    query_errors: bool,
    seed: u64,
) -> f64 {
    let dim = kde.dim();
    let budget = coreset.certified_error();
    let mut worst: f64 = 0.0;
    for _ in 0..queries {
        let (x, errors) = random_query(rng, dim);
        let errors = errors.filter(|_| query_errors);
        for sub in subspaces_to_check(rng, dim) {
            let exact = kde
                .density_subspace_with_error(&x, errors.as_deref(), sub)
                .unwrap();
            let approx = coreset
                .inner()
                .kernel_columns(&x, errors.as_deref())
                .unwrap()
                .density(sub)
                .unwrap();
            let err = (approx - exact).abs();
            // Absolute L∞ guarantee plus float slack from the bound
            // arithmetic itself.
            let slack = budget + 1e-9 * (1.0 + exact.abs());
            assert!(
                err <= slack,
                "{sub:?}, errors {errors:?}: |{approx} - {exact}| > {slack}, case seed {seed}"
            );
            if budget > 0.0 {
                worst = worst.max(err / budget);
            }
        }
    }
    worst
}

#[test]
fn coreset_respects_its_certified_error_on_random_models() {
    for case in 0..10u64 {
        let seed = 0xC0DE_5E70 + case;
        let mut rng = Rng::new(seed);
        let dim = 1 + rng.below(3);
        let n = 60 + rng.below(200);
        let q = 16 + rng.below(32);
        let kde = random_model(&mut rng, dim, n, q, (0.0, 0.5), ErrorKernelForm::Normalized);
        let eps = rng.range(0.01, 0.3);
        let coreset = CoresetKde::build(&kde, eps).unwrap();
        assert!(
            coreset.rows() <= coreset.source_rows(),
            "compression grew the model, case seed {seed}"
        );
        let budget = coreset.certified_error();
        assert!(
            budget <= eps * coreset.peak_density_bound() + 1e-12,
            "certified error {budget} above eps budget, case seed {seed}"
        );
        check_certificate(&kde, &coreset, &mut rng, 24, true, seed);
    }
}

/// Wide data errors put per-dimension kernel peaks below 1, the regime
/// where a marginal's error can exceed a bound computed over the full
/// product. The certificate must hold on singleton and random
/// subspaces, with and without query errors.
#[test]
fn coreset_certificate_holds_on_every_subspace() {
    let (mut merged, mut worst) = (0usize, 0.0f64);
    for case in 0..40u64 {
        let seed = 0xBEEF + case;
        let mut rng = Rng::new(seed);
        let dim = 2 + rng.below(3);
        let n = 80 + rng.below(150);
        let q = 16 + rng.below(24);
        let kde = random_model(&mut rng, dim, n, q, (0.5, 2.0), ErrorKernelForm::Normalized);
        let eps = rng.range(0.05, 0.3);
        let coreset = CoresetKde::build(&kde, eps).unwrap();
        merged += coreset.source_rows() - coreset.rows();
        worst = worst.max(check_certificate(&kde, &coreset, &mut rng, 200, true, seed));
    }
    // The certificate must not be bought by refusing every merge.
    assert!(merged > 0, "no model merged a single pair");
    assert!(worst <= 1.0, "worst error/certificate ratio {worst}");
}

/// `PaperFaithful` kernels are not a convolution of the error-free
/// kernel, so the certificate covers their error-free queries only.
#[test]
fn coreset_certificate_holds_on_every_subspace_paper_faithful() {
    for case in 0..12u64 {
        let seed = 0xFA17_0000 + case;
        let mut rng = Rng::new(seed);
        let dim = 2 + rng.below(3);
        let n = 80 + rng.below(150);
        let q = 16 + rng.below(24);
        let kde = random_model(
            &mut rng,
            dim,
            n,
            q,
            (0.0, 2.0),
            ErrorKernelForm::PaperFaithful,
        );
        let coreset = CoresetKde::build(&kde, rng.range(0.05, 0.3)).unwrap();
        check_certificate(&kde, &coreset, &mut rng, 24, false, seed);
    }
}

#[test]
fn coreset_is_deterministic_across_rebuilds() {
    for case in 0..4u64 {
        let seed = 0xDE7E_3713 + case;
        let mut rng = Rng::new(seed);
        let dim = 1 + rng.below(3);
        let kde = random_model(
            &mut rng,
            dim,
            120,
            24,
            (0.0, 0.5),
            ErrorKernelForm::Normalized,
        );
        let a = CoresetKde::build(&kde, 0.1).unwrap();
        let b = CoresetKde::build(&kde, 0.1).unwrap();
        assert_eq!(a.rows(), b.rows(), "case seed {seed}");
        for _ in 0..12 {
            let (x, errors) = random_query(&mut rng, dim);
            let sub = random_subspace(&mut rng, dim);
            let first = a
                .inner()
                .density_subspace_with_error(&x, errors.as_deref(), sub)
                .unwrap();
            let rebuilt = b
                .inner()
                .density_subspace_with_error(&x, errors.as_deref(), sub)
                .unwrap();
            assert_eq!(
                first.to_bits(),
                rebuilt.to_bits(),
                "coreset not stable across rebuilds, case seed {seed}"
            );
        }
    }
}
