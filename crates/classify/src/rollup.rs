//! The Apriori-style subspace roll-up of Figure 3.
//!
//! Starting from all 1-dimensional subspaces (`C_1`), each level keeps the
//! subspaces in which some class exceeds the accuracy threshold (`L_i`)
//! and generates the next candidate level by joining with `L_1`
//! (`C_{i+1} = L_i ⋈ L_1`). The join construction itself enforces the
//! paper's roll-up requirement that an `(i+1)`-dimensional candidate has
//! at least one qualifying `i`-dimensional subset.

use crate::config::ClassifierConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use udm_core::{ClassLabel, Result, Subspace};

/// Supplies local accuracies `A(x, S, l_i)` for a fixed test point `x`.
///
/// Implemented by the classifier model (backed by micro-cluster densities,
/// Eq. 11); test code substitutes table-driven fakes.
pub trait AccuracyOracle {
    /// The class labels `l_1 … l_k`, in a stable order.
    fn labels(&self) -> &[ClassLabel];

    /// `A(x, S, l)` for every label, aligned with [`Self::labels`].
    fn accuracies(&self, subspace: Subspace) -> Result<Vec<f64>>;
}

/// A subspace that cleared the threshold, with its dominant class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscriminativeSubspace {
    /// The qualifying set of dimensions.
    pub subspace: Subspace,
    /// The best local accuracy over classes, `max_i A(x, S, l_i)`.
    pub accuracy: f64,
    /// The dominant class `dom(x, S)` (Eq. 12).
    pub label: ClassLabel,
}

/// Engineering guards on the roll-up (see [`ClassifierConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RollupLimits {
    /// Stop after subspaces of this many dimensions.
    pub max_dim: Option<usize>,
    /// Evaluate at most this many candidates per level.
    pub max_candidates_per_level: Option<usize>,
}

impl RollupLimits {
    /// Extracts the limits from a classifier configuration.
    pub fn from_config(config: &ClassifierConfig) -> Self {
        RollupLimits {
            max_dim: config.max_subspace_dim,
            max_candidates_per_level: config.max_candidates_per_level,
        }
    }
}

/// Result of a roll-up: all qualifying subspaces plus the best evaluated
/// singleton (used as a fallback when nothing qualifies).
#[derive(Debug, Clone, PartialEq)]
pub struct RollupOutcome {
    /// `L = ∪_i L_i`, every subspace that cleared the threshold.
    pub qualifying: Vec<DiscriminativeSubspace>,
    /// The best singleton subspace even if below threshold (`None` only
    /// for zero-dimensional data).
    pub best_singleton: Option<DiscriminativeSubspace>,
    /// Number of accuracy evaluations performed (one per candidate
    /// subspace) — the cost driver behind Fig. 10's dimensionality sweep.
    pub candidates_evaluated: usize,
}

fn dominant(labels: &[ClassLabel], accs: &[f64]) -> Option<(ClassLabel, f64)> {
    let mut best: Option<(ClassLabel, f64)> = None;
    for (&l, &a) in labels.iter().zip(accs.iter()) {
        if !a.is_finite() {
            continue;
        }
        match best {
            Some((_, b)) if a <= b => {}
            _ => best = Some((l, a)),
        }
    }
    best
}

/// `C_{i+1} = L_i ⋈ L_1`: every `s ∪ {b}` with `s` in `level` and `{b}`
/// in `l1`, `b ∉ s`, yielded once each in ascending bitmask order.
///
/// `level` must be ascending. Then for each `{b}` the members of `level`
/// without `b`, mapped to `s ∪ {b}`, are ascending too (adding the same
/// absent bit preserves the order of the masks), so the join is the
/// k-way merge of `|L_1|` sorted streams. The heap holds one head per
/// stream; equal heads of different streams pop back to back and all
/// but the first are dropped. Candidates are produced on demand, so a
/// per-level cap stops the merge after the candidates it keeps.
struct LevelJoin<'a> {
    level: &'a [Subspace],
    l1: &'a [Subspace],
    /// Per stream, the index in `level` of the next member to try.
    cursors: Vec<usize>,
    heads: BinaryHeap<Reverse<(Subspace, usize)>>,
    last: Option<Subspace>,
}

impl<'a> LevelJoin<'a> {
    fn new(level: &'a [Subspace], l1: &'a [Subspace]) -> Self {
        debug_assert!(level.windows(2).all(|w| w[0] < w[1]), "level not ascending");
        let mut join = LevelJoin {
            level,
            l1,
            cursors: vec![0; l1.len()],
            heads: BinaryHeap::with_capacity(l1.len()),
            last: None,
        };
        for stream in 0..l1.len() {
            join.advance(stream);
        }
        join
    }

    /// Pushes the next head of `stream`, skipping the members of `level`
    /// that already contain its dimension.
    fn advance(&mut self, stream: usize) {
        let one = self.l1[stream];
        while let Some(&s) = self.level.get(self.cursors[stream]) {
            self.cursors[stream] += 1;
            if let Some(joined) = s.join(one) {
                self.heads.push(Reverse((joined, stream)));
                return;
            }
        }
    }
}

impl Iterator for LevelJoin<'_> {
    type Item = Subspace;

    fn next(&mut self) -> Option<Subspace> {
        while let Some(Reverse((candidate, stream))) = self.heads.pop() {
            self.advance(stream);
            if self.last != Some(candidate) {
                self.last = Some(candidate);
                return Some(candidate);
            }
        }
        None
    }
}

/// Runs the bottom-up roll-up of Fig. 3 for one test instance.
///
/// `dimensionality` is the data dimensionality `d`; `threshold` is `a`.
///
/// # Errors
///
/// [`udm_core::UdmError::SubspaceCapacityExceeded`] when `d` exceeds
/// [`Subspace::MAX_DIMS`]; otherwise the first error of the oracle.
pub fn rollup<O: AccuracyOracle>(
    oracle: &O,
    dimensionality: usize,
    threshold: f64,
    limits: RollupLimits,
) -> Result<RollupOutcome> {
    rollup_by(
        oracle,
        dimensionality,
        threshold,
        limits,
        |level, l1, cap| LevelJoin::new(level, l1).take(cap).collect(),
    )
}

/// The roll-up with its candidate generation passed in: `join(L_i, L_1,
/// cap)` returns the first `cap` candidates of `L_i ⋈ L_1` in ascending
/// order, without duplicates.
fn rollup_by<O, J>(
    oracle: &O,
    dimensionality: usize,
    threshold: f64,
    limits: RollupLimits,
    join: J,
) -> Result<RollupOutcome>
where
    O: AccuracyOracle,
    J: Fn(&[Subspace], &[Subspace], usize) -> Vec<Subspace>,
{
    let _span_rollup = udm_observe::span!("rollup");
    // Every subspace of the data must fit the bitmask; fail before the
    // first evaluation rather than roll up a prefix of the dimensions.
    Subspace::full(dimensionality)?;
    let labels = oracle.labels().to_vec();
    let mut qualifying: Vec<DiscriminativeSubspace> = Vec::new();
    let mut best_singleton: Option<DiscriminativeSubspace> = None;
    let mut candidates_evaluated = 0usize;
    // Apriori bookkeeping, tallied locally and published once at the end:
    // a candidate with a dominant class whose accuracy misses `a` is a
    // threshold rejection; any evaluated candidate that does not qualify
    // is pruned from further expansion.
    let mut threshold_rejects: u64 = 0;
    let mut pruned: u64 = 0;

    // Level 1: all singletons.
    let mut l1: Vec<Subspace> = Vec::new();
    let mut current_level: Vec<Subspace> = Vec::new();
    for dim in 0..dimensionality {
        let s = Subspace::singleton(dim)?;
        let accs = oracle.accuracies(s)?;
        candidates_evaluated += 1;
        let mut qualified = false;
        if let Some((label, accuracy)) = dominant(&labels, &accs) {
            let ds = DiscriminativeSubspace {
                subspace: s,
                accuracy,
                label,
            };
            if best_singleton
                .map(|b| accuracy > b.accuracy)
                .unwrap_or(true)
            {
                best_singleton = Some(ds);
            }
            if accuracy > threshold {
                qualifying.push(ds);
                l1.push(s);
                current_level.push(s);
                qualified = true;
            } else {
                threshold_rejects += 1;
            }
        }
        if !qualified {
            pruned += 1;
        }
    }

    // Levels 2..: C_{i+1} = L_i ⋈ L_1. Each level is evaluated in
    // ascending order, so `next_level` comes out ascending as well.
    let cap = limits.max_candidates_per_level.unwrap_or(usize::MAX);
    let mut level_dim = 1usize;
    while !current_level.is_empty() {
        level_dim += 1;
        if let Some(max) = limits.max_dim {
            if level_dim > max {
                break;
            }
        }
        let mut next_level = Vec::new();
        for s in join(&current_level, &l1, cap) {
            let accs = oracle.accuracies(s)?;
            candidates_evaluated += 1;
            let mut qualified = false;
            if let Some((label, accuracy)) = dominant(&labels, &accs) {
                if accuracy > threshold {
                    qualifying.push(DiscriminativeSubspace {
                        subspace: s,
                        accuracy,
                        label,
                    });
                    next_level.push(s);
                    qualified = true;
                } else {
                    threshold_rejects += 1;
                }
            }
            if !qualified {
                pruned += 1;
            }
        }
        current_level = next_level;
    }

    udm_observe::counter_add!(
        "udm_classify_rollup_candidates_total",
        u64::try_from(candidates_evaluated).unwrap_or(u64::MAX)
    );
    udm_observe::counter_add!("udm_classify_rollup_pruned_total", pruned);
    udm_observe::counter_add!(
        "udm_classify_rollup_threshold_rejects_total",
        threshold_rejects
    );

    Ok(RollupOutcome {
        qualifying,
        best_singleton,
        candidates_evaluated,
    })
}

/// The roll-up with the join built in a `BTreeSet` of every `s ∪ {b}`,
/// cut to the cap afterwards: the reference the merge is checked
/// against.
#[cfg(test)]
pub(crate) fn reference_rollup<O: AccuracyOracle>(
    oracle: &O,
    dimensionality: usize,
    threshold: f64,
    limits: RollupLimits,
) -> Result<RollupOutcome> {
    rollup_by(
        oracle,
        dimensionality,
        threshold,
        limits,
        |level, l1, cap| {
            let mut candidates = std::collections::BTreeSet::new();
            for &s in level {
                for &one in l1 {
                    if let Some(joined) = s.join(one) {
                        candidates.insert(joined);
                    }
                }
            }
            candidates.into_iter().take(cap).collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Table-driven oracle: accuracy of label 0 per subspace; label 1 gets
    /// the complement.
    struct TableOracle {
        labels: Vec<ClassLabel>,
        table: HashMap<u64, f64>,
        default: f64,
    }

    impl AccuracyOracle for TableOracle {
        fn labels(&self) -> &[ClassLabel] {
            &self.labels
        }
        fn accuracies(&self, s: Subspace) -> Result<Vec<f64>> {
            let a = *self.table.get(&s.bits()).unwrap_or(&self.default);
            Ok(vec![a, 1.0 - a])
        }
    }

    fn oracle(entries: &[(&[usize], f64)], default: f64) -> TableOracle {
        TableOracle {
            labels: vec![ClassLabel(0), ClassLabel(1)],
            table: entries
                .iter()
                .map(|(dims, a)| (Subspace::from_dims(dims).unwrap().bits(), *a))
                .collect(),
            default,
        }
    }

    #[test]
    fn finds_qualifying_singletons() {
        let o = oracle(&[(&[0], 0.9), (&[1], 0.3)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        // {0} qualifies with acc 0.9 for label 0; {1} has max(0.3, 0.7)=0.7 < 0.8
        assert_eq!(out.qualifying.len(), 1);
        assert_eq!(out.qualifying[0].subspace, Subspace::singleton(0).unwrap());
        assert_eq!(out.qualifying[0].label, ClassLabel(0));
    }

    #[test]
    fn complement_class_can_dominate() {
        let o = oracle(&[(&[0], 0.1)], 0.5); // label 1 gets 0.9
        let out = rollup(&o, 1, 0.8, RollupLimits::default()).unwrap();
        assert_eq!(out.qualifying.len(), 1);
        assert_eq!(out.qualifying[0].label, ClassLabel(1));
        assert!((out.qualifying[0].accuracy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn joins_build_second_level() {
        // Both singletons qualify; pair {0,1} qualifies higher still.
        let o = oracle(&[(&[0], 0.85), (&[1], 0.85), (&[0, 1], 0.95)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        let subspaces: Vec<_> = out.qualifying.iter().map(|d| d.subspace).collect();
        assert!(subspaces.contains(&Subspace::from_dims(&[0, 1]).unwrap()));
        assert_eq!(out.qualifying.len(), 3);
    }

    #[test]
    fn no_expansion_from_non_qualifying_singletons() {
        // Pair {0,1} would have high accuracy but neither singleton
        // qualifies, so the roll-up never reaches it (Apriori pruning).
        let o = oracle(&[(&[0], 0.6), (&[1], 0.6), (&[0, 1], 0.99)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        assert!(out.qualifying.is_empty());
        // fallback still reports the best singleton (0.6)
        let bs = out.best_singleton.unwrap();
        assert!((bs.accuracy - 0.6).abs() < 1e-12);
    }

    #[test]
    fn best_singleton_tracked_even_when_qualifying() {
        let o = oracle(&[(&[0], 0.95), (&[1], 0.85)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        assert_eq!(
            out.best_singleton.unwrap().subspace,
            Subspace::singleton(0).unwrap()
        );
    }

    #[test]
    fn max_dim_limit_stops_expansion() {
        let o = oracle(&[], 0.95); // everything qualifies
        let limited = rollup(
            &o,
            4,
            0.8,
            RollupLimits {
                max_dim: Some(2),
                max_candidates_per_level: None,
            },
        )
        .unwrap();
        let max_card = limited
            .qualifying
            .iter()
            .map(|d| d.subspace.cardinality())
            .max()
            .unwrap();
        assert_eq!(max_card, 2);
    }

    #[test]
    fn unlimited_rollup_explores_all_levels() {
        let o = oracle(&[], 0.95);
        let out = rollup(&o, 4, 0.8, RollupLimits::default()).unwrap();
        // all non-empty subsets of 4 dims = 15
        assert_eq!(out.qualifying.len(), 15);
        assert_eq!(out.candidates_evaluated, 15);
    }

    #[test]
    fn candidate_cap_bounds_work_per_level() {
        let o = oracle(&[], 0.95);
        let out = rollup(
            &o,
            6,
            0.8,
            RollupLimits {
                max_dim: None,
                max_candidates_per_level: Some(3),
            },
        )
        .unwrap();
        // 6 singletons evaluated, then ≤3 per level
        assert!(out.candidates_evaluated < 63);
    }

    #[test]
    fn zero_dimensional_data() {
        let o = oracle(&[], 0.9);
        let out = rollup(&o, 0, 0.5, RollupLimits::default()).unwrap();
        assert!(out.qualifying.is_empty());
        assert!(out.best_singleton.is_none());
        assert_eq!(out.candidates_evaluated, 0);
    }

    #[test]
    fn data_wider_than_the_bitmask_is_an_error() {
        // More dimensions than the bitmask holds: fail before the first
        // evaluation instead of rolling up the first 64.
        struct Counting(std::cell::Cell<usize>, Vec<ClassLabel>);
        impl AccuracyOracle for Counting {
            fn labels(&self) -> &[ClassLabel] {
                &self.1
            }
            fn accuracies(&self, _: Subspace) -> Result<Vec<f64>> {
                self.0.set(self.0.get() + 1);
                Ok(vec![0.9])
            }
        }
        let o = Counting(std::cell::Cell::new(0), vec![ClassLabel(0)]);
        for d in [Subspace::MAX_DIMS + 1, Subspace::MAX_DIMS + 2] {
            let err = rollup(&o, d, 0.5, RollupLimits::default()).unwrap_err();
            assert_eq!(
                err.to_string(),
                udm_core::UdmError::SubspaceCapacityExceeded { dim: d - 1 }.to_string()
            );
        }
        assert_eq!(o.0.get(), 0);
        // 64 dims still fit: every singleton, the last included.
        let limits = RollupLimits {
            max_dim: Some(1),
            max_candidates_per_level: None,
        };
        let out = rollup(&o, Subspace::MAX_DIMS, 0.5, limits).unwrap();
        assert_eq!(out.candidates_evaluated, Subspace::MAX_DIMS);
        assert_eq!(
            out.qualifying.last().unwrap().subspace,
            Subspace::singleton(Subspace::MAX_DIMS - 1).unwrap()
        );
    }

    #[test]
    fn threshold_is_strict() {
        let o = oracle(&[(&[0], 0.8)], 0.0);
        let out = rollup(&o, 1, 0.8, RollupLimits::default()).unwrap();
        assert!(out.qualifying.is_empty()); // A > a, not >=
    }

    #[test]
    fn max_extension_oracle_reaches_exactly_the_qualifying_powerset() {
        // Oracle where A(S) = max over singletons in S of a per-dimension
        // base accuracy. Then L1 = qualifying singletons, and because the
        // join only ever adds dimensions from L1, the reachable set is
        // exactly the non-empty powerset of L1: 2^m − 1 subspaces.
        struct MaxOracle {
            labels: Vec<ClassLabel>,
            base: Vec<f64>,
        }
        impl AccuracyOracle for MaxOracle {
            fn labels(&self) -> &[ClassLabel] {
                &self.labels
            }
            fn accuracies(&self, s: Subspace) -> Result<Vec<f64>> {
                let a = s
                    .dims()
                    .map(|d| self.base[d])
                    .fold(f64::NEG_INFINITY, f64::max);
                Ok(vec![a])
            }
        }
        let base = vec![0.9, 0.3, 0.85, 0.1, 0.95];
        let threshold = 0.8;
        let m = base.iter().filter(|&&a| a > threshold).count();
        let o = MaxOracle {
            labels: vec![ClassLabel(0)],
            base,
        };
        let out = rollup(&o, 5, threshold, RollupLimits::default()).unwrap();
        assert_eq!(out.qualifying.len(), (1 << m) - 1);
        for q in &out.qualifying {
            assert!(q.accuracy > threshold);
        }
    }

    #[test]
    fn nan_accuracies_are_skipped() {
        struct NanOracle {
            labels: Vec<ClassLabel>,
        }
        impl AccuracyOracle for NanOracle {
            fn labels(&self) -> &[ClassLabel] {
                &self.labels
            }
            fn accuracies(&self, _: Subspace) -> Result<Vec<f64>> {
                Ok(vec![f64::NAN, 0.9])
            }
        }
        let o = NanOracle {
            labels: vec![ClassLabel(0), ClassLabel(1)],
        };
        let out = rollup(&o, 1, 0.5, RollupLimits::default()).unwrap();
        assert_eq!(out.qualifying.len(), 1);
        assert_eq!(out.qualifying[0].label, ClassLabel(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    struct RandomOracle {
        labels: Vec<ClassLabel>,
        table: HashMap<u64, f64>,
    }

    impl AccuracyOracle for RandomOracle {
        fn labels(&self) -> &[ClassLabel] {
            &self.labels
        }
        fn accuracies(&self, s: Subspace) -> Result<Vec<f64>> {
            // Deterministic pseudo-random accuracy per subspace.
            let cached = self.table.get(&s.bits()).copied();
            let a = cached.unwrap_or_else(|| {
                let mut z = s.bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 29;
                (z % 1000) as f64 / 1000.0
            });
            Ok(vec![a, 1.0 - a])
        }
    }

    /// Seeded pseudo-random accuracies per subspace and label, NaN about
    /// one time in 32, and a log of every subspace it is asked about.
    struct SeededOracle {
        labels: Vec<ClassLabel>,
        seed: u64,
        calls: std::cell::RefCell<Vec<Subspace>>,
    }

    impl SeededOracle {
        fn new(labels: usize, seed: u64) -> Self {
            SeededOracle {
                labels: (0..labels as u32).map(ClassLabel).collect(),
                seed,
                calls: std::cell::RefCell::new(Vec::new()),
            }
        }
    }

    impl AccuracyOracle for SeededOracle {
        fn labels(&self) -> &[ClassLabel] {
            &self.labels
        }
        fn accuracies(&self, s: Subspace) -> Result<Vec<f64>> {
            self.calls.borrow_mut().push(s);
            Ok((0..self.labels.len() as u64)
                .map(|l| {
                    let mut z = (self.seed ^ s.bits().rotate_left(17) ^ l)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z ^= z >> 31;
                    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z ^= z >> 29;
                    if z & 31 == 0 {
                        f64::NAN
                    } else {
                        (z >> 11) as f64 / (1u64 << 53) as f64
                    }
                })
                .collect())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn merge_join_matches_the_btreeset_join(
            (dims, labels, seed) in (1usize..=20, 1usize..=3, 0u64..u64::MAX),
            (keep_most, t) in (0usize..2, 0.0f64..1.0),
            (cap_pick, max_dim) in (0usize..5, option::of(2usize..=5)),
        ) {
            // A low threshold lets most subspaces qualify (at least 80%
            // with one label), a high one few.
            let thr = if keep_most == 1 { 0.05 + 0.15 * t } else { 0.6 + 0.35 * t };
            let cap = [None, Some(1), Some(3), Some(17), Some(100)][cap_pick];
            // Without either guard the roll-up may walk the whole
            // lattice, 2^20 subspaces at 20 dims; 12 dims keep it at 4095.
            let dims = if cap.is_none() && max_dim.is_none() { dims.min(12) } else { dims };
            let limits = RollupLimits { max_dim, max_candidates_per_level: cap };
            let merged = SeededOracle::new(labels, seed);
            let reference = SeededOracle::new(labels, seed);
            let got = rollup(&merged, dims, thr, limits).unwrap();
            let want = reference_rollup(&reference, dims, thr, limits).unwrap();
            prop_assert_eq!(got.candidates_evaluated, want.candidates_evaluated);
            prop_assert_eq!(got.best_singleton, want.best_singleton);
            prop_assert!(got.qualifying == want.qualifying, "qualifying differ");
            // The oracle sees the same subspaces in the same order, so
            // an oracle error surfaces at the same candidate.
            prop_assert!(merged.calls == reference.calls, "oracle call order differs");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_qualifying_subspace_clears_the_threshold(
            dims in 1usize..8,
            thr in 0.5f64..0.95,
        ) {
            let o = RandomOracle { labels: vec![ClassLabel(0), ClassLabel(1)], table: HashMap::new() };
            let out = rollup(&o, dims, thr, RollupLimits::default()).unwrap();
            for q in &out.qualifying {
                prop_assert!(q.accuracy > thr);
                prop_assert!(!q.subspace.is_empty());
                prop_assert!(q.subspace.validate_for(dims).is_ok());
            }
            // No duplicates.
            let mut seen: Vec<u64> = out.qualifying.iter().map(|q| q.subspace.bits()).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(seen.len(), before);
        }

        #[test]
        fn apriori_property_holds(
            dims in 2usize..7,
            thr in 0.5f64..0.9,
        ) {
            // Every qualifying subspace with |S| ≥ 2 must contain at least
            // one qualifying (|S|−1)-subset — the roll-up's construction
            // invariant.
            let o = RandomOracle { labels: vec![ClassLabel(0), ClassLabel(1)], table: HashMap::new() };
            let out = rollup(&o, dims, thr, RollupLimits::default()).unwrap();
            let qualifying: std::collections::HashSet<u64> =
                out.qualifying.iter().map(|q| q.subspace.bits()).collect();
            for q in &out.qualifying {
                if q.subspace.cardinality() >= 2 {
                    let has_qualifying_subset = q
                        .subspace
                        .proper_subsets_one_smaller()
                        .any(|sub| qualifying.contains(&sub.bits()));
                    prop_assert!(has_qualifying_subset, "{} lacks a qualifying subset", q.subspace);
                }
            }
        }
    }
}
