//! Greedy non-overlapping subspace selection (the tail of Fig. 3).
//!
//! "Add set with highest local accuracy in L to N; remove all sets in L
//! which overlap with sets in N" — repeated until L is exhausted or an
//! optional cap `p` is reached.

use crate::rollup::DiscriminativeSubspace;
use std::cmp::Ordering;

/// Selects non-overlapping subspaces in descending accuracy order.
///
/// Ties on accuracy are broken by smaller subspace first, then by the
/// subspace's canonical (bitmask) order, then by input order, so
/// selection is deterministic.
///
/// Each round takes the best remaining qualifier and drops every one
/// that overlaps it, so a `d`-dimensional space takes at most `d` passes
/// over a shrinking list.
pub fn select_non_overlapping(
    mut qualifying: Vec<DiscriminativeSubspace>,
    max_selected: Option<usize>,
) -> Vec<DiscriminativeSubspace> {
    let mut selected: Vec<DiscriminativeSubspace> = Vec::new();
    while selected.len() < max_selected.unwrap_or(usize::MAX) {
        // `min_by` keeps the first of equal elements.
        let Some((best, _)) = qualifying
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| rank(a, b))
        else {
            break;
        };
        let pick = qualifying.remove(best);
        qualifying.retain(|c| !c.subspace.overlaps(pick.subspace));
        selected.push(pick);
    }
    selected
}

/// `Less` when `a` is preferred: higher accuracy, then fewer dimensions,
/// then the lower bitmask.
fn rank(a: &DiscriminativeSubspace, b: &DiscriminativeSubspace) -> Ordering {
    b.accuracy
        .partial_cmp(&a.accuracy)
        .unwrap_or(Ordering::Equal)
        .then(a.subspace.cardinality().cmp(&b.subspace.cardinality()))
        .then(a.subspace.cmp(&b.subspace))
}

/// A stable sort, then one scan that keeps each qualifier overlapping
/// none kept before it: the reference the greedy rounds are checked
/// against.
#[cfg(test)]
pub(crate) fn reference_select(
    mut qualifying: Vec<DiscriminativeSubspace>,
    max_selected: Option<usize>,
) -> Vec<DiscriminativeSubspace> {
    qualifying.sort_by(|a, b| {
        b.accuracy
            .partial_cmp(&a.accuracy)
            .unwrap_or(Ordering::Equal)
            .then(a.subspace.cardinality().cmp(&b.subspace.cardinality()))
            .then(a.subspace.cmp(&b.subspace))
    });
    let mut selected: Vec<DiscriminativeSubspace> = Vec::new();
    for cand in qualifying {
        if let Some(p) = max_selected {
            if selected.len() >= p {
                break;
            }
        }
        if selected.iter().all(|s| !s.subspace.overlaps(cand.subspace)) {
            selected.push(cand);
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use udm_core::{ClassLabel, Subspace};

    fn ds(dims: &[usize], acc: f64, label: u32) -> DiscriminativeSubspace {
        DiscriminativeSubspace {
            subspace: Subspace::from_dims(dims).unwrap(),
            accuracy: acc,
            label: ClassLabel(label),
        }
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(select_non_overlapping(vec![], None).is_empty());
    }

    #[test]
    fn highest_accuracy_first() {
        let sel = select_non_overlapping(vec![ds(&[0], 0.7, 0), ds(&[1], 0.9, 1)], None);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].label, ClassLabel(1));
    }

    #[test]
    fn overlapping_lower_accuracy_removed() {
        let sel = select_non_overlapping(
            vec![
                ds(&[0, 1], 0.95, 0),
                ds(&[1, 2], 0.90, 1),
                ds(&[3], 0.85, 1),
            ],
            None,
        );
        // {1,2} overlaps the winner {0,1}; {3} survives.
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].subspace, Subspace::from_dims(&[0, 1]).unwrap());
        assert_eq!(sel[1].subspace, Subspace::from_dims(&[3]).unwrap());
    }

    #[test]
    fn cap_p_limits_selection() {
        let sel = select_non_overlapping(
            vec![ds(&[0], 0.9, 0), ds(&[1], 0.8, 0), ds(&[2], 0.7, 1)],
            Some(2),
        );
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[1].subspace, Subspace::singleton(1).unwrap());
    }

    #[test]
    fn tie_break_prefers_smaller_subspace() {
        let sel = select_non_overlapping(vec![ds(&[0, 1], 0.9, 0), ds(&[2], 0.9, 1)], Some(1));
        assert_eq!(sel[0].subspace, Subspace::singleton(2).unwrap());
    }

    #[test]
    fn deterministic_under_permutation() {
        let a = vec![ds(&[0], 0.8, 0), ds(&[1], 0.8, 1), ds(&[2], 0.6, 0)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(
            select_non_overlapping(a, None),
            select_non_overlapping(b, None)
        );
    }

    #[test]
    fn disjoint_sets_all_selected() {
        let sel = select_non_overlapping(
            vec![ds(&[0], 0.9, 0), ds(&[1], 0.8, 1), ds(&[2, 3], 0.7, 0)],
            None,
        );
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn full_tie_keeps_input_order() {
        // Same subspace and accuracy, different labels: the first wins.
        let sel = select_non_overlapping(vec![ds(&[1], 0.8, 1), ds(&[1], 0.8, 0)], None);
        assert_eq!(sel, vec![ds(&[1], 0.8, 1)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn greedy_rounds_match_sort_then_scan(
            entries in proptest::collection::vec((0u64..64, 0usize..4, 0u32..3), 0..40),
            max_selected in proptest::option::of(1usize..=4),
        ) {
            // Six dimensions and four accuracy levels: overlaps, equal
            // cardinalities, tied accuracies and duplicate subspaces
            // (with differing labels) are all common.
            let qualifying: Vec<DiscriminativeSubspace> = entries
                .iter()
                .map(|&(bits, level, label)| DiscriminativeSubspace {
                    subspace: Subspace::from_bits(bits),
                    accuracy: [0.6, 0.7, 0.8, 0.9][level],
                    label: ClassLabel(label),
                })
                .collect();
            proptest::prop_assert_eq!(
                select_non_overlapping(qualifying.clone(), max_selected),
                reference_select(qualifying, max_selected)
            );
        }
    }
}
