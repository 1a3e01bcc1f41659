//! Exact Jaccard similarity over sorted profiles.
//!
//! `J(P_u, P_v) = |P_u ∩ P_v| / |P_u ∪ P_v|` — the similarity function used
//! throughout the paper (§II-A). Profiles are strictly increasing slices
//! (the [`cnc_dataset::Dataset`] invariant), so the intersection is a linear
//! merge with no hashing and no allocation.

use cnc_dataset::ItemId;

/// Namespace struct for the exact Jaccard functions.
///
/// All methods are associated functions so call sites read
/// `Jaccard::similarity(a, b)`.
pub struct Jaccard;

/// Size ratio beyond which the galloping intersection beats the linear
/// merge: galloping costs `O(|small| · log |large|)`, the merge
/// `O(|small| + |large|)`, so the switch pays once the larger side is a
/// multiple of the smaller (the `RawKernel` hot path hits this whenever a
/// heavy user meets light ones — the merge-bound Raw row of the kernels
/// bench).
const GALLOP_CUTOFF: usize = 8;

impl Jaccard {
    /// Size of the intersection of two strictly increasing slices.
    ///
    /// Balanced inputs take the branch-light linear merge; skewed inputs
    /// (one side more than `GALLOP_CUTOFF`× the other) gallop the
    /// smaller side through the larger one — exponential probe then
    /// binary search, resuming where the previous item landed. The count
    /// is exact either way, so every similarity stays bit-identical to
    /// the merge path (locked by the proptests below).
    #[inline]
    pub fn intersection(a: &[ItemId], b: &[ItemId]) -> usize {
        if a.len() * GALLOP_CUTOFF < b.len() {
            Self::intersection_gallop(a, b)
        } else if b.len() * GALLOP_CUTOFF < a.len() {
            Self::intersection_gallop(b, a)
        } else {
            Self::intersection_merge(a, b)
        }
    }

    /// The linear-merge intersection (the seed implementation) — kept
    /// public as the reference the galloping path is property-tested
    /// against.
    #[inline]
    pub fn intersection_merge(a: &[ItemId], b: &[ItemId]) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            count += usize::from(x == y);
            // Branch-light merge: advance the smaller side (both on equal).
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        count
    }

    /// Galloping (exponential + binary search) intersection for skewed
    /// sizes: for each item of `small` in order, the first candidate
    /// position in `large` is found by doubling steps from where the last
    /// item landed, then pinned down by binary search within the
    /// overshot window.
    fn intersection_gallop(small: &[ItemId], large: &[ItemId]) -> usize {
        let mut count = 0usize;
        let mut base = 0usize;
        for &x in small {
            if base >= large.len() {
                break;
            }
            // Exponential probe: after it, the first element ≥ x lies in
            // `large[base + step/2 .. base + step]` (or past the end).
            let mut step = 1usize;
            while base + step < large.len() && large[base + step] < x {
                step <<= 1;
            }
            let lo = base + step / 2;
            let hi = (base + step + 1).min(large.len());
            let at = lo + large[lo..hi].partition_point(|&y| y < x);
            if at < large.len() && large[at] == x {
                count += 1;
                base = at + 1;
            } else {
                base = at;
            }
        }
        count
    }

    /// Size of the union, `|a| + |b| - |a ∩ b|`.
    #[inline]
    pub fn union(a: &[ItemId], b: &[ItemId]) -> usize {
        a.len() + b.len() - Self::intersection(a, b)
    }

    /// Exact Jaccard similarity in `[0, 1]`. Two empty sets have similarity 0
    /// (the convention the paper's datasets make unreachable via the
    /// 20-rating filter, but which keeps the function total).
    #[inline]
    pub fn similarity(a: &[ItemId], b: &[ItemId]) -> f64 {
        let inter = Self::intersection(a, b);
        let union = a.len() + b.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_have_similarity_one() {
        let a = [1, 5, 9, 12];
        assert_eq!(Jaccard::similarity(&a, &a), 1.0);
    }

    #[test]
    fn disjoint_sets_have_similarity_zero() {
        assert_eq!(Jaccard::similarity(&[1, 3], &[2, 4]), 0.0);
    }

    #[test]
    fn paper_example_section_2a() {
        // P_u = {i1, i2, i3}, P_v = {i3, i4, i5}: J = 1/5.
        let pu = [1, 2, 3];
        let pv = [3, 4, 5];
        assert!((Jaccard::similarity(&pu, &pv) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_sets() {
        assert_eq!(Jaccard::similarity(&[], &[]), 0.0);
        assert_eq!(Jaccard::similarity(&[1], &[]), 0.0);
        assert_eq!(Jaccard::intersection(&[], &[1, 2]), 0);
    }

    #[test]
    fn intersection_counts_common_elements() {
        assert_eq!(Jaccard::intersection(&[1, 2, 3, 7, 9], &[2, 3, 4, 9]), 3);
    }

    #[test]
    fn union_matches_inclusion_exclusion() {
        let a = [1, 2, 3];
        let b = [3, 4];
        assert_eq!(Jaccard::union(&a, &b), 4);
    }

    #[test]
    fn subset_similarity() {
        let a = [1, 2, 3, 4];
        let b = [2, 3];
        assert!((Jaccard::similarity(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn symmetry_on_random_like_inputs() {
        let a = [0, 4, 8, 15, 16, 23, 42];
        let b = [4, 15, 21, 42, 99];
        assert_eq!(Jaccard::similarity(&a, &b), Jaccard::similarity(&b, &a));
    }

    #[test]
    fn galloping_kicks_in_on_skewed_sizes_and_stays_exact() {
        // 3 items vs 100: well past the cutoff on either side.
        let small = [7u32, 40, 77];
        let large: Vec<u32> = (0..100).collect();
        assert_eq!(Jaccard::intersection(&small, &large), 3);
        assert_eq!(Jaccard::intersection(&large, &small), 3);
        assert_eq!(Jaccard::intersection_merge(&small, &large), 3);
        // Disjoint skewed sets, matches at both ends, empty small side.
        let high: Vec<u32> = (1_000..1_100).collect();
        assert_eq!(Jaccard::intersection(&small, &high), 0);
        assert_eq!(Jaccard::intersection(&[0, 99], &large), 2);
        assert_eq!(Jaccard::intersection(&[], &large), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_set() -> impl Strategy<Value = Vec<ItemId>> {
        proptest::collection::btree_set(0u32..500, 0..60)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn similarity_is_in_unit_interval(a in sorted_set(), b in sorted_set()) {
            let s = Jaccard::similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn similarity_is_symmetric(a in sorted_set(), b in sorted_set()) {
            prop_assert_eq!(Jaccard::similarity(&a, &b), Jaccard::similarity(&b, &a));
        }

        #[test]
        fn intersection_matches_naive(a in sorted_set(), b in sorted_set()) {
            let naive = a.iter().filter(|x| b.contains(x)).count();
            prop_assert_eq!(Jaccard::intersection(&a, &b), naive);
        }

        /// The galloping dispatch is bit-identical to the linear merge on
        /// deliberately skewed inputs (small set vs a large one), in both
        /// argument orders — the seed semantics the RawKernel hot path
        /// must keep.
        #[test]
        fn galloping_matches_linear_merge_on_skewed_sets(
            small in proptest::collection::btree_set(0u32..4_000, 0..12)
                .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
            large in proptest::collection::btree_set(0u32..4_000, 150..400)
                .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        ) {
            let merge = Jaccard::intersection_merge(&small, &large);
            prop_assert_eq!(Jaccard::intersection(&small, &large), merge);
            prop_assert_eq!(Jaccard::intersection(&large, &small), merge);
            // The similarities built on top stay bit-identical too.
            prop_assert_eq!(
                Jaccard::similarity(&small, &large).to_bits(),
                Jaccard::similarity(&large, &small).to_bits()
            );
        }

        #[test]
        fn self_similarity_is_one_for_nonempty(a in sorted_set()) {
            prop_assume!(!a.is_empty());
            prop_assert_eq!(Jaccard::similarity(&a, &a), 1.0);
        }

        #[test]
        fn union_plus_intersection_equals_size_sum(a in sorted_set(), b in sorted_set()) {
            prop_assert_eq!(
                Jaccard::union(&a, &b) + Jaccard::intersection(&a, &b),
                a.len() + b.len()
            );
        }
    }
}
