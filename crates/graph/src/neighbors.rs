//! Bounded k-neighbour lists.
//!
//! Every user's neighbourhood is "a heap bounded to size k" (Algorithm 3):
//! a flat array in min-at-root order, so the *worst* retained neighbour is
//! always at index 0. The heap logic — `offer` and the two sifts — is
//! written once, over a slice, and shared by [`NeighborList`] and every
//! row of [`crate::SharedKnnGraph`]'s arena, so both hold a list in the
//! identical layout.
//!
//! An offer to a full heap tests the root **first**. A candidate that
//! cannot beat the worst entry can neither replace it nor refine an
//! existing entry upward (every entry is at least as good as the root), so
//! it is rejected with one comparison and no duplicate scan — in a
//! brute-force cluster, almost every offer. Only a candidate that passes
//! pays the duplicate check, a linear scan: `k ≤ 64` in all experiments
//! (30 in the paper), where scanning a cache-resident array beats any hash
//! set. `benches/neighbour_list` measures both paths. A candidate known to
//! be new to the list skips even the scan: a brute-forced cluster offers
//! each pair to each of its fresh partial lists exactly once.

use cnc_dataset::UserId;

/// One directed KNN edge: a neighbour and its similarity to the owner.
///
/// `#[repr(C)]` pins the layout to `(user: u32, sim: f32)` — 8 bytes,
/// align 4 — so the zero-copy snapshot path can reinterpret a mapped run
/// of little-endian `(id, sim-bits)` pairs as `[Neighbor]` directly.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The neighbour's user id.
    pub user: UserId,
    /// Similarity between the list owner and `user`.
    pub sim: f32,
}

impl Neighbor {
    /// Total order used by the heap: `a.worse_than(b)` iff `a` should be
    /// evicted before `b`. Lower similarity is worse; ties break on the
    /// *higher* user id, making every list content deterministic.
    #[inline]
    fn worse_than(&self, other: &Neighbor) -> bool {
        (self.sim, other.user) < (other.sim, self.user)
    }
}

/// A borrowed, read-only view of one user's neighbourhood — what
/// [`crate::KnnGraph::neighbors`] hands out whether the graph owns its
/// lists or borrows a flat CSR from a mapped snapshot. `Copy`, so views
/// pass by value; entries appear in the list's heap (iteration) order.
#[derive(Clone, Copy, Debug)]
pub struct Neighbors<'a> {
    entries: &'a [Neighbor],
    k: usize,
}

impl<'a> Neighbors<'a> {
    /// Wraps a heap-ordered entry run under bound `k`.
    #[inline]
    pub(crate) fn new(entries: &'a [Neighbor], k: usize) -> Self {
        Neighbors { entries, k }
    }

    /// The bound `k`.
    #[inline]
    pub fn k(self) -> usize {
        self.k
    }

    /// Current number of neighbours (≤ `k`).
    #[inline]
    pub fn len(self) -> usize {
        self.entries.len()
    }

    /// True if no neighbour is retained.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.entries.is_empty()
    }

    /// True if `user` is in the neighbourhood.
    #[inline]
    pub fn contains(self, user: UserId) -> bool {
        self.entries.iter().any(|n| n.user == user)
    }

    /// The entries in heap (unsorted) order — identical to
    /// [`NeighborList::iter`] over the same list.
    #[inline]
    pub fn iter(self) -> std::slice::Iter<'a, Neighbor> {
        self.entries.iter()
    }

    /// The raw heap-ordered entry slice.
    #[inline]
    pub fn as_slice(self) -> &'a [Neighbor] {
        self.entries
    }

    /// The neighbours sorted by decreasing similarity (best first), under
    /// the same deterministic tie rule as [`NeighborList::sorted`].
    pub fn sorted(self) -> Vec<Neighbor> {
        let mut v = self.entries.to_vec();
        v.sort_unstable_by(|a, b| {
            b.sim.partial_cmp(&a.sim).unwrap().then_with(|| a.user.cmp(&b.user))
        });
        v
    }

    /// Sum of retained similarities.
    pub fn sim_sum(self) -> f64 {
        self.entries.iter().map(|n| n.sim as f64).sum()
    }

    /// An owned [`NeighborList`] with the identical heap layout (the
    /// mutating escape hatch for callers that need their own copy).
    pub fn to_list(self) -> NeighborList {
        NeighborList { entries: self.entries.to_vec(), k: self.k }
    }
}

impl<'a> IntoIterator for Neighbors<'a> {
    type Item = &'a Neighbor;
    type IntoIter = std::slice::Iter<'a, Neighbor>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// A neighbourhood bounded to `k` entries, keeping the `k` best
/// (similarity, user) pairs ever inserted.
#[derive(Clone, Debug)]
pub struct NeighborList {
    entries: Vec<Neighbor>,
    k: usize,
}

impl NeighborList {
    /// Creates an empty list with capacity `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "neighbourhood size k must be positive");
        NeighborList { entries: Vec::with_capacity(k), k }
    }

    /// The bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of neighbours (≤ `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no neighbour has been retained yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the list holds `k` neighbours.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// Similarity of the worst retained neighbour, or `-∞` while not full
    /// (any candidate is accepted until the list fills up).
    #[inline]
    pub fn worst_sim(&self) -> f32 {
        worst_sim(&self.entries, self.k)
    }

    /// True if `user` is already in the list.
    #[inline]
    pub fn contains(&self, user: UserId) -> bool {
        self.entries.iter().any(|n| n.user == user)
    }

    /// Offers a candidate neighbour. Returns `true` iff the list changed
    /// (the candidate was added, or it replaced the worst entry, or an
    /// existing entry's similarity improved).
    ///
    /// The greedy algorithms use the return value as their "update" counter
    /// for the `δ·k·|U|` termination rule.
    #[inline]
    pub fn insert(&mut self, user: UserId, sim: f32) -> bool {
        self.offer(Neighbor { user, sim }, false)
    }

    /// [`NeighborList::insert`] of a user the list is known not to hold,
    /// skipping the duplicate scan — a brute-forced cluster offers each
    /// pair to each fresh list exactly once.
    #[inline]
    pub(crate) fn insert_distinct(&mut self, user: UserId, sim: f32) -> bool {
        debug_assert!(!self.contains(user), "user {user} offered twice");
        self.offer(Neighbor { user, sim }, true)
    }

    #[inline]
    fn offer(&mut self, candidate: Neighbor, distinct: bool) -> bool {
        match offer(&mut self.entries, self.k, candidate, distinct) {
            Verdict::Append => {
                let last = self.entries.len();
                self.entries.push(candidate);
                sift_up(&mut self.entries, last);
                true
            }
            verdict => verdict == Verdict::Changed,
        }
    }

    /// Reassembles a list from entries previously read off [`NeighborList::iter`]
    /// (heap order), restoring the **identical** in-memory layout — the
    /// `cnc-serve` snapshot loader's inverse of the writer. The entries
    /// come from an untrusted file, so every invariant is checked instead
    /// of asserted: the bound, similarity finiteness (the heap's total
    /// order unwraps `partial_cmp`), user distinctness, and the heap
    /// invariant itself.
    pub fn from_heap_order(k: usize, entries: Vec<Neighbor>) -> Result<NeighborList, String> {
        if k == 0 {
            return Err("neighbourhood size k must be positive".into());
        }
        if entries.len() > k {
            return Err(format!("{} entries exceed the bound k = {k}", entries.len()));
        }
        if let Some(bad) = entries.iter().find(|n| n.sim.is_nan()) {
            return Err(format!("neighbour {} has a NaN similarity", bad.user));
        }
        for (i, a) in entries.iter().enumerate() {
            if entries[..i].iter().any(|b| b.user == a.user) {
                return Err(format!("user {} appears twice in one list", a.user));
            }
        }
        if !is_heap(&entries) {
            return Err("entries are not in heap order".into());
        }
        Ok(NeighborList { entries, k })
    }

    /// Merges `other` into `self` (Algorithm 3's per-user step), keeping the
    /// `k` best of the union.
    pub fn merge(&mut self, other: &NeighborList) -> usize {
        self.merge_entries(&other.entries)
    }

    /// [`NeighborList::merge`] over a raw entry slice (the borrowed-view
    /// form a CSR-backed graph hands out).
    pub fn merge_entries(&mut self, entries: &[Neighbor]) -> usize {
        entries.iter().filter(|n| self.insert(n.user, n.sim)).count()
    }

    /// Iterates over the retained neighbours in heap (unsorted) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Neighbor> {
        self.entries.iter()
    }

    /// A borrowed [`Neighbors`] view of this list (heap order preserved).
    #[inline]
    pub fn as_view(&self) -> Neighbors<'_> {
        Neighbors::new(&self.entries, self.k)
    }

    /// The neighbours sorted by decreasing similarity (best first).
    pub fn sorted(&self) -> Vec<Neighbor> {
        let mut v = self.entries.clone();
        v.sort_unstable_by(|a, b| {
            b.sim.partial_cmp(&a.sim).unwrap().then_with(|| a.user.cmp(&b.user))
        });
        v
    }

    /// Sum of retained similarities (the numerator of Eq. (1) for one user).
    pub fn sim_sum(&self) -> f64 {
        self.entries.iter().map(|n| n.sim as f64).sum()
    }

    /// Heap-order invariant check for tests and debug assertions.
    #[doc(hidden)]
    pub fn check_heap_invariant(&self) -> bool {
        is_heap(&self.entries)
    }
}

// --- the bounded heap, over a slice (min at root, `worse_than` order) ---

/// What a bounded heap makes of one candidate (see [`offer`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Nothing changed.
    Rejected,
    /// The candidate replaced the root, or refined its own entry upward.
    Changed,
    /// The heap is not full and does not hold the candidate's user: the
    /// caller appends it and restores the order with [`sift_up`].
    Append,
}

/// Offers `candidate` to the heap `heap` bounded to `k` entries — the one
/// implementation of the bounded-heap insert (module docs). A full heap
/// rejects on the root test before any duplicate scan; a duplicate can
/// only be refined upward (different backends never mix inside one run,
/// but merges must be idempotent), since the same pair can be offered
/// from several clusters (C²) or several iterations (greedy algorithms).
/// `distinct` promises the candidate's user is not in `heap`, and skips
/// the scan.
#[inline]
pub(crate) fn offer(
    heap: &mut [Neighbor],
    k: usize,
    candidate: Neighbor,
    distinct: bool,
) -> Verdict {
    let full = heap.len() == k;
    if full && !heap[0].worse_than(&candidate) {
        return Verdict::Rejected;
    }
    let duplicate =
        if distinct { None } else { heap.iter().position(|n| n.user == candidate.user) };
    if let Some(pos) = duplicate {
        if candidate.sim > heap[pos].sim {
            heap[pos].sim = candidate.sim;
            let pos = sift_up(heap, pos);
            sift_down(heap, pos);
            return Verdict::Changed;
        }
        return Verdict::Rejected;
    }
    if !full {
        return Verdict::Append;
    }
    heap[0] = candidate;
    sift_down(heap, 0);
    Verdict::Changed
}

/// The root's similarity once `heap` holds `k` entries, `-∞` before: no
/// candidate below it can enter.
#[inline]
pub(crate) fn worst_sim(heap: &[Neighbor], k: usize) -> f32 {
    if heap.len() == k {
        heap[0].sim
    } else {
        f32::NEG_INFINITY
    }
}

/// Lays `row` out in the one canonical order of its content: worst first
/// under the heap's own order ([`Neighbor::worse_than`]: ascending
/// similarity, ties on the descending user id — total on a row's distinct
/// users). Each entry is then no better than the entries after it, so the
/// row is a valid heap — the same one whatever sequence of offers built it.
pub(crate) fn sort_worst_first(row: &mut [Neighbor]) {
    row.sort_unstable_by(|a, b| a.sim.partial_cmp(&b.sim).unwrap().then(b.user.cmp(&a.user)));
}

/// Moves `heap[pos]` toward the root until its parent is not worse;
/// returns where it settled.
pub(crate) fn sift_up(heap: &mut [Neighbor], mut pos: usize) -> usize {
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if heap[pos].worse_than(&heap[parent]) {
            heap.swap(pos, parent);
            pos = parent;
        } else {
            break;
        }
    }
    pos
}

fn sift_down(heap: &mut [Neighbor], mut pos: usize) {
    loop {
        let left = 2 * pos + 1;
        if left >= heap.len() {
            break;
        }
        let right = left + 1;
        let mut worst = left;
        if right < heap.len() && heap[right].worse_than(&heap[left]) {
            worst = right;
        }
        if heap[worst].worse_than(&heap[pos]) {
            heap.swap(pos, worst);
            pos = worst;
        } else {
            break;
        }
    }
}

/// True if no entry of `heap` is worse than its parent.
pub(crate) fn is_heap(heap: &[Neighbor]) -> bool {
    (1..heap.len()).all(|i| !heap[i].worse_than(&heap[(i - 1) / 2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_first_is_one_heap_per_content() {
        let offers = [(1, 0.5), (2, 0.9), (3, 0.5), (4, 0.7), (5, 0.2), (6, 0.5), (7, 0.9)];
        let mut layouts = Vec::new();
        for rotate in 0..offers.len() {
            let mut list = NeighborList::new(5);
            let mut order = offers;
            order.rotate_left(rotate);
            order[..rotate.min(3)].reverse();
            for (user, sim) in order {
                list.insert(user, sim);
            }
            let mut row = list.as_view().as_slice().to_vec();
            sort_worst_first(&mut row);
            assert!(is_heap(&row));
            layouts.push(row);
        }
        let want: Vec<(u32, f32)> = vec![(3, 0.5), (1, 0.5), (4, 0.7), (7, 0.9), (2, 0.9)];
        for row in layouts {
            assert_eq!(row.iter().map(|n| (n.user, n.sim)).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn keeps_the_best_k() {
        let mut list = NeighborList::new(3);
        for (user, sim) in [(1, 0.1), (2, 0.9), (3, 0.5), (4, 0.7), (5, 0.3)] {
            list.insert(user, sim);
        }
        let kept: Vec<u32> = list.sorted().iter().map(|n| n.user).collect();
        assert_eq!(kept, vec![2, 4, 3]);
    }

    #[test]
    fn insert_returns_change_flag() {
        let mut list = NeighborList::new(2);
        assert!(list.insert(1, 0.5));
        assert!(list.insert(2, 0.6));
        assert!(!list.insert(3, 0.1), "worse than the worst must be rejected");
        assert!(list.insert(4, 0.9), "better candidate must evict");
        assert!(!list.contains(1));
    }

    #[test]
    fn duplicates_are_not_double_counted() {
        let mut list = NeighborList::new(3);
        assert!(list.insert(7, 0.4));
        assert!(!list.insert(7, 0.4), "same pair re-offered must be a no-op");
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn duplicate_with_better_sim_updates_in_place() {
        let mut list = NeighborList::new(3);
        list.insert(7, 0.4);
        assert!(list.insert(7, 0.8));
        assert_eq!(list.len(), 1);
        assert_eq!(list.sorted()[0].sim, 0.8);
    }

    #[test]
    fn duplicate_with_worse_sim_is_ignored() {
        let mut list = NeighborList::new(3);
        list.insert(7, 0.8);
        assert!(!list.insert(7, 0.2));
        assert_eq!(list.sorted()[0].sim, 0.8);
    }

    #[test]
    fn worst_sim_is_neg_infinity_until_full() {
        let mut list = NeighborList::new(2);
        assert_eq!(list.worst_sim(), f32::NEG_INFINITY);
        list.insert(1, 0.5);
        assert_eq!(list.worst_sim(), f32::NEG_INFINITY);
        list.insert(2, 0.3);
        assert_eq!(list.worst_sim(), 0.3);
    }

    #[test]
    fn ties_break_deterministically_on_user_id() {
        // Three candidates with equal similarity for k = 2: the two lowest
        // ids must be retained, whatever the insertion order.
        let orders = [[1u32, 2, 3], [3, 2, 1], [2, 3, 1], [2, 1, 3], [3, 1, 2], [1, 3, 2]];
        for order in orders {
            let mut list = NeighborList::new(2);
            for u in order {
                list.insert(u, 0.5);
            }
            let kept: Vec<u32> = list.sorted().iter().map(|n| n.user).collect();
            assert_eq!(kept, vec![1, 2], "order {order:?} broke the tie rule");
        }
    }

    #[test]
    fn merge_keeps_top_k_of_union() {
        let mut a = NeighborList::new(2);
        a.insert(1, 0.2);
        a.insert(2, 0.4);
        let mut b = NeighborList::new(2);
        b.insert(3, 0.9);
        b.insert(1, 0.2);
        let updates = a.merge(&b);
        assert_eq!(updates, 1);
        let kept: Vec<u32> = a.sorted().iter().map(|n| n.user).collect();
        assert_eq!(kept, vec![3, 2]);
    }

    #[test]
    fn sim_sum_matches_entries() {
        let mut list = NeighborList::new(4);
        list.insert(1, 0.25);
        list.insert(2, 0.5);
        assert!((list.sim_sum() - 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        NeighborList::new(0);
    }

    #[test]
    fn from_heap_order_restores_the_exact_layout() {
        let mut list = NeighborList::new(4);
        for (user, sim) in [(1, 0.4), (9, 0.9), (3, 0.1), (7, 0.7), (2, 0.5)] {
            list.insert(user, sim);
        }
        let entries: Vec<Neighbor> = list.iter().copied().collect();
        let back = NeighborList::from_heap_order(4, entries).unwrap();
        // Bit-exact: same heap order, not merely the same sorted content.
        assert_eq!(
            back.iter().copied().collect::<Vec<_>>(),
            list.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(back.k(), 4);
    }

    #[test]
    fn from_heap_order_rejects_invalid_entries() {
        let n = |user, sim| Neighbor { user, sim };
        assert!(NeighborList::from_heap_order(0, vec![]).is_err(), "k = 0");
        assert!(
            NeighborList::from_heap_order(1, vec![n(1, 0.5), n(2, 0.9)]).is_err(),
            "over the bound"
        );
        assert!(NeighborList::from_heap_order(3, vec![n(1, f32::NAN)]).is_err(), "NaN similarity");
        assert!(
            NeighborList::from_heap_order(3, vec![n(1, 0.2), n(1, 0.3)]).is_err(),
            "duplicate user"
        );
        assert!(
            NeighborList::from_heap_order(3, vec![n(1, 0.9), n(2, 0.1)]).is_err(),
            "heap order violated (root must be the worst)"
        );
        assert!(NeighborList::from_heap_order(3, vec![]).unwrap().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The insert as it was written before the root test moved in front of
    /// the duplicate scan — dedup first, then push or replace the root —
    /// with its own copy of the sifts: the oracle [`offer`] must match in
    /// return value and heap layout.
    fn reference_insert(entries: &mut Vec<Neighbor>, k: usize, user: UserId, sim: f32) -> bool {
        fn sift_up(entries: &mut [Neighbor], mut pos: usize) -> usize {
            while pos > 0 {
                let parent = (pos - 1) / 2;
                if entries[pos].worse_than(&entries[parent]) {
                    entries.swap(pos, parent);
                    pos = parent;
                } else {
                    break;
                }
            }
            pos
        }
        fn sift_down(entries: &mut [Neighbor], mut pos: usize) {
            loop {
                let left = 2 * pos + 1;
                if left >= entries.len() {
                    break;
                }
                let right = left + 1;
                let mut worst = left;
                if right < entries.len() && entries[right].worse_than(&entries[left]) {
                    worst = right;
                }
                if entries[worst].worse_than(&entries[pos]) {
                    entries.swap(pos, worst);
                    pos = worst;
                } else {
                    break;
                }
            }
        }
        if let Some(pos) = entries.iter().position(|n| n.user == user) {
            if sim > entries[pos].sim {
                entries[pos].sim = sim;
                let pos = sift_up(entries, pos);
                sift_down(entries, pos);
                return true;
            }
            return false;
        }
        let candidate = Neighbor { user, sim };
        if entries.len() < k {
            let last = entries.len();
            entries.push(candidate);
            sift_up(entries, last);
            true
        } else if entries[0].worse_than(&candidate) {
            entries[0] = candidate;
            sift_down(entries, 0);
            true
        } else {
            false
        }
    }

    proptest! {
        /// Threshold-first `insert` is the dedup-first reference, step for
        /// step: same return value, same heap layout. Few users and eight
        /// similarity levels make duplicates, ties in both id orders, and
        /// upward and downward refinements common; `k = 30` with up to 40
        /// users covers full lists with most offers below the root.
        #[test]
        fn insert_matches_the_dedup_first_reference(
            offers in proptest::collection::vec((0u32..40, 0u32..8), 0..300),
            which_k in 0usize..3,
        ) {
            let k = [1, 2, 30][which_k];
            let mut list = NeighborList::new(k);
            let mut reference = Vec::new();
            for (user, level) in offers {
                let sim = level as f32 / 8.0;
                prop_assert_eq!(
                    list.insert(user, sim),
                    reference_insert(&mut reference, k, user, sim)
                );
                prop_assert_eq!(list.iter().copied().collect::<Vec<_>>(), reference.clone());
            }
        }

        /// The scan-free offer of users new to the list is the reference
        /// too, on streams that never repeat a user (ties in both orders).
        #[test]
        fn distinct_offers_match_the_reference(
            levels in proptest::collection::vec(0u32..8, 0..120),
            stride in 1u32..40,
            which_k in 0usize..3,
        ) {
            let k = [1, 2, 30][which_k];
            let mut list = NeighborList::new(k);
            let mut reference = Vec::new();
            for (i, level) in levels.into_iter().enumerate() {
                // Distinct users in a scrambled order: i·stride mod a prime.
                let user = (i as u32 * stride) % 127;
                let sim = level as f32 / 8.0;
                prop_assert_eq!(
                    list.insert_distinct(user, sim),
                    reference_insert(&mut reference, k, user, sim)
                );
                prop_assert_eq!(list.iter().copied().collect::<Vec<_>>(), reference.clone());
            }
        }

        /// The list must always contain exactly the top-k of everything
        /// offered (under the deterministic tie rule).
        #[test]
        fn list_is_topk_of_inserted_multiset(
            inserts in proptest::collection::vec((0u32..50, 0u32..100), 1..200),
            k in 1usize..10,
        ) {
            let mut list = NeighborList::new(k);
            // Deduplicate by user keeping max sim — the reference model.
            let mut best: std::collections::BTreeMap<u32, u32> = Default::default();
            for &(user, sim_raw) in &inserts {
                let sim = sim_raw as f32 / 100.0;
                list.insert(user, sim);
                let e = best.entry(user).or_insert(sim_raw);
                *e = (*e).max(sim_raw);
            }
            prop_assert!(list.check_heap_invariant());
            let mut expect: Vec<(f32, u32)> = best.into_iter()
                .map(|(user, sim_raw)| (sim_raw as f32 / 100.0, user))
                .collect();
            // Best first: sim desc, user asc.
            expect.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            expect.truncate(k);
            let got: Vec<(f32, u32)> = list.sorted().iter().map(|n| (n.sim, n.user)).collect();
            prop_assert_eq!(got, expect);
        }

        /// Merging is idempotent: merging a list into itself changes nothing.
        #[test]
        fn merge_is_idempotent(
            inserts in proptest::collection::vec((0u32..30, 0u32..100), 0..50),
        ) {
            let mut list = NeighborList::new(5);
            for (user, sim_raw) in inserts {
                list.insert(user, sim_raw as f32 / 100.0);
            }
            let snapshot = list.sorted();
            let copy = list.clone();
            let updates = list.merge(&copy);
            prop_assert_eq!(updates, 0);
            let sorted = list.sorted();
            prop_assert_eq!(sorted, snapshot);
        }

        /// The heap invariant survives arbitrary insertion sequences.
        #[test]
        fn heap_invariant_always_holds(
            inserts in proptest::collection::vec((0u32..100, -50i32..50), 0..300),
            k in 1usize..32,
        ) {
            let mut list = NeighborList::new(k);
            for (user, sim) in inserts {
                list.insert(user, sim as f32 / 10.0);
                prop_assert!(list.check_heap_invariant());
                prop_assert!(list.len() <= k);
            }
        }
    }
}
