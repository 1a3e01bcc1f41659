//! The KNN-graph container.

use crate::neighbors::{accepts, is_heap, Neighbor, NeighborList, Neighbors};
use cnc_dataset::{SharedSlice, Storage, UserId};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The graph's backing storage. Owned per-user lists are what
/// [`KnnGraph::new`] and [`KnnGraph::random_init`] start from. A flat CSR
/// (offsets + heap-ordered entries) is what a [`crate::SharedKnnGraph`]
/// freezes into, what [`KnnGraph::into_shared`] makes, and what the
/// zero-copy snapshot path borrows straight out of a mapped file. A CSR is
/// never promoted as a whole: its first write turns it into an
/// [`Overlay`], which copies a row only when a write changes it and reads
/// every other row from the CSR in place (row-granular copy-on-write).
/// Reads go through [`Neighbors`] views in every form.
#[derive(Clone, Debug)]
enum Repr {
    /// One bounded heap per user.
    Lists(Vec<NeighborList>),
    /// Validated at construction (see [`KnnGraph::from_csr_storage`]) or
    /// built as heaps in this crate, so views uphold every
    /// [`NeighborList`] invariant.
    Csr(Csr),
    /// A CSR plus the rows written since.
    Overlay(Overlay),
}

/// Flat CSR: `offsets[u]..offsets[u + 1]` delimits user `u`'s entries in
/// heap order.
#[derive(Clone, Debug)]
struct Csr {
    offsets: Storage<u64>,
    entries: Storage<Neighbor>,
}

impl Csr {
    #[inline]
    fn row(&self, u: usize) -> &[Neighbor] {
        &self.entries[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// A CSR base under row-granular copy-on-write: a user's row is read from
/// the base until a write changes it, and users appended past the base
/// own their rows from the start.
#[derive(Clone, Debug)]
struct Overlay {
    base: Csr,
    /// Per user: 0 reads the base row, `s > 0` reads `rows[s - 1]`.
    /// Allocated zeroed, so opening an overlay writes no per-user state.
    slots: Vec<u32>,
    /// The owned rows: base rows in order of their first write, and
    /// appended users.
    rows: Vec<NeighborList>,
}

impl Overlay {
    fn over(base: Csr) -> Self {
        let slots = vec![0; base.num_users()];
        Overlay { base, slots, rows: Vec::new() }
    }

    #[inline]
    fn row(&self, u: usize) -> &[Neighbor] {
        match self.slots[u] {
            0 => self.base.row(u),
            s => self.rows[s as usize - 1].as_view().as_slice(),
        }
    }

    /// `u`'s own row, copied from the base on first use.
    fn row_mut(&mut self, u: usize, k: usize) -> &mut NeighborList {
        if self.slots[u] == 0 {
            self.rows.push(Neighbors::new(self.base.row(u), k).to_list());
            self.slots[u] = self.rows.len() as u32;
        }
        &mut self.rows[self.slots[u] as usize - 1]
    }

    fn push(&mut self, row: NeighborList) {
        self.rows.push(row);
        self.slots.push(self.rows.len() as u32);
    }
}

/// An approximate (or exact) KNN graph: one bounded neighbour list per
/// user, stored owned or borrowed from a mapped snapshot (see `Repr`).
#[derive(Clone, Debug)]
pub struct KnnGraph {
    repr: Repr,
    k: usize,
}

impl KnnGraph {
    /// Creates an empty graph over `n` users with neighbourhood bound `k`.
    pub fn new(n: usize, k: usize) -> Self {
        KnnGraph { repr: Repr::Lists(vec![NeighborList::new(k); n]), k }
    }

    /// Assembles a graph borrowing (or owning) a flat CSR — the zero-copy
    /// snapshot loader's entry point. The parts come from an untrusted
    /// file, so every neighbour-list invariant is checked here, in one
    /// streaming pass whose only allocation is one stamp per user:
    /// offsets monotone and bounded, per-user entry counts ≤ `k`,
    /// neighbour ids in range and non-self, similarities non-NaN, users
    /// distinct within a list, and the heap invariant itself. On success,
    /// views over the CSR behave identically to views over lists rebuilt
    /// via [`NeighborList::from_heap_order`].
    pub fn from_csr_storage(
        k: usize,
        offsets: Storage<u64>,
        entries: Storage<Neighbor>,
    ) -> Result<KnnGraph, String> {
        if k == 0 {
            return Err("neighbourhood size k must be positive".into());
        }
        let Some((&first, rest)) = offsets.split_first() else {
            return Err("offsets must hold at least the leading 0".into());
        };
        if first != 0 {
            return Err("offsets must start at 0".into());
        }
        let num_users = rest.len();
        let total = entries.len() as u64;
        // `listed_by[v]` = 1 + the last user whose list named `v`, so a
        // repeat within a list costs one probe, not a scan of the list.
        let mut listed_by = vec![0usize; num_users];
        let mut at = 0u64;
        for (u, &end) in rest.iter().enumerate() {
            if end < at {
                return Err(format!("offsets decrease at user {u}"));
            }
            if end > total {
                return Err(format!("offsets of user {u} run past {total} entries"));
            }
            let list = &entries[at as usize..end as usize];
            if list.len() > k {
                return Err(format!(
                    "user {u} stores {} entries over the bound k = {k}",
                    list.len()
                ));
            }
            for n in list {
                if n.user as usize >= num_users {
                    return Err(format!("user {u} references neighbour {} out of range", n.user));
                }
                if n.user as usize == u {
                    return Err(format!("user {u} lists a self-loop"));
                }
                if n.sim.is_nan() {
                    return Err(format!("neighbour {} of user {u} has a NaN similarity", n.user));
                }
                if std::mem::replace(&mut listed_by[n.user as usize], u + 1) == u + 1 {
                    return Err(format!("user {} appears twice in user {u}'s list", n.user));
                }
            }
            if !is_heap(list) {
                return Err(format!("user {u}'s entries are not in heap order"));
            }
            at = end;
        }
        if at != total {
            return Err(format!("offsets cover {at} of {total} entries"));
        }
        Ok(KnnGraph { repr: Repr::Csr(Csr { offsets, entries }), k })
    }

    /// Assembles a graph from a CSR built in this crate — the in-place
    /// freeze of [`crate::SharedKnnGraph::into_graph`], whose rows are heaps
    /// by construction — and moves it behind a reference count as
    /// [`KnnGraph::into_shared`] does, so clones are O(1). What
    /// [`KnnGraph::from_csr_storage`] checks of untrusted bytes is only
    /// debug-asserted here.
    pub(crate) fn from_trusted_csr(k: usize, offsets: Vec<u64>, entries: Vec<Neighbor>) -> Self {
        debug_assert_eq!(offsets.last(), Some(&(entries.len() as u64)));
        debug_assert!(offsets.windows(2).all(|w| {
            let row = &entries[w[0] as usize..w[1] as usize];
            row.len() <= k && is_heap(row)
        }));
        let csr = Csr {
            offsets: SharedSlice::from_vec(offsets).into(),
            entries: SharedSlice::from_vec(entries).into(),
        };
        KnnGraph { repr: Repr::Csr(csr), k }
    }

    /// True when the graph is a reference-counted CSR — borrowed from a
    /// mapped snapshot or frozen by [`KnnGraph::into_shared`] — so a clone
    /// is O(1). A graph holding owned rows (lists, or CSR rows written
    /// since) is not.
    pub fn is_shared(&self) -> bool {
        match &self.repr {
            Repr::Csr(csr) => csr.offsets.is_shared() || csr.entries.is_shared(),
            Repr::Lists(_) | Repr::Overlay(_) => false,
        }
    }

    /// Freezes the graph into a flat CSR behind reference-counted storage:
    /// every clone of the result is O(1) and shares one copy of the
    /// entries — how an incremental build hands the same graph to its
    /// caller and to the cache the next build patches, and how a serving
    /// epoch lets the writer read its rows in place. A CSR is moved, not
    /// copied; owned rows are flattened. Writing to any holder of the
    /// result copies only the rows that write changes.
    pub fn into_shared(self) -> KnnGraph {
        let k = self.k;
        let mut offsets = Vec::with_capacity(self.num_users() + 1);
        let mut entries = Vec::with_capacity(self.num_edges());
        offsets.push(0u64);
        match self.repr {
            Repr::Csr(Csr { offsets, entries }) => {
                let csr = Csr { offsets: offsets.into_shared(), entries: entries.into_shared() };
                return KnnGraph { repr: Repr::Csr(csr), k };
            }
            Repr::Lists(lists) => {
                // Consumed list by list, so the owned lists are freed as
                // the flat copy grows.
                for list in lists {
                    entries.extend(list.iter().copied());
                    offsets.push(entries.len() as u64);
                }
            }
            Repr::Overlay(overlay) => {
                for u in 0..overlay.slots.len() {
                    entries.extend_from_slice(overlay.row(u));
                    offsets.push(entries.len() as u64);
                }
            }
        }
        KnnGraph::from_trusted_csr(k, offsets, entries)
    }

    /// Turns a CSR-backed graph into an overlay over it: the CSR moves,
    /// no row is copied. A no-op for any other form.
    fn open_overlay(&mut self) {
        if let Repr::Csr(_) = self.repr {
            let Repr::Csr(base) = std::mem::replace(&mut self.repr, Repr::Lists(Vec::new())) else {
                unreachable!("matched above")
            };
            self.repr = Repr::Overlay(Overlay::over(base));
        }
    }

    /// The neighbourhood bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users.
    #[inline]
    pub fn num_users(&self) -> usize {
        match &self.repr {
            Repr::Lists(lists) => lists.len(),
            Repr::Csr(csr) => csr.num_users(),
            Repr::Overlay(overlay) => overlay.slots.len(),
        }
    }

    /// A borrowed view of `user`'s neighbour list (heap order).
    #[inline]
    pub fn neighbors(&self, user: UserId) -> Neighbors<'_> {
        let u = user as usize;
        match &self.repr {
            Repr::Lists(lists) => lists[u].as_view(),
            Repr::Csr(csr) => Neighbors::new(csr.row(u), self.k),
            Repr::Overlay(overlay) => Neighbors::new(overlay.row(u), self.k),
        }
    }

    /// Mutable access to the neighbour list of `user`. On a CSR-backed
    /// graph this copies that one row (copy-on-write); prefer
    /// [`KnnGraph::insert`], which copies only a row the offer changes.
    #[inline]
    pub fn neighbors_mut(&mut self, user: UserId) -> &mut NeighborList {
        let k = self.k;
        self.open_overlay();
        match &mut self.repr {
            Repr::Lists(lists) => &mut lists[user as usize],
            Repr::Overlay(overlay) => overlay.row_mut(user as usize, k),
            Repr::Csr(_) => unreachable!("opened above"),
        }
    }

    /// Offers the directed edge `user → neighbor`; returns `true` on change.
    /// A row read from a CSR is copied only when the offer changes it.
    #[inline]
    pub fn insert(&mut self, user: UserId, neighbor: UserId, sim: f32) -> bool {
        debug_assert_ne!(user, neighbor, "self-loops are not KNN edges");
        let borrowed = match &self.repr {
            Repr::Lists(_) => false,
            Repr::Csr(_) => true,
            Repr::Overlay(overlay) => overlay.slots[user as usize] == 0,
        };
        let candidate = Neighbor { user: neighbor, sim };
        if borrowed && !accepts(self.neighbors(user).as_slice(), self.k, candidate) {
            return false;
        }
        self.neighbors_mut(user).insert(neighbor, sim)
    }

    /// Total number of directed edges currently stored (≤ `k·n`).
    pub fn num_edges(&self) -> usize {
        match &self.repr {
            Repr::Lists(lists) => lists.iter().map(NeighborList::len).sum(),
            Repr::Csr(csr) => csr.entries.len(),
            Repr::Overlay(_) => self.iter().map(|(_, view)| view.len()).sum(),
        }
    }

    /// Average of the *stored* similarities over `k·n` slots — Eq. (1) with
    /// missing edges contributing 0. For the paper's quality ratio the
    /// similarities are recomputed exactly; see [`crate::metrics`].
    pub fn avg_stored_similarity(&self) -> f64 {
        let n = self.num_users();
        if n == 0 {
            return 0.0;
        }
        let total: f64 = self.iter().map(|(_, view)| view.sim_sum()).sum();
        total / (self.k as f64 * n as f64)
    }

    /// Initializes every user with `k` distinct random non-self neighbours,
    /// scoring each edge with `sim` — the "initial random k-degree graph"
    /// every greedy competitor starts from (§I).
    ///
    /// The `sim` closure is the instrumented oracle, so the initial
    /// similarity computations count toward the algorithm's cost, as in the
    /// paper's implementation.
    pub fn random_init<F: FnMut(UserId, UserId) -> f32>(
        n: usize,
        k: usize,
        seed: u64,
        mut sim: F,
    ) -> Self {
        let mut lists = vec![NeighborList::new(k); n];
        if n > 1 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let degree = k.min(n - 1);
            for u in 0..n as u32 {
                while lists[u as usize].len() < degree {
                    let v = rng.random_range(0..n as u32);
                    if v != u && !lists[u as usize].contains(v) {
                        let s = sim(u, v);
                        lists[u as usize].insert(v, s);
                    }
                }
            }
        }
        KnnGraph { repr: Repr::Lists(lists), k }
    }

    /// Merges another graph into this one user-by-user (Algorithm 3 over
    /// whole graphs); returns the number of list updates. Rows the merge
    /// leaves unchanged are not copied.
    pub fn merge(&mut self, other: &KnnGraph) -> usize {
        assert_eq!(self.num_users(), other.num_users(), "graphs must cover the same users");
        other
            .iter()
            .map(|(u, theirs)| theirs.iter().filter(|n| self.insert(u, n.user, n.sim)).count())
            .sum()
    }

    /// Reverse adjacency: for every user, who points *to* them. NNDescent
    /// explores both directions of the neighbour relation.
    pub fn reverse(&self) -> Vec<Vec<UserId>> {
        let mut rev: Vec<Vec<UserId>> = vec![Vec::new(); self.num_users()];
        for (u, view) in self.iter() {
            for n in view.iter() {
                rev[n.user as usize].push(u);
            }
        }
        rev
    }

    /// Iterates `(user, view)` in user order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, Neighbors<'_>)> + '_ {
        (0..self.num_users() as UserId).map(move |u| (u, self.neighbors(u)))
    }

    /// Appends a new user with an empty neighbourhood; returns her id.
    /// Supports online growth (see `cnc-query::DynamicIndex`); on a
    /// CSR-backed graph no existing row is copied.
    pub fn add_user(&mut self) -> UserId {
        let row = NeighborList::new(self.k);
        self.open_overlay();
        match &mut self.repr {
            Repr::Lists(lists) => lists.push(row),
            Repr::Overlay(overlay) => overlay.push(row),
            Repr::Csr(_) => unreachable!("opened above"),
        }
        (self.num_users() - 1) as UserId
    }

    /// The best (most similar) neighbour of `user`, if any.
    pub fn best_neighbor(&self, user: UserId) -> Option<Neighbor> {
        self.neighbors(user)
            .iter()
            .copied()
            .max_by(|a, b| a.sim.partial_cmp(&b.sim).unwrap().then(b.user.cmp(&a.user)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = KnnGraph::new(5, 3);
        assert_eq!(g.num_users(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_stored_similarity(), 0.0);
    }

    #[test]
    fn insert_and_query() {
        let mut g = KnnGraph::new(3, 2);
        assert!(g.insert(0, 1, 0.5));
        assert!(g.insert(0, 2, 0.7));
        assert!(!g.insert(0, 1, 0.5));
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.best_neighbor(0).unwrap().user, 2);
    }

    #[test]
    fn random_init_gives_k_distinct_non_self_neighbors() {
        let g = KnnGraph::random_init(50, 5, 7, |_, _| 0.0);
        for (u, list) in g.iter() {
            assert_eq!(list.len(), 5);
            assert!(!list.contains(u), "self loop at {u}");
            let mut ids: Vec<u32> = list.iter().map(|n| n.user).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5, "duplicate neighbours at {u}");
        }
    }

    #[test]
    fn random_init_caps_degree_for_tiny_populations() {
        let g = KnnGraph::random_init(3, 10, 1, |_, _| 0.0);
        for (_, list) in g.iter() {
            assert_eq!(list.len(), 2);
        }
    }

    #[test]
    fn random_init_counts_similarity_calls() {
        let mut calls = 0u32;
        let _ = KnnGraph::random_init(20, 4, 3, |_, _| {
            calls += 1;
            0.0
        });
        assert!(calls >= 80, "each retained edge needs one similarity call");
    }

    #[test]
    fn random_init_is_deterministic() {
        let a = KnnGraph::random_init(30, 4, 11, |u, v| (u + v) as f32);
        let b = KnnGraph::random_init(30, 4, 11, |u, v| (u + v) as f32);
        for u in 0..30u32 {
            assert_eq!(a.neighbors(u).sorted(), b.neighbors(u).sorted());
        }
    }

    #[test]
    fn merge_unions_neighborhoods() {
        let mut a = KnnGraph::new(2, 2);
        a.insert(0, 1, 0.3);
        let mut b = KnnGraph::new(2, 2);
        b.insert(0, 1, 0.3);
        b.insert(1, 0, 0.9);
        let updates = a.merge(&b);
        assert_eq!(updates, 1);
        assert_eq!(a.num_edges(), 2);
    }

    #[test]
    fn reverse_adjacency_inverts_edges() {
        let mut g = KnnGraph::new(3, 2);
        g.insert(0, 1, 0.5);
        g.insert(2, 1, 0.4);
        g.insert(1, 0, 0.5);
        let rev = g.reverse();
        assert_eq!(rev[1], vec![0, 2]);
        assert_eq!(rev[0], vec![1]);
        assert!(rev[2].is_empty());
    }

    #[test]
    fn avg_stored_similarity_divides_by_k_times_n() {
        let mut g = KnnGraph::new(2, 2);
        g.insert(0, 1, 1.0);
        // One edge of sim 1.0 over k·n = 4 slots.
        assert!((g.avg_stored_similarity() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same users")]
    fn merging_mismatched_graphs_panics() {
        let mut a = KnnGraph::new(2, 2);
        let b = KnnGraph::new(3, 2);
        a.merge(&b);
    }

    /// Flattens a graph into the CSR parts `from_csr_storage` consumes.
    fn to_csr(g: &KnnGraph) -> (Vec<u64>, Vec<Neighbor>) {
        let mut offsets = vec![0u64];
        let mut entries = Vec::new();
        for (_, view) in g.iter() {
            entries.extend(view.iter().copied());
            offsets.push(entries.len() as u64);
        }
        (offsets, entries)
    }

    fn sample_graph() -> KnnGraph {
        KnnGraph::random_init(40, 4, 21, |u, v| ((u * 31 + v) % 97) as f32 / 97.0)
    }

    /// The same graph as owned lists, every row copied in heap order.
    fn promoted(g: &KnnGraph) -> KnnGraph {
        let mut lists = KnnGraph::new(g.num_users(), g.k());
        for (u, view) in g.iter() {
            *lists.neighbors_mut(u) = view.to_list();
        }
        lists
    }

    /// Heap-order rows: the bit-level content of a graph.
    fn rows(g: &KnnGraph) -> Vec<Vec<Neighbor>> {
        g.iter().map(|(_, view)| view.as_slice().to_vec()).collect()
    }

    /// Offers that land (a newcomer's edges; a better neighbour for row 3)
    /// and offers a full row rejects at its root (rows 8 and 11). Sample
    /// similarities are below 1, so 1.5 beats every root.
    fn writes(g: &mut KnnGraph) {
        let added = g.add_user();
        for v in [0u32, 5, 17] {
            g.insert(added, v, 1.5);
            g.insert(v, added, 1.5);
        }
        g.insert(3, 9, 1.5);
        g.insert(8, 2, -1.0);
        g.insert(11, 30, -1.0);
    }

    #[test]
    fn csr_round_trip_is_bit_identical() {
        let g = sample_graph();
        let (offsets, entries) = to_csr(&g);
        let csr = KnnGraph::from_csr_storage(g.k(), offsets.into(), entries.into()).unwrap();
        assert_eq!(csr.num_users(), g.num_users());
        assert_eq!(csr.num_edges(), g.num_edges());
        assert!(!csr.is_shared(), "owned vectors are not shared storage");
        for (u, view) in g.iter() {
            // Identical heap order, not merely identical sorted content.
            assert_eq!(
                view.iter().collect::<Vec<_>>(),
                csr.neighbors(u).iter().collect::<Vec<_>>()
            );
            assert_eq!(view.sorted(), csr.neighbors(u).sorted());
        }
    }

    #[test]
    fn into_shared_keeps_every_heap_and_clones_without_copying() {
        let g = sample_graph();
        let shared = g.clone().into_shared();
        assert!(shared.is_shared());
        let clone = shared.clone();
        for (u, view) in g.iter() {
            assert_eq!(view.as_slice(), shared.neighbors(u).as_slice());
            assert!(
                std::ptr::eq(shared.neighbors(u).as_slice(), clone.neighbors(u).as_slice()),
                "a clone must read the same entries, not a copy"
            );
        }
        // Freezing again is the identity; mutating one holder leaves the other alone.
        let mut again = shared.clone().into_shared();
        assert!(std::ptr::eq(shared.neighbors(0).as_slice(), again.neighbors(0).as_slice()));
        again.add_user();
        assert_eq!(again.num_users(), g.num_users() + 1);
        assert_eq!(shared.num_users(), g.num_users());
    }

    #[test]
    fn csr_mutation_copies_only_the_rows_it_writes() {
        let g = sample_graph();
        let (offsets, entries) = to_csr(&g);
        let mut csr = KnnGraph::from_csr_storage(g.k(), offsets.into(), entries.into()).unwrap();
        let added = csr.add_user();
        assert_eq!(added as usize, g.num_users());
        csr.insert(added, 0, 0.5);
        assert!(csr.neighbors(added).contains(0));
        // Every base row still reads as the original graph's.
        for (u, view) in g.iter() {
            assert_eq!(view.sorted(), csr.neighbors(u).sorted());
        }
    }

    #[test]
    fn writing_one_holder_of_a_shared_graph_leaves_the_others_bit_identical() {
        let shared = sample_graph().into_shared();
        let before = rows(&shared);
        let (mut writer, reader) = (shared.clone(), shared.clone());
        writes(&mut writer);
        assert_ne!(rows(&writer)[..before.len()], before[..], "some base row must change");
        for holder in [&shared, &reader] {
            assert!(holder.is_shared());
            assert_eq!(rows(holder), before);
            for u in 0..holder.num_users() as UserId {
                assert!(std::ptr::eq(
                    holder.neighbors(u).as_slice(),
                    shared.neighbors(u).as_slice()
                ));
            }
        }
    }

    #[test]
    fn untouched_rows_stay_pointer_equal_to_the_shared_csr() {
        let shared = sample_graph().into_shared();
        let mut writer = shared.clone();
        writes(&mut writer);
        assert!(!writer.is_shared(), "a written graph owns some rows");
        let mut copied = Vec::new();
        for u in 0..shared.num_users() as UserId {
            let (mine, base) = (writer.neighbors(u).as_slice(), shared.neighbors(u).as_slice());
            if std::ptr::eq(mine, base) {
                continue;
            }
            assert_ne!(mine, base, "row {u} was copied though no write changed it");
            copied.push(u);
        }
        // The rows the newcomer entered and the one a better neighbour
        // refined — not the two rows whose offers fell below the root.
        assert_eq!(copied, vec![0, 3, 5, 17]);
    }

    #[test]
    fn into_shared_of_an_overlay_equals_the_fully_promoted_graph() {
        let shared = sample_graph().into_shared();
        let other = KnnGraph::random_init(40, 4, 99, |u, v| ((u * 7 + v * 3) % 89) as f32 / 89.0);
        let mut overlay = shared.clone();
        let mut lists = promoted(&shared);
        let updates = overlay.merge(&other);
        assert!(updates > 0);
        assert_eq!(updates, lists.merge(&other));
        writes(&mut overlay);
        writes(&mut lists);
        let frozen = overlay.into_shared();
        assert!(frozen.is_shared());
        assert_eq!(frozen.num_users(), lists.num_users());
        assert_eq!(frozen.num_edges(), lists.num_edges());
        assert_eq!(rows(&frozen), rows(&lists), "heap for heap");
    }

    #[test]
    fn csr_validation_rejects_corrupt_parts() {
        let g = sample_graph();
        let (offsets, entries) = to_csr(&g);
        let n = |user, sim| Neighbor { user, sim };
        let check = |k: usize, offs: Vec<u64>, ents: Vec<Neighbor>, what: &str| {
            assert!(KnnGraph::from_csr_storage(k, offs.into(), ents.into()).is_err(), "{what}");
        };
        check(0, offsets.clone(), entries.clone(), "k = 0");
        check(4, vec![], entries.clone(), "empty offsets");
        check(4, vec![1, 2], entries.clone(), "nonzero first offset");
        {
            let mut bad = offsets.clone();
            bad[1] = bad[2] + 1;
            check(4, bad, entries.clone(), "decreasing offsets");
        }
        {
            let mut bad = offsets.clone();
            *bad.last_mut().unwrap() -= 1;
            check(4, bad, entries.clone(), "offsets not covering entries");
        }
        check(2, offsets.clone(), entries.clone(), "list over the bound");
        {
            let mut bad = entries.clone();
            bad[0].user = g.num_users() as u32;
            check(4, offsets.clone(), bad, "neighbour out of range");
        }
        {
            let mut bad = entries.clone();
            bad[0].user = 0; // user 0's own list starts at entry 0
            check(4, offsets.clone(), bad, "self-loop");
        }
        {
            let mut bad = entries.clone();
            bad[0].sim = f32::NAN;
            check(4, offsets.clone(), bad, "NaN similarity");
        }
        check(4, vec![0, 2], vec![n(1, 0.9), n(1, 0.1)], "duplicate neighbour");
        check(4, vec![0, 2], vec![n(1, 0.9), n(2, 0.1)], "heap order violated");
        // In range, so the repeat itself is what is refused — within one
        // list only: two lists may name the same neighbour.
        check(4, vec![0, 2, 2, 2], vec![n(1, 0.1), n(1, 0.1)], "repeat within a list");
        let shared = vec![n(2, 0.5), n(2, 0.5)];
        assert!(KnnGraph::from_csr_storage(4, vec![0, 1, 2, 2].into(), shared.into()).is_ok());
    }
}
