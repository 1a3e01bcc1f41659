//! Concurrently writable KNN graph: one flat `n × k` neighbour arena.
//!
//! C²'s clusters are processed "in isolation … without any synchronization"
//! between KNN computations; synchronization only happens where results
//! land in each user's global neighbourhood (Algorithm 3). Every graph
//! writer of the workspace — the C² pipeline and its patch stage, Brute
//! Force, Hyrec, NNDescent and LSH — writes through [`SharedKnnGraph`],
//! built for exactly that access pattern:
//!
//! * **One allocation.** Row `u` is the slot range `u·k .. (u+1)·k` of one
//!   `n × k` array; its first `len(u)` slots hold the bounded heap of
//!   [`crate::neighbors`] — the same code and the same layout as a
//!   [`NeighborList`] fed the same offers. No allocation per user.
//! * **One lock per row**, holding the row's length: writers of different
//!   users never contend, two writers of one user serialize briefly.
//! * **A lock-free floor per row**: the worst similarity of a full row,
//!   `-∞` while it fills, republished under the lock after every write.
//!   Offers only ever raise a row's worst entry, so a candidate below a
//!   floor read at any moment is one the row rejects: it is refused with
//!   one atomic load, without locking — most offers of a brute-force
//!   cluster are. (A [`SharedKnnGraph::replace`] can lower a floor; an
//!   offer racing it that was refused on the old floor is ordered before
//!   the replacement, which would have discarded it anyway.)
//! * **Frozen in place.** [`SharedKnnGraph::into_graph`] compacts the rows
//!   to the front of the same allocation, which becomes the CSR entry array
//!   of the [`KnnGraph`]: no second copy of the graph is ever held.

use crate::knn_graph::KnnGraph;
use crate::neighbors::{offer, sift_up, worst_sim, Neighbor, NeighborList, Verdict};
use cnc_dataset::UserId;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// A slot past a row's length (never read).
const VACANT: Neighbor = Neighbor { user: 0, sim: 0.0 };

/// A KNN graph whose rows can be updated from many threads (module docs).
pub struct SharedKnnGraph {
    /// `n × k` slots; row `u` is `slots[u·k .. (u+1)·k]`.
    slots: Box<[UnsafeCell<Neighbor>]>,
    /// Per row, the lock that owns its slots; it guards the row's length.
    rows: Box<[Mutex<u32>]>,
    /// Per row, the bits of [`worst_sim`] of its heap, read without the lock.
    floors: Box<[AtomicU32]>,
    k: usize,
}

// SAFETY: `rows` (mutexes), `floors` (atomics) and `k` are `Sync` on their
// own. The slots, the only field that is not, are reached only through
// `with_row`, which holds the row's lock for the whole access, and rows
// are disjoint slot ranges — so a shared `&SharedKnnGraph` gives at most
// one thread at a time a `&mut` to any slot, the guarantee a
// `Mutex<[Neighbor]>` per row would give. `Neighbor` is plain `Copy`
// data. (`Send` is automatic: every field owns plain data.)
unsafe impl Sync for SharedKnnGraph {}

impl SharedKnnGraph {
    /// Creates an empty shared graph over `n` users with bound `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: usize) -> Self {
        Self::from_rows(n, k, |_| &[])
    }

    /// Wraps an existing graph for concurrent updates, every row's heap
    /// layout kept.
    pub fn from_graph(graph: KnnGraph) -> Self {
        Self::from_rows(graph.num_users(), graph.k(), |u| graph.neighbors(u).as_slice())
    }

    /// A graph over `n` users whose row `u` starts as the entries `row(u)`,
    /// layout kept verbatim — how the patch stage starts from the previous
    /// graph's rows without an intermediate copy. Each row must be a heap
    /// of distinct users, as every [`KnnGraph`] row is.
    ///
    /// # Panics
    /// Panics if `k == 0` or a row holds more than `k` entries, and (in
    /// debug builds) if a row is not a heap.
    pub fn from_rows<'a>(n: usize, k: usize, row: impl Fn(UserId) -> &'a [Neighbor]) -> Self {
        assert!(k > 0, "neighbourhood size k must be positive");
        let mut slots = Vec::with_capacity(n * k);
        let mut rows = Vec::with_capacity(n);
        let mut floors = Vec::with_capacity(n);
        for u in 0..n as UserId {
            let heap = row(u);
            assert!(heap.len() <= k, "row {u} holds {} entries over k = {k}", heap.len());
            debug_assert!(crate::neighbors::is_heap(heap), "row {u} is not a heap");
            let vacant = std::iter::repeat_n(VACANT, k - heap.len());
            slots.extend(heap.iter().copied().chain(vacant).map(UnsafeCell::new));
            rows.push(Mutex::new(heap.len() as u32));
            floors.push(AtomicU32::new(worst_sim(heap, k).to_bits()));
        }
        SharedKnnGraph {
            slots: slots.into_boxed_slice(),
            rows: rows.into_boxed_slice(),
            floors: floors.into_boxed_slice(),
            k,
        }
    }

    /// The neighbourhood bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.rows.len()
    }

    /// Row `user`'s floor: no candidate below it can enter the row.
    /// `Relaxed`, because the floor publishes no other data: any value
    /// ever stored is a valid reason to refuse (module docs), and acting
    /// on the row itself takes the row's lock, which orders the rest.
    #[inline]
    fn floor(&self, user: UserId) -> f32 {
        f32::from_bits(self.floors[user as usize].load(Ordering::Relaxed))
    }

    /// Runs `f` on row `user`'s `k` slots and its length under the row's
    /// lock, then republishes the row's floor.
    #[inline]
    fn with_row<R>(&self, user: UserId, f: impl FnOnce(&mut [Neighbor], &mut usize) -> R) -> R {
        let u = user as usize;
        let mut len = self.rows[u].lock();
        // SAFETY: `slots.len() == rows.len()·k`, and indexing `rows` above
        // bounds-checked `u`, so `u·k .. (u+1)·k` lies inside the slots. No
        // other row covers it, and only this function, under the lock it
        // holds until `row`'s last use, makes a reference into it (freezing
        // takes `self` by value). `UnsafeCell<Neighbor>` has `Neighbor`'s
        // layout and permits writes through the shared slice the pointer
        // comes from.
        let row = unsafe {
            let start = UnsafeCell::raw_get(self.slots.as_ptr().add(u * self.k));
            std::slice::from_raw_parts_mut(start, self.k)
        };
        let mut live = *len as usize;
        let out = f(row, &mut live);
        *len = live as u32;
        self.floors[u].store(worst_sim(&row[..live], self.k).to_bits(), Ordering::Relaxed);
        out
    }

    /// Offers the directed edge `user → neighbor`; returns `true` on change.
    /// An offer under the row's floor returns `false` without locking.
    #[inline]
    pub fn insert(&self, user: UserId, neighbor: UserId, sim: f32) -> bool {
        debug_assert_ne!(user, neighbor, "self-loops are not KNN edges");
        if sim < self.floor(user) {
            return false;
        }
        self.with_row(user, |row, len| offer_row(row, len, Neighbor { user: neighbor, sim }))
    }

    /// Merges a whole partial neighbourhood into `user`'s row under one
    /// lock acquisition (Algorithm 3's inner loop), offering its entries in
    /// their heap order; returns the update count. A partial list entirely
    /// under the row's floor is refused without locking.
    pub fn merge_into(&self, user: UserId, partial: &NeighborList) -> usize {
        let entries = partial.as_view().as_slice();
        let floor = self.floor(user);
        if entries.iter().all(|n| n.sim < floor) {
            return 0;
        }
        self.with_row(user, |row, len| entries.iter().filter(|&&n| offer_row(row, len, n)).count())
    }

    /// Replaces `user`'s row wholesale (a row recomputed from scratch),
    /// keeping `list`'s heap layout.
    ///
    /// # Panics
    /// Panics if `list` holds more than `k` entries.
    pub fn replace(&self, user: UserId, list: NeighborList) {
        let heap = list.as_view().as_slice();
        self.with_row(user, |row, len| {
            row[..heap.len()].copy_from_slice(heap);
            *len = heap.len();
        });
    }

    /// Snapshots the neighbour ids of every user (cheap read phase of the
    /// greedy algorithms).
    pub fn snapshot_ids(&self) -> Vec<Vec<UserId>> {
        (0..self.num_users() as UserId)
            .map(|u| self.with_row(u, |row, len| row[..*len].iter().map(|n| n.user).collect()))
            .collect()
    }

    /// Freezes into a [`KnnGraph`] — a flat CSR behind shared storage, as
    /// [`KnnGraph::into_shared`] makes — **in place**: the rows are
    /// compacted to the front of the slot allocation, which becomes the
    /// graph's entry array, so the graph is never held twice. Every row
    /// keeps its heap layout.
    pub fn into_graph(self) -> KnnGraph {
        let SharedKnnGraph { slots, rows, k, .. } = self;
        // SAFETY: `UnsafeCell<Neighbor>` is `repr(transparent)` over
        // `Neighbor`, so the boxed slice is the same allocation, length and
        // layout read as plain entries; `self` was consumed, so no reference
        // into the arena survives.
        let mut entries =
            unsafe { Box::from_raw(Box::into_raw(slots) as *mut [Neighbor]) }.into_vec();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u64);
        let mut end = 0usize;
        for (u, len) in rows.into_vec().into_iter().enumerate() {
            let len = len.into_inner() as usize;
            if end != u * k {
                entries.copy_within(u * k..u * k + len, end);
            }
            end += len;
            offsets.push(end as u64);
        }
        entries.truncate(end);
        entries.shrink_to_fit();
        KnnGraph::from_trusted_csr(k, offsets, entries)
    }
}

/// [`offer`] on an arena row: `row` is its `k` slots, the first `len` live.
#[inline]
fn offer_row(row: &mut [Neighbor], len: &mut usize, candidate: Neighbor) -> bool {
    let k = row.len();
    match offer(&mut row[..*len], k, candidate, false) {
        Verdict::Append => {
            row[*len] = candidate;
            *len += 1;
            sift_up(&mut row[..*len], *len - 1);
            true
        }
        verdict => verdict == Verdict::Changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn concurrent_inserts_keep_top_k() {
        let shared = SharedKnnGraph::new(1, 4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let shared = &shared;
                scope.spawn(move || {
                    for i in 0..100u32 {
                        let v = 1 + t * 100 + i;
                        shared.insert(0, v, v as f32 / 1000.0);
                    }
                });
            }
        });
        let graph = shared.into_graph();
        let best: Vec<u32> = graph.neighbors(0).sorted().iter().map(|n| n.user).collect();
        // The four highest inserted ids have the four highest sims.
        assert_eq!(best, vec![400, 399, 398, 397]);
    }

    #[test]
    fn round_trip_through_from_graph() {
        let mut g = KnnGraph::new(3, 2);
        g.insert(0, 1, 0.5);
        g.insert(2, 0, 0.25);
        let shared = SharedKnnGraph::from_graph(g.clone());
        let back = shared.into_graph();
        for u in 0..3u32 {
            assert_eq!(back.neighbors(u).as_slice(), g.neighbors(u).as_slice());
        }
    }

    #[test]
    fn merge_into_counts_updates() {
        let shared = SharedKnnGraph::new(2, 2);
        let mut partial = NeighborList::new(2);
        partial.insert(1, 0.9);
        assert_eq!(shared.merge_into(0, &partial), 1);
        assert_eq!(shared.merge_into(0, &partial), 0, "second merge is idempotent");
    }

    #[test]
    fn snapshot_ids_reflects_inserts() {
        let shared = SharedKnnGraph::new(2, 2);
        shared.insert(0, 1, 0.4);
        let ids = shared.snapshot_ids();
        assert_eq!(ids[0], vec![1]);
        assert!(ids[1].is_empty());
    }

    /// A deterministic offer stream: `(row, neighbour, sim)` with few
    /// similarity levels, so ties, duplicates and refinements are common.
    fn offers(rows: u32, len: usize, seed: u64) -> Vec<(UserId, UserId, f32)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len)
            .filter_map(|_| {
                let (row, neighbor) = (rng.random_range(0..rows), rng.random_range(0..64u32));
                let sim = rng.random_range(0..16u32) as f32 / 16.0;
                (row != neighbor).then_some((row, neighbor, sim))
            })
            .collect()
    }

    #[test]
    fn rows_match_per_row_lists_in_layout_single_threaded() {
        for k in [1, 2, 5, 30] {
            let n = 24u32;
            let shared = SharedKnnGraph::new(n as usize, k);
            let mut lists = vec![NeighborList::new(k); n as usize];
            for (step, (row, neighbor, sim)) in offers(n, 3000, k as u64).into_iter().enumerate() {
                let expect = lists[row as usize].insert(neighbor, sim);
                if step % 7 == 0 {
                    // The same offer as a one-entry partial list.
                    let mut partial = NeighborList::new(k);
                    partial.insert(neighbor, sim);
                    assert_eq!(shared.merge_into(row, &partial), usize::from(expect));
                } else {
                    assert_eq!(shared.insert(row, neighbor, sim), expect, "k = {k}, step {step}");
                }
            }
            // Row 0 is replaced by a shorter, worse list: its floor drops,
            // and an offer between the old and the new floor now enters.
            let mut worse = NeighborList::new(k);
            worse.insert(40, 0.0);
            shared.replace(0, worse.clone());
            lists[0] = worse;
            assert!(shared.insert(0, 41, 0.01));
            assert!(lists[0].insert(41, 0.01));
            let ids = shared.snapshot_ids();
            for (u, list) in lists.iter().enumerate() {
                assert_eq!(ids[u], list.iter().map(|nb| nb.user).collect::<Vec<_>>());
            }
            if k > 2 {
                assert!(!lists[0].is_full(), "k = {k}: a short row is covered");
            }
            let graph = shared.into_graph();
            assert!(graph.is_shared(), "the freeze hands out shared storage");
            assert_eq!(graph.num_edges(), lists.iter().map(NeighborList::len).sum::<usize>());
            for (u, list) in lists.iter().enumerate() {
                assert_eq!(graph.neighbors(u as UserId).as_slice(), list.as_view().as_slice());
            }
        }
    }

    /// Rows that never fill keep their floor at `-∞`, so every offer takes
    /// the lock and appends: four threads released together onto the same
    /// four rows must leave every row holding every user offered to it.
    /// An append made outside the row's lock would be lost to a racing one.
    #[test]
    fn four_threads_appending_to_shared_rows_lose_no_entry() {
        let (n, per_thread) = (4u32, 16u32);
        let threads = 4u32;
        let k = (threads * per_thread) as usize;
        let start = std::sync::Barrier::new(threads as usize);
        for round in 0..200u32 {
            let shared = SharedKnnGraph::new(n as usize, k);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (shared, start) = (&shared, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..per_thread {
                            for row in 0..n {
                                let sim = ((round + t * 7 + i * 3 + row) % 11) as f32;
                                assert!(shared.insert(row, n + t * per_thread + i, sim));
                            }
                        }
                    });
                }
            });
            let graph = shared.into_graph();
            for row in 0..n {
                assert_eq!(graph.neighbors(row).len(), k, "round {round}, row {row}");
                assert!(graph.neighbors(row).to_list().check_heap_invariant());
            }
        }
    }

    /// Four threads released together onto four rows, with similarities
    /// that keep rising, so nearly every offer passes the floor and writes
    /// under the lock — and the same neighbour ids recur across threads at
    /// equal and different similarities (ties, duplicates, refinements).
    #[test]
    fn four_thread_storm_keeps_every_row_the_top_k() {
        let (n, k, len) = (4u32, 8usize, 40_000usize);
        let streams: Vec<Vec<(UserId, UserId, f32)>> = (0..4usize)
            .map(|t| {
                (0..len)
                    .map(|i| {
                        let neighbor = n + ((i * 4 + t) % 3000) as u32;
                        (i as u32 % n, neighbor, (i / 8) as f32)
                    })
                    .collect()
            })
            .collect();
        let shared = SharedKnnGraph::new(n as usize, k);
        let start = std::sync::Barrier::new(streams.len());
        std::thread::scope(|scope| {
            for (t, stream) in streams.iter().enumerate() {
                let (shared, start) = (&shared, &start);
                scope.spawn(move || {
                    start.wait();
                    for (i, &(row, neighbor, sim)) in stream.iter().enumerate() {
                        if (i + t) % 5 == 0 {
                            let mut partial = NeighborList::new(k);
                            partial.insert(neighbor, sim);
                            shared.merge_into(row, &partial);
                        } else {
                            shared.insert(row, neighbor, sim);
                        }
                    }
                });
            }
        });
        let mut lists = vec![NeighborList::new(k); n as usize];
        for &(row, neighbor, sim) in streams.iter().flatten() {
            lists[row as usize].insert(neighbor, sim);
        }
        let graph = shared.into_graph();
        for (u, list) in lists.iter().enumerate() {
            let row = graph.neighbors(u as UserId);
            assert_eq!(row.sorted(), list.sorted(), "row {u}");
            assert!(row.to_list().check_heap_invariant(), "row {u}");
        }
    }

    #[test]
    fn empty_and_zero_user_arenas_freeze() {
        assert_eq!(SharedKnnGraph::new(0, 3).into_graph().num_users(), 0);
        let graph = SharedKnnGraph::new(4, 3).into_graph();
        assert_eq!((graph.num_users(), graph.num_edges()), (4, 0));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        SharedKnnGraph::new(3, 0);
    }
}
