//! Concurrently writable KNN graph (striped per-user locks).
//!
//! C²'s clusters are processed "in isolation … without any synchronization"
//! between KNN computations; synchronization only happens when partial
//! results are merged into each user's global neighbourhood (Algorithm 3).
//! [`SharedKnnGraph`] supports exactly that access pattern: every user's
//! bounded list sits behind its own `parking_lot::Mutex`, so merges of
//! different users never contend and merges of the same user from two
//! clusters serialize briefly. A plain [`KnnGraph`] is recovered at the end
//! with [`SharedKnnGraph::into_graph`].

use crate::knn_graph::KnnGraph;
use crate::neighbors::NeighborList;
use cnc_dataset::UserId;
use parking_lot::Mutex;

/// A KNN graph whose per-user lists can be updated from many threads.
pub struct SharedKnnGraph {
    lists: Vec<Mutex<NeighborList>>,
    k: usize,
}

impl SharedKnnGraph {
    /// Creates an empty shared graph over `n` users with bound `k`.
    pub fn new(n: usize, k: usize) -> Self {
        SharedKnnGraph { lists: (0..n).map(|_| Mutex::new(NeighborList::new(k))).collect(), k }
    }

    /// Wraps an existing graph for concurrent updates.
    pub fn from_graph(graph: KnnGraph) -> Self {
        let k = graph.k();
        let n = graph.num_users();
        let mut lists = Vec::with_capacity(n);
        for u in 0..n as u32 {
            lists.push(Mutex::new(graph.neighbors(u).to_list()));
        }
        SharedKnnGraph { lists, k }
    }

    /// Wraps ready-made per-user lists (all bounded by `k`) — the patch
    /// stage's working copy: kept rows of the previous graph, empty rows
    /// for everyone else.
    pub fn from_lists(lists: Vec<NeighborList>, k: usize) -> Self {
        debug_assert!(lists.iter().all(|list| list.k() == k));
        SharedKnnGraph { lists: lists.into_iter().map(Mutex::new).collect(), k }
    }

    /// The neighbourhood bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.lists.len()
    }

    /// Offers the directed edge `user → neighbor`; returns `true` on change.
    #[inline]
    pub fn insert(&self, user: UserId, neighbor: UserId, sim: f32) -> bool {
        debug_assert_ne!(user, neighbor, "self-loops are not KNN edges");
        self.lists[user as usize].lock().insert(neighbor, sim)
    }

    /// Merges a whole partial neighbourhood into `user`'s list under one
    /// lock acquisition (Algorithm 3's inner loop); returns update count.
    pub fn merge_into(&self, user: UserId, partial: &NeighborList) -> usize {
        self.lists[user as usize].lock().merge(partial)
    }

    /// Replaces `user`'s list wholesale (a row recomputed from scratch).
    pub fn replace(&self, user: UserId, list: NeighborList) {
        *self.lists[user as usize].lock() = list;
    }

    /// Clones `user`'s current list (used to snapshot between greedy
    /// iterations).
    pub fn snapshot_user(&self, user: UserId) -> NeighborList {
        self.lists[user as usize].lock().clone()
    }

    /// Snapshots the neighbour ids of every user (cheap read phase of the
    /// greedy algorithms).
    pub fn snapshot_ids(&self) -> Vec<Vec<UserId>> {
        self.lists.iter().map(|l| l.lock().iter().map(|n| n.user).collect()).collect()
    }

    /// Unwraps into a plain [`KnnGraph`].
    pub fn into_graph(self) -> KnnGraph {
        let mut graph = KnnGraph::new(self.lists.len(), self.k);
        for (u, lock) in self.lists.into_iter().enumerate() {
            *graph.neighbors_mut(u as UserId) = lock.into_inner();
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(back.neighbors(u).sorted(), g.neighbors(u).sorted());
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
}
