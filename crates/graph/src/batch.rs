//! Batched kernel → neighbour-row plumbing.
//!
//! The similarity crate's [`cnc_similarity::kernel`] layer streams raw
//! `(i, j, sim)` triples; this module lands them in bounded neighbour
//! heaps — the piece that cannot live in `cnc-similarity` because the
//! graph crate sits above it in the dependency order. A brute-forced
//! cluster's pairs go one of two places:
//!
//! * [`pairwise_shared`] offers each pair straight to both rows of a
//!   [`SharedKnnGraph`] — the from-scratch build's solve. Most offers fall
//!   under their row's floor and cost one load, no lock and no
//!   cluster-local list, so there is nothing left to merge afterwards.
//! * [`pairwise_lists`] fills one fresh [`NeighborList`] per member — the
//!   partial lists a map stage merges or ships itself (`cnc-runtime`).
//!   Each list's root test rejects most offers in one comparison, and
//!   since a list meets each member once, the rest skip the dedup scan.

use crate::neighbors::NeighborList;
use crate::shared::SharedKnnGraph;
use cnc_dataset::UserId;
use cnc_similarity::kernel::{pairwise, SimKernel};

/// Brute-force a cluster through a monomorphized kernel: every unordered
/// pair of kernel rows is computed once and inserted symmetrically into
/// fresh lists bounded to `k`, returned positionally aligned (`lists[i]`
/// belongs to `users[i]`, kernel row `i` is `users[i]`). Each list meets
/// each other member once, so no offer needs the duplicate scan.
///
/// Computes exactly `len·(len−1)/2` similarities and counts none of them —
/// the caller flushes [`cnc_similarity::kernel::pair_count`] in one
/// `add_comparisons`.
///
/// # Panics
/// Panics (in debug builds) if `users` disagrees with the kernel's row
/// count or repeats a user.
pub fn pairwise_lists<K: SimKernel>(kernel: &K, users: &[UserId], k: usize) -> Vec<NeighborList> {
    debug_assert_eq!(kernel.len(), users.len());
    let mut lists: Vec<NeighborList> = (0..users.len()).map(|_| NeighborList::new(k)).collect();
    pairwise(kernel, |i, j, s| {
        lists[i as usize].insert_distinct(users[j as usize], s);
        lists[j as usize].insert_distinct(users[i as usize], s);
    });
    lists
}

/// [`pairwise_lists`]' offers made straight to `out`'s rows (`users[i]` is
/// kernel row `i`) — so the same rows as merging those lists would leave.
/// A row may already hold a member from another cluster, so these offers
/// keep the duplicate scan. Counts nothing, like [`pairwise_lists`].
pub fn pairwise_shared<K: SimKernel>(kernel: &K, users: &[UserId], out: &SharedKnnGraph) {
    debug_assert_eq!(kernel.len(), users.len());
    pairwise(kernel, |i, j, s| {
        let (u, v) = (users[i as usize], users[j as usize]);
        out.insert(u, v, s);
        out.insert(v, u, s);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_dataset::Dataset;
    use cnc_similarity::kernel::{ClusterTile, RawKernel, Remap};
    use cnc_similarity::{GoldFinger, Jaccard};

    fn dataset() -> Dataset {
        Dataset::from_profiles(
            vec![
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 4],
                vec![0, 1, 5, 6],
                vec![7, 8, 9],
                vec![7, 8, 9, 10],
                vec![2, 3, 7],
            ],
            0,
        )
    }

    #[test]
    fn matches_per_pair_inserts_on_raw_kernel() {
        let ds = dataset();
        let users: Vec<UserId> = vec![5, 0, 3, 1];
        let kernel = Remap::new(&users, RawKernel::new(&ds));
        let batched = pairwise_lists(&kernel, &users, 2);

        let mut reference: Vec<NeighborList> =
            (0..users.len()).map(|_| NeighborList::new(2)).collect();
        for i in 0..users.len() {
            for j in (i + 1)..users.len() {
                let s = Jaccard::similarity(ds.profile(users[i]), ds.profile(users[j])) as f32;
                reference[i].insert(users[j], s);
                reference[j].insert(users[i], s);
            }
        }
        for (b, r) in batched.iter().zip(&reference) {
            assert_eq!(b.sorted(), r.sorted());
        }
    }

    #[test]
    fn shared_rows_match_the_partial_lists() {
        let ds = dataset();
        let users: Vec<UserId> = vec![5, 0, 3, 1, 4];
        let kernel = Remap::new(&users, RawKernel::new(&ds));
        let lists = pairwise_lists(&kernel, &users, 2);
        let out = SharedKnnGraph::new(ds.num_users(), 2);
        pairwise_shared(&kernel, &users, &out);
        let graph = out.into_graph();
        for (list, &u) in lists.iter().zip(&users) {
            assert_eq!(graph.neighbors(u).as_slice(), list.as_view().as_slice(), "user {u}");
        }
        assert!(graph.neighbors(2).is_empty(), "a non-member row stays empty");
    }

    #[test]
    fn works_over_a_gathered_tile() {
        let ds = dataset();
        let gf = GoldFinger::build(&ds, 1024, 3);
        let users: Vec<UserId> = vec![0, 1, 2, 4];
        let tile = ClusterTile::gather(&gf, &users);
        let lists = pairwise_lists(&tile.kernel::<16>(), &users, 3);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), 3);
            for nb in list.iter() {
                assert!(users.contains(&nb.user));
                assert_ne!(nb.user, users[i]);
                let expect = gf.estimate(users[i], nb.user) as f32;
                assert_eq!(nb.sim.to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn trivial_clusters_are_no_ops() {
        let ds = dataset();
        let users: Vec<UserId> = vec![2];
        let kernel = Remap::new(&users, RawKernel::new(&ds));
        let lists = pairwise_lists(&kernel, &users, 2);
        assert!(lists.len() == 1 && lists[0].is_empty());
        let out = SharedKnnGraph::new(ds.num_users(), 2);
        pairwise_shared(&kernel, &users, &out);
        let empty: Vec<UserId> = Vec::new();
        let kernel = Remap::new(&empty, RawKernel::new(&ds));
        assert!(pairwise_lists(&kernel, &empty, 2).is_empty());
        pairwise_shared(&kernel, &empty, &out);
        assert_eq!(out.into_graph().num_edges(), 0);
    }
}
