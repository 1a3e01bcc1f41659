//! Step 1 of C²: clustering with recursive splitting (§II-D, Algorithm 1).
//!
//! Every user is assigned to one cluster per hash function — `t` clustering
//! configurations of `b` clusters each. Because the min-aggregation biases
//! users toward low-index clusters (popular items with low hashes capture
//! many users), any cluster larger than the threshold `N` is **recursively
//! split**: its users are re-hashed with `H\η` (ignoring item hashes ≤ the
//! cluster's index η) and regrouped, with two exceptions that stay behind —
//! users whose `H\η` is undefined and users who would be alone in their new
//! cluster.
//!
//! The walk is recorded as a [`SplitTree`] (one entry per bucket, split and
//! remainder), which [`Clustering::entry_index`] freezes into the
//! [`EntryIndex`] that routes *query* profiles to the same clusters — Step
//! 1 serving the query path too, at no second pass over the dataset.

use crate::frh::FastRandomHash;
use cnc_dataset::{Dataset, UserId};
use cnc_graph::{EntryIndex, SplitTree};
use std::collections::BTreeMap;

/// The output of Step 1: the final cluster list plus instrumentation.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// All final clusters across the `t` configurations. Every cluster has
    /// at least one user; users with empty profiles appear in none.
    pub clusters: Vec<Vec<UserId>>,
    /// Number of hash functions `t` that produced the clustering.
    pub num_functions: usize,
    /// How many split operations were performed (0 when every raw cluster
    /// fits within `N`).
    pub splits: usize,
    /// Number of clusters per configuration *before* splitting, for each
    /// function (≤ b non-empty clusters each).
    pub raw_cluster_counts: Vec<usize>,
    /// How Step 1 arrived at `clusters`: which bucket, split group or
    /// remainder each one is (empty for clusterings that record none).
    pub tree: SplitTree,
}

impl Clustering {
    /// Freezes the recorded split tree over `clusters` into the index that
    /// routes a profile to the clusters `functions` (the family this
    /// clustering ran with) place it in.
    pub fn entry_index(&self, functions: &[FastRandomHash]) -> EntryIndex {
        let seeds: Vec<u64> = functions.iter().map(FastRandomHash::seed).collect();
        let b = functions.first().map_or(1, FastRandomHash::b);
        EntryIndex::build(b, &seeds, &self.tree, &self.clusters)
    }

    /// Cluster sizes sorted in decreasing order (the series of Fig. 8).
    pub fn sizes_desc(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.clusters.iter().map(Vec::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// The size of the largest final cluster.
    pub fn max_size(&self) -> usize {
        self.clusters.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Runs Algorithm 1 plus recursive splitting: clusters `dataset` under each
/// function in `functions`, splitting every cluster larger than
/// `max_size` (the paper's `N`). With `max_size = usize::MAX` splitting is
/// disabled.
pub fn cluster_dataset(
    dataset: &Dataset,
    functions: &[FastRandomHash],
    max_size: usize,
) -> Clustering {
    assert!(max_size >= 2, "max cluster size must allow at least one pair");
    let mut clusters: Vec<Vec<UserId>> = Vec::new();
    let mut splits = 0usize;
    let mut raw_cluster_counts = Vec::with_capacity(functions.len());
    let mut tree = SplitTree::new(functions.len());

    for (f, frh) in functions.iter().enumerate() {
        // Algorithm 1: one pass assigning every user to bucket H(u).
        // Buckets are kept sparse (BTreeMap) because most of the b indices
        // are empty on sparse datasets.
        let mut buckets: BTreeMap<u32, Vec<UserId>> = BTreeMap::new();
        for (u, profile) in dataset.iter() {
            if let Some(h) = frh.user_hash(profile) {
                buckets.entry(h).or_default().push(u);
            }
        }
        raw_cluster_counts.push(buckets.len());
        let mut walk = SplitWalk {
            dataset,
            frh,
            max_size,
            out: &mut clusters,
            splits: &mut splits,
            tree: &mut tree,
        };
        for (eta, users) in buckets {
            walk.split_recursive(users, f as u32, eta);
        }
    }

    Clustering { clusters, num_functions: functions.len(), splits, raw_cluster_counts, tree }
}

/// One function's recursive splitting: the inputs every level shares plus
/// the three outputs it appends to.
struct SplitWalk<'a> {
    dataset: &'a Dataset,
    frh: &'a FastRandomHash,
    max_size: usize,
    out: &'a mut Vec<Vec<UserId>>,
    splits: &'a mut usize,
    tree: &'a mut SplitTree,
}

impl SplitWalk<'_> {
    /// Recursively splits `users` (the group of tree node `parent` with
    /// index `eta`) until every emitted cluster fits within `max_size` or
    /// cannot be split further.
    fn split_recursive(&mut self, users: Vec<UserId>, parent: u32, eta: u32) {
        if users.len() <= self.max_size || eta >= self.frh.b() {
            // Within bounds, or no hash value above η exists: terminal.
            if !users.is_empty() {
                self.tree.leaf(parent, eta, self.out.len());
                self.out.push(users);
            }
            return;
        }
        *self.splits += 1;
        let node = self.tree.split(parent, eta);
        let mut remainder: Vec<UserId> = Vec::new();
        let mut groups: BTreeMap<u32, Vec<UserId>> = BTreeMap::new();
        for u in users {
            match self.frh.user_hash_excluding(self.dataset.profile(u), eta) {
                // Exception 1: H\η undefined (e.g. single-item users) → stay.
                None => remainder.push(u),
                Some(h) => groups.entry(h).or_default().push(u),
            }
        }
        for (new_eta, group) in groups {
            if group.len() == 1 {
                // Exception 2: users alone in their new cluster stay in C.
                remainder.extend(group);
            } else {
                debug_assert!(new_eta > eta, "split must strictly increase the index");
                self.split_recursive(group, node, new_eta);
            }
        }
        if !remainder.is_empty() {
            // The remainder keeps index η; H\η cannot refine it further, so
            // it is terminal even if it still exceeds max_size.
            self.tree.remainder(node, self.out.len());
            self.out.push(remainder);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_dataset::SyntheticConfig;

    fn functions(t: usize, b: u32) -> Vec<FastRandomHash> {
        FastRandomHash::family(0xC2, t, b)
    }

    #[test]
    fn every_user_appears_once_per_function() {
        let ds = SyntheticConfig::small(51).generate();
        let t = 4;
        let clustering = cluster_dataset(&ds, &functions(t, 64), usize::MAX);
        assert_eq!(clustering.clusters.concat().len(), t * ds.num_users());
        // Per-function partition check: count each user's occurrences.
        let mut counts = vec![0usize; ds.num_users()];
        for cluster in &clustering.clusters {
            for &u in cluster {
                counts[u as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == t), "users must appear exactly t times");
    }

    #[test]
    fn splitting_preserves_the_partition() {
        let ds = SyntheticConfig::small(52).generate();
        let t = 3;
        let clustering = cluster_dataset(&ds, &functions(t, 16), 50);
        assert!(clustering.splits > 0, "b=16 over 2000 users must trigger splits");
        let mut counts = vec![0usize; ds.num_users()];
        for cluster in &clustering.clusters {
            for &u in cluster {
                counts[u as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == t), "splitting lost or duplicated users");
    }

    #[test]
    fn entry_index_routes_every_user_to_exactly_its_clusters() {
        // b = 16 over 2000 users with N = 50: deep splits, singleton
        // groups folded into remainders, H\η-undefined users staying put.
        let ds = SyntheticConfig::small(52).generate();
        let fns = functions(3, 16);
        let clustering = cluster_dataset(&ds, &fns, 50);
        assert!(clustering.splits > 0);
        let index = clustering.entry_index(&fns);
        assert_eq!(index.num_clusters(), clustering.clusters.len());
        let mut of_user: Vec<Vec<u32>> = vec![Vec::new(); ds.num_users()];
        for (c, cluster) in clustering.clusters.iter().enumerate() {
            assert_eq!(index.cluster(c as u32), &cluster[..]);
            for &u in cluster {
                of_user[u as usize].push(c as u32);
            }
        }
        let (mut hashes, mut routed) = (Vec::new(), Vec::new());
        for (u, profile) in ds.iter() {
            index.route(profile, &mut hashes, &mut routed);
            // Clusters are emitted function by function, so both lists
            // are in function order.
            assert_eq!(routed, of_user[u as usize], "user {u} routed elsewhere");
        }
    }

    #[test]
    fn split_clusters_respect_max_size_except_terminal_remainders() {
        let ds = SyntheticConfig::small(53).generate();
        let n_max = 100;
        let clustering = cluster_dataset(&ds, &functions(2, 8), n_max);
        // All clusters above the bound must be terminal remainders, which
        // are rare; the bulk must fit.
        let oversized = clustering.clusters.iter().filter(|c| c.len() > n_max).count();
        assert!(
            oversized * 10 <= clustering.clusters.len(),
            "{oversized}/{} clusters exceed N",
            clustering.clusters.len()
        );
        assert!(clustering.max_size() < ds.num_users());
    }

    #[test]
    fn no_splitting_when_clusters_fit() {
        let ds = SyntheticConfig::small(54).generate();
        let clustering = cluster_dataset(&ds, &functions(2, 4096), usize::MAX);
        assert_eq!(clustering.splits, 0);
    }

    #[test]
    fn smaller_n_gives_more_balanced_clusters() {
        // Fig. 7/8 mechanism: decreasing N caps the biggest clusters.
        let ds = SyntheticConfig::small(55).generate();
        let loose = cluster_dataset(&ds, &functions(2, 32), 1000);
        let tight = cluster_dataset(&ds, &functions(2, 32), 60);
        assert!(tight.max_size() <= loose.max_size());
        assert!(tight.clusters.len() >= loose.clusters.len());
    }

    #[test]
    fn users_with_empty_profiles_are_unclustered() {
        let ds = cnc_dataset::Dataset::from_profiles(vec![vec![1, 2], vec![], vec![2, 3]], 0);
        let clustering = cluster_dataset(&ds, &functions(2, 8), usize::MAX);
        let mut seen = [false; 3];
        for cluster in &clustering.clusters {
            for &u in cluster {
                seen[u as usize] = true;
            }
        }
        assert!(seen[0] && seen[2]);
        assert!(!seen[1], "empty-profile user cannot be hashed");
    }

    #[test]
    fn identical_users_share_clusters_in_every_configuration() {
        let ds = cnc_dataset::Dataset::from_profiles(vec![vec![5, 9, 11]; 6], 0);
        let clustering = cluster_dataset(&ds, &functions(4, 64), usize::MAX);
        // Six identical users: each configuration puts all six together.
        assert_eq!(clustering.clusters.len(), 4);
        for cluster in &clustering.clusters {
            assert_eq!(cluster.len(), 6);
        }
    }

    #[test]
    fn raw_cluster_counts_are_bounded_by_b() {
        let ds = SyntheticConfig::small(56).generate();
        let b = 16u32;
        let clustering = cluster_dataset(&ds, &functions(3, b), usize::MAX);
        for &count in &clustering.raw_cluster_counts {
            assert!(count <= b as usize);
        }
    }

    #[test]
    fn sizes_desc_is_sorted() {
        let ds = SyntheticConfig::small(57).generate();
        let clustering = cluster_dataset(&ds, &functions(2, 64), 200);
        let sizes = clustering.sizes_desc();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(sizes.iter().sum::<usize>(), clustering.clusters.concat().len());
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn max_size_one_panics() {
        let ds = SyntheticConfig::small(58).generate();
        cluster_dataset(&ds, &functions(1, 8), 1);
    }
}
