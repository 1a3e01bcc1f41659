//! The C²/MinHash ablation of Table IV.
//!
//! "In the Cluster-and-Conquer/MinHash variant, we use t MinHash functions
//! to create t × m clusters, without splitting. The local KNN graphs are
//! computed independently using GoldFinger on the t × m clusters, then
//! merged as in Cluster-and-Conquer." Replacing FastRandomHash's bounded
//! range `⟦1, b⟧` by MinHash's one-bucket-per-item clustering isolates the
//! contribution of the bounded hash space + recursive splitting: on sparse
//! datasets MinHash fragments users into many tiny clusters, hurting both
//! time (more cluster overhead, fewer good candidates per cluster) and the
//! chance that similar users ever co-occur.

use crate::clustering::Clustering;
use cnc_dataset::{Dataset, ItemId, UserId};
use cnc_similarity::MinHasher;
use std::collections::HashMap;

/// Runs Step 1 with `t` MinHash functions instead of FastRandomHash.
///
/// Each function buckets every (non-empty-profile) user by the item that
/// achieves her min-wise value — up to `m = |I|` clusters per function, no
/// recursive splitting.
pub fn cluster_minhash(dataset: &Dataset, root_seed: u64, t: usize) -> Clustering {
    assert!(t > 0, "at least one MinHash function is required");
    let hashers = MinHasher::family(root_seed, t);
    let mut clusters: Vec<Vec<UserId>> = Vec::new();
    let mut raw_cluster_counts = Vec::with_capacity(t);
    for hasher in &hashers {
        let mut buckets: HashMap<ItemId, Vec<UserId>> = HashMap::new();
        for (u, profile) in dataset.iter() {
            if let Some(item) = hasher.bucket(profile) {
                buckets.entry(item).or_default().push(u);
            }
        }
        raw_cluster_counts.push(buckets.len());
        // Deterministic output order (HashMap iteration order is not).
        let mut sorted: Vec<(ItemId, Vec<UserId>)> = buckets.into_iter().collect();
        sorted.sort_unstable_by_key(|(item, _)| *item);
        clusters.extend(sorted.into_iter().map(|(_, users)| users));
    }
    Clustering {
        clusters,
        num_functions: t,
        splits: 0,
        raw_cluster_counts,
        tree: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_dataset::SyntheticConfig;

    #[test]
    fn every_user_appears_once_per_function() {
        let ds = SyntheticConfig::small(61).generate();
        let t = 3;
        let clustering = cluster_minhash(&ds, 9, t);
        let mut counts = vec![0usize; ds.num_users()];
        for cluster in &clustering.clusters {
            for &u in cluster {
                counts[u as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == t));
        assert_eq!(clustering.splits, 0, "MinHash variant never splits");
    }

    #[test]
    fn fragments_more_than_frh_on_sparse_data() {
        // The Table IV mechanism: MinHash produces many more clusters than
        // FastRandomHash with b = 4096 on a sparse dataset.
        let mut cfg = SyntheticConfig::small(62);
        cfg.num_items = 20_000; // sparse: far more items than FRH buckets
        cfg.zipf_exponent = 0.6;
        let ds = cfg.generate();
        let mh = cluster_minhash(&ds, 7, 4);
        let frh_functions = crate::frh::FastRandomHash::family(7, 4, 256);
        let frh = crate::clustering::cluster_dataset(&ds, &frh_functions, usize::MAX);
        assert!(
            mh.clusters.len() > frh.clusters.len(),
            "MinHash ({}) should fragment more than FRH ({})",
            mh.clusters.len(),
            frh.clusters.len()
        );
    }

    #[test]
    fn identical_users_always_share_their_bucket() {
        let ds = cnc_dataset::Dataset::from_profiles(vec![vec![1, 2, 3]; 5], 0);
        let clustering = cluster_minhash(&ds, 3, 4);
        assert_eq!(clustering.clusters.len(), 4);
        for cluster in &clustering.clusters {
            assert_eq!(cluster.len(), 5);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = SyntheticConfig::small(63).generate();
        let a = cluster_minhash(&ds, 11, 2);
        let b = cluster_minhash(&ds, 11, 2);
        assert_eq!(a.clusters, b.clusters);
    }
}
