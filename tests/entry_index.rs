//! Integration: the entry index — Step 1's split tree serving queries.
//!
//! Property-tested over small `b` / `N`, so recursive splits (and both of
//! their exceptions) happen on every case: routing a profile reproduces
//! exactly the clusters `ClusterAndConquer::cluster_step` put that user in,
//! the index's clusters are the clustering's, an in-sample search starts
//! from distinct members of those clusters (the user itself among them),
//! and profiles routing cannot place fall back to `entry_points` random
//! seeds.

use cluster_and_conquer::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn dataset(seed: u64, users: usize) -> Dataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.num_users = users;
    cfg.num_items = 160;
    cfg.communities = 5;
    cfg.mean_profile = 9.0;
    cfg.min_profile = 1;
    let generated = cfg.generate();
    // Add the profiles Step 1 treats specially: empty (unclustered),
    // single-item (H\η undefined once their bucket splits) and twins.
    let mut profiles: Vec<Vec<u32>> = generated.iter().map(|(_, p)| p.to_vec()).collect();
    profiles.push(Vec::new());
    profiles.push(vec![profiles[0][0]]);
    profiles.push(profiles[1].clone());
    Dataset::from_profiles(profiles, generated.num_items() as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn in_sample_profiles_route_to_exactly_their_clusters(
        seed in 0u64..10_000,
        users in 150usize..400,
        b in 2u32..16,
        t in 1usize..5,
        max_cluster_size in 2usize..12,
    ) {
        let ds = dataset(seed, users);
        let config = C2Config {
            k: 4,
            b,
            t,
            max_cluster_size,
            backend: SimilarityBackend::Raw,
            seed,
            threads: 1,
            ..C2Config::default()
        };
        let clustering = ClusterAndConquer::new(config).cluster_step(&ds);
        let plan = BuildPlan::assign(&config, &ds);
        let index = plan.entry_index();
        prop_assert!(clustering.splits > 0, "the ranges are chosen so that buckets split");

        // Same clusters, as a set of sets (and, stronger, in order).
        let as_sets = |clusters: &mut dyn Iterator<Item = Vec<u32>>| -> BTreeSet<BTreeSet<u32>> {
            clusters.map(|c| c.into_iter().collect()).collect()
        };
        let step = as_sets(&mut clustering.clusters.iter().cloned());
        let indexed =
            as_sets(&mut (0..index.num_clusters() as u32).map(|c| index.cluster(c).to_vec()));
        prop_assert_eq!(step, indexed);
        prop_assert_eq!(index.num_clusters(), clustering.clusters.len());

        let mut of_user: Vec<Vec<u32>> = vec![Vec::new(); ds.num_users()];
        for (c, cluster) in clustering.clusters.iter().enumerate() {
            for &u in cluster {
                of_user[u as usize].push(c as u32);
            }
        }
        let (mut hashes, mut routed) = (Vec::new(), Vec::new());
        for (u, profile) in ds.iter() {
            index.route(profile, &mut hashes, &mut routed);
            if profile.is_empty() {
                prop_assert!(routed.is_empty(), "an empty profile routes nowhere");
                continue;
            }
            prop_assert_eq!(routed.len(), t, "user {} must route under every function", u);
            prop_assert!(routed.iter().all(|&c| index.cluster(c).contains(&u)));
            prop_assert_eq!(&routed, &of_user[u as usize], "user {} routed elsewhere", u);
        }
    }

    #[test]
    fn in_sample_searches_start_from_distinct_co_members_and_the_user_itself(
        seed in 0u64..10_000,
        users in 150usize..300,
        b in 2u32..16,
        t in 3usize..7,
        max_cluster_size in 2usize..12,
        beam_width in 2usize..24,
    ) {
        let ds = dataset(seed, users);
        let config = C2Config {
            k: 2,
            b,
            t,
            max_cluster_size,
            backend: SimilarityBackend::Raw,
            seed,
            threads: 1,
            ..C2Config::default()
        };
        let graph = ClusterAndConquer::new(config).build(&ds).graph;
        let entries = BuildPlan::assign(&config, &ds).entry_index();
        let index = QueryIndex::new(&ds, &graph).with_entries(&entries);
        // One entry point: an in-sample profile is held by all of its
        // counted clusters, so it never needs random fill.
        let beam = BeamSearchConfig { beam_width, entry_points: 1, max_comparisons: 0 };
        let (mut hashes, mut routed) = (Vec::new(), Vec::new());
        for (u, profile) in ds.iter() {
            if profile.is_empty() {
                continue;
            }
            let full = index.search(profile, beam_width, &beam, u as u64);
            let seeds = full.routed_seeds + full.random_seeds;
            prop_assert_eq!(full.random_seeds, 0, "user {} needed random fill", u);
            prop_assert!(seeds >= 1 && seeds <= beam.max_seeds());
            // Capped at its own seed count, the search scores exactly the
            // seeds (the same prefix) and stops: its beam *is* the seeds.
            let capped = BeamSearchConfig { max_comparisons: seeds, ..beam };
            let start = index.search(profile, beam_width, &capped, u as u64);
            prop_assert_eq!(start.comparisons, seeds);
            prop_assert_eq!(start.neighbors.len(), seeds, "user {}: seeds must be distinct", u);

            entries.route(profile, &mut hashes, &mut routed);
            prop_assert_eq!(routed.len(), t);
            for nb in &start.neighbors {
                prop_assert!(
                    routed.iter().any(|&c| entries.cluster(c).contains(&nb.user)),
                    "user {}: seed {} is in none of its clusters", u, nb.user
                );
            }
            // The user is held by every counted cluster, the highest count
            // there is: it is seeded unless a full beam of users shares
            // all of them too.
            routed.sort_by_key(|&c| entries.cluster(c).len());
            let counted = &routed[..t.div_ceil(2)];
            let sharing_all = entries
                .cluster(counted[0])
                .iter()
                .filter(|&&v| v != u && counted.iter().all(|&c| entries.cluster(c).contains(&v)))
                .count();
            if sharing_all < beam_width {
                prop_assert!(
                    start.neighbors.iter().any(|nb| nb.user == u),
                    "user {} shares its counted clusters with {} users yet is not seeded",
                    u, sharing_all
                );
            }
        }
    }
}

/// Profiles routing cannot place — empty, or hashing only into buckets
/// Step 1 never saw — search from `entry_points` random users, exactly as
/// an index-less search does; everything else starts in its clusters.
#[test]
fn unroutable_profiles_fall_back_to_random_entry_points() {
    let ds = dataset(7, 300);
    let config = C2Config {
        k: 6,
        // A hash range far wider than the item universe: a stranger's
        // items land in buckets no in-sample user opened.
        b: 1 << 20,
        t: 3,
        max_cluster_size: 30,
        backend: SimilarityBackend::Raw,
        threads: 1,
        ..C2Config::default()
    };
    let graph = ClusterAndConquer::new(config).build(&ds).graph;
    let entries = BuildPlan::assign(&config, &ds).entry_index();
    let routed_index = QueryIndex::new(&ds, &graph).with_entries(&entries);
    let plain_index = QueryIndex::new(&ds, &graph);
    let beam = BeamSearchConfig { beam_width: 16, entry_points: 5, max_comparisons: 0 };

    let stranger: Vec<u32> = (500_000..500_006).collect();
    for query in [&[][..], &stranger[..]] {
        let routed = routed_index.search(query, 5, &beam, 3);
        let plain = plain_index.search(query, 5, &beam, 3);
        assert_eq!((routed.routed_seeds, routed.random_seeds), (0, beam.entry_points));
        assert_eq!(routed.neighbors, plain.neighbors);
        assert_eq!(routed.comparisons, plain.comparisons);
    }
    let donor = routed_index.search(ds.profile(11), 5, &beam, 3);
    assert!(donor.routed_seeds > 0, "an in-sample profile starts in its clusters");
    assert_eq!(donor.neighbors[0].user, 11);
}
