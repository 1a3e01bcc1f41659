//! Integration: the query layer on top of a C²-built graph — the full
//! production loop (build with C², serve out-of-sample queries, absorb new
//! users online).

use cluster_and_conquer::prelude::*;
use cnc_eval::groundtruth::{GroundTruth, GroundTruthConfig};
use std::sync::Arc;

fn dataset() -> Dataset {
    let mut cfg = SyntheticConfig::small(31337);
    cfg.num_users = 700;
    cfg.num_items = 600;
    cfg.communities = 10;
    cfg.mean_profile = 30.0;
    cfg.min_profile = 12;
    cfg.generate()
}

fn c2_config(k: usize) -> C2Config {
    C2Config {
        k,
        b: 128,
        t: 6,
        max_cluster_size: 180,
        backend: SimilarityBackend::Raw,
        seed: 5,
        ..C2Config::default()
    }
}

fn c2_graph(ds: &Dataset, k: usize) -> KnnGraph {
    ClusterAndConquer::new(c2_config(k)).build(ds).graph
}

#[test]
fn beam_search_over_a_c2_graph_answers_out_of_sample_queries() {
    let ds = dataset();
    let graph = c2_graph(&ds, 12);
    let index = QueryIndex::new(&ds, &graph);
    let config = BeamSearchConfig { beam_width: 48, entry_points: 8, max_comparisons: 0 };

    let mut total_recall = 0.0;
    let queries = 15;
    for q in 0..queries {
        // Perturbed copies of existing profiles play the out-of-sample user.
        let mut query: Vec<u32> = ds.profile(q * 31).to_vec();
        query.retain(|&i| i % 7 != 0); // drop ~1/7 of the items
        let approx = index.search(&query, 10, &config, q as u64);
        let exact = index.exact_search(&query, 10);
        total_recall += QueryIndex::recall(&approx, &exact);
        assert!(
            approx.comparisons < ds.num_users(),
            "query {q} cost {} ≥ a linear scan",
            approx.comparisons
        );
    }
    let recall = total_recall / queries as f64;
    assert!(recall > 0.65, "beam-search recall {recall:.3} over C² graph too low");
}

/// The scale-free gate on routed seeding: on the same graph and beam, a
/// search started in the query's own FastRandomHash clusters finds an
/// in-sample donor as its top-1 nearly always, and spends fewer similarity
/// computations in total than the same search started at random users. No
/// absolute recall figure tied to one PRNG stream — only the comparison
/// the paper's argument predicts.
#[test]
fn routed_seeds_find_donors_for_fewer_comparisons_than_random_seeds() {
    let mut cfg = SyntheticConfig::small(2021);
    cfg.num_users = 5000;
    cfg.num_items = 3000;
    cfg.communities = 50;
    cfg.mean_profile = 24.0;
    cfg.min_profile = 8;
    let ds = cfg.generate();
    let config = C2Config {
        k: 10,
        b: 512,
        t: 4,
        max_cluster_size: 250,
        backend: SimilarityBackend::GoldFinger { bits: 256, seed: 17 },
        seed: 11,
        ..C2Config::default()
    };
    let graph = ClusterAndConquer::new(config).build(&ds).graph;
    let entries = BuildPlan::assign(&config, &ds).entry_index();
    let routed = QueryIndex::new(&ds, &graph).with_entries(&entries);
    let random = QueryIndex::new(&ds, &graph);
    let beam = BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons: 0 };
    let (mut routed_searcher, mut random_searcher) = (routed.searcher(), random.searcher());

    let donors: Vec<u32> = (0..ds.num_users() as u32).step_by(17).collect();
    let (mut found, mut routed_cost, mut random_cost) = (0usize, 0usize, 0usize);
    for (q, &donor) in donors.iter().enumerate() {
        let profile = ds.profile(donor);
        let a = routed.search_with(&mut routed_searcher, profile, 10, &beam, q as u64);
        let b = random.search_with(&mut random_searcher, profile, 10, &beam, q as u64);
        assert!(a.routed_seeds > 0 && b.routed_seeds == 0);
        found += usize::from(a.neighbors.first().map(|n| n.user) == Some(donor));
        routed_cost += a.comparisons;
        random_cost += b.comparisons;
    }
    assert!(
        found * 100 >= donors.len() * 95,
        "routed search found only {found} of {} donors as top-1",
        donors.len()
    );
    assert!(
        routed_cost < random_cost,
        "routed seeding spent {routed_cost} comparisons, random seeding {random_cost}"
    );
}

#[test]
fn dynamic_index_absorbs_a_stream_of_new_users() {
    let ds = dataset();
    let graph = c2_graph(&ds, 10);
    let entries = Arc::new(BuildPlan::assign(&c2_config(10), &ds).entry_index());
    let config = BeamSearchConfig { beam_width: 40, entry_points: 8, max_comparisons: 0 };
    let mut index = DynamicIndex::new(&ds, graph, config).with_entries(entries);

    // Stream in twins of existing users; each must find its donor.
    let mut found = 0;
    for i in 0..30u32 {
        let donor = i * 23 % ds.num_users() as u32;
        let (id, cost) = index.add_user(ds.profile(donor).to_vec(), i as u64);
        assert!(cost < ds.num_users(), "insertion cost {cost} ≥ linear scan");
        let knn = index.knn(id);
        if knn.first().map(|n| n.sim) == Some(1.0) {
            found += 1;
        }
    }
    assert!(found >= 25, "only {found}/30 streamed twins located their donor at sim 1.0");
    assert_eq!(index.inserted_users(), 30);
}

#[test]
fn recommender_works_on_a_dynamically_grown_graph() {
    // The graph handed to the recommender can be the dynamic one — the
    // base users' neighbourhoods remain intact or improved.
    let ds = dataset();
    let graph = c2_graph(&ds, 10);
    let before_edges = graph.num_edges();
    let config = BeamSearchConfig { beam_width: 40, entry_points: 8, max_comparisons: 0 };
    let mut index = DynamicIndex::new(&ds, graph, config);
    for i in 0..10u32 {
        index.add_user(ds.profile(i).to_vec(), 1000 + i as u64);
    }
    assert!(index.graph().num_edges() >= before_edges, "insertions must not lose edges");
    // Base users still have full neighbourhoods.
    for u in 0..20u32 {
        assert!(!index.knn(u).is_empty());
    }
}

/// The recall harness against a live engine: exact search scores a
/// perfect recall, the approximate path scores within `[0, 1]`, and
/// recall never falls as the per-query comparison cap loosens.
#[test]
fn recall_harness_is_exact_and_monotone_in_the_comparison_cap() {
    let mut cfg = SyntheticConfig::small(53);
    cfg.num_users = 170;
    cfg.num_items = 170;
    cfg.communities = 6;
    cfg.mean_profile = 16.0;
    cfg.min_profile = 5;
    let config = ServingConfig {
        c2: C2Config {
            k: 8,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 21 },
            seed: 5,
            threads: 1,
            ..C2Config::default()
        },
        runtime: RuntimeConfig::with_workers(2),
        beam: BeamSearchConfig { beam_width: 16, entry_points: 4, max_comparisons: 0 },
        rebuild_after: 0,
    };
    let engine = ServingEngine::build(cfg.generate(), config);
    let truth_cfg = GroundTruthConfig { sample: 10, k: 6, seed: 77 };

    let epoch = engine.current_epoch();
    let truth = GroundTruth::compute(epoch.dataset(), &truth_cfg, 0);

    // Exact search recalls 1.0 on every sampled query.
    let index = epoch.index();
    for (qi, &donor) in truth.queries.iter().enumerate() {
        let exact = index.exact_search(epoch.dataset().profile(donor), truth_cfg.k);
        let ids: Vec<u32> = exact.neighbors.iter().map(|n| n.user).collect();
        assert_eq!(truth.recall_of(qi, &ids), 1.0, "exact search must recall 1.0");
        assert_eq!(exact.comparisons, epoch.dataset().num_users());
    }
    // The approximate path is bounded by 1 and not degenerate.
    for (qi, &donor) in truth.queries.iter().enumerate() {
        let approx = engine.query(epoch.dataset().profile(donor), truth_cfg.k, qi as u64);
        let ids: Vec<u32> = approx.neighbors.iter().map(|n| n.user).collect();
        let recall = truth.recall_of(qi, &ids);
        assert!((0.0..=1.0).contains(&recall));
    }

    // Against the metric the engine ranks by (the GoldFinger estimate), a
    // looser per-query comparison cap never recalls less: a capped search
    // visits a prefix of what the uncapped one visits.
    let gf = epoch.fingerprints().expect("a GoldFinger epoch carries its fingerprints");
    let same_metric =
        GroundTruth::compute_with(epoch.dataset(), &truth_cfg, 0, |d, v| gf.estimate(d, v) as f32);
    let recall_at = |max_comparisons: usize| {
        let beam = BeamSearchConfig { max_comparisons, ..engine.config().beam };
        let answers: Vec<Vec<u32>> = same_metric
            .queries
            .iter()
            .enumerate()
            .map(|(qi, &donor)| {
                let profile = epoch.dataset().profile(donor);
                let found = index.search(profile, truth_cfg.k, &beam, qi as u64).neighbors;
                found.iter().map(|n| n.user).collect()
            })
            .collect();
        same_metric.mean_recall(&answers)
    };
    let recalls = [16, 32, 64, 0].map(recall_at);
    assert!(
        recalls.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "recall fell as the cap rose: {recalls:?}"
    );
}
