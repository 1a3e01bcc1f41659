//! Cross-crate integration tests: the full C² pipeline against the
//! baselines on a community-structured dataset.

use cluster_and_conquer::prelude::*;
use cnc_similarity::SimilarityData;

fn dataset() -> Dataset {
    let mut cfg = SyntheticConfig::small(2024);
    cfg.num_users = 800;
    cfg.num_items = 600;
    cfg.communities = 12;
    cfg.mean_profile = 30.0;
    cfg.min_profile = 10;
    cfg.generate()
}

fn exact(ds: &Dataset, k: usize) -> KnnGraph {
    let sim = SimilarityData::build(SimilarityBackend::Raw, ds);
    let ctx = BuildContext { dataset: ds, sim: &sim, k, threads: 0, seed: 1 };
    BruteForce.build(&ctx)
}

/// `N` = 150 on these 800 users. C²'s cost is `Σ|C|(|C|−1)/2` over
/// clusters of up to `N` members, so it grows with `N`, while Hyrec's does
/// not: at `N` = 200 the two meet at this scale (seed 4 spends 2 % more
/// than Hyrec), at `N` = 150 every seed 0..16 spends at most 79 % of it.
fn c2_config(k: usize) -> C2Config {
    C2Config {
        k,
        b: 128,
        t: 6,
        max_cluster_size: 150,
        backend: SimilarityBackend::Raw,
        seed: 99,
        ..C2Config::default()
    }
}

/// The paper's headline shape, for every seed 0..16 of both algorithms:
/// comparable quality (Δ within ±0.12 at this scale), strictly fewer
/// similarity computations. Hyrec runs on one thread, because the update
/// count that ends its iterations depends on the order concurrent offers
/// land.
#[test]
fn c2_matches_baseline_quality_with_fewer_comparisons() {
    let ds = dataset();
    let k = 10;
    let reference = exact(&ds, k);
    for seed in 0..16 {
        let c2 = ClusterAndConquer::new(C2Config { seed, ..c2_config(k) }).build(&ds);
        let c2_quality = quality(&c2.graph, &reference, &ds);

        // Hyrec on the same (raw) backend.
        let hyrec_sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &hyrec_sim, k, threads: 1, seed };
        let hyrec_graph = Hyrec::default().build(&ctx);
        let hyrec_quality = quality(&hyrec_graph, &reference, &ds);

        assert!(c2_quality > 0.8, "seed {seed}: C2 quality {c2_quality:.3}");
        assert!(
            (c2_quality - hyrec_quality).abs() < 0.12,
            "seed {seed}: quality gap too wide: C2 {c2_quality:.3} vs Hyrec {hyrec_quality:.3}"
        );
        assert!(
            c2.stats.comparisons < hyrec_sim.comparisons(),
            "seed {seed}: C2 {} comparisons vs Hyrec {}",
            c2.stats.comparisons,
            hyrec_sim.comparisons()
        );
    }
}

#[test]
fn all_algorithms_beat_the_random_graph() {
    let ds = dataset();
    let k = 10;
    let random_sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
    let random = KnnGraph::random_init(ds.num_users(), k, 3, |u, v| random_sim.sim(u, v));
    let random_avg = cnc_graph::avg_exact_similarity(&random, &ds);

    let hyrec = Hyrec::default();
    let nnd = NnDescent::default();
    let lsh = Lsh::default();
    let algos: [&dyn KnnAlgorithm; 3] = [&hyrec, &nnd, &lsh];
    for algo in algos {
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k, threads: 0, seed: 3 };
        let graph = algo.build(&ctx);
        let avg = cnc_graph::avg_exact_similarity(&graph, &ds);
        assert!(
            avg > 1.3 * random_avg,
            "{} ({avg:.4}) did not improve over random ({random_avg:.4})",
            algo.name()
        );
    }
    let c2 = ClusterAndConquer::new(c2_config(k)).build(&ds);
    let avg = cnc_graph::avg_exact_similarity(&c2.graph, &ds);
    assert!(avg > 1.3 * random_avg, "C2 ({avg:.4}) vs random ({random_avg:.4})");
}

#[test]
fn pipeline_is_deterministic_on_one_thread() {
    let ds = dataset();
    let config = C2Config { threads: 1, ..c2_config(8) };
    let a = ClusterAndConquer::new(config).build(&ds);
    let b = ClusterAndConquer::new(config).build(&ds);
    assert_eq!(a.stats.comparisons, b.stats.comparisons);
    assert_eq!(a.stats.num_clusters, b.stats.num_clusters);
    for u in ds.users() {
        assert_eq!(a.graph.neighbors(u).sorted(), b.graph.neighbors(u).sorted());
    }
}

#[test]
fn multithreaded_c2_preserves_quality() {
    let ds = dataset();
    let reference = exact(&ds, 8);
    let single = ClusterAndConquer::new(C2Config { threads: 1, ..c2_config(8) }).build(&ds);
    let multi = ClusterAndConquer::new(C2Config { threads: 4, ..c2_config(8) }).build(&ds);
    let q1 = quality(&single.graph, &reference, &ds);
    let q4 = quality(&multi.graph, &reference, &ds);
    // Thread interleaving may reorder tie-breaks, but quality must match.
    assert!((q1 - q4).abs() < 0.01, "thread count changed quality: {q1:.4} vs {q4:.4}");
}

#[test]
fn goldfinger_pipeline_stays_close_to_raw_pipeline() {
    // Table V's shape: GoldFinger trades a small quality delta for speed.
    let ds = dataset();
    let reference = exact(&ds, 10);
    let raw = ClusterAndConquer::new(c2_config(10)).build(&ds);
    let gf = ClusterAndConquer::new(C2Config {
        backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 5 },
        ..c2_config(10)
    })
    .build(&ds);
    let q_raw = quality(&raw.graph, &reference, &ds);
    let q_gf = quality(&gf.graph, &reference, &ds);
    assert!(
        q_raw - q_gf < 0.08,
        "GoldFinger lost too much quality: raw {q_raw:.3} vs gf {q_gf:.3}"
    );
}
