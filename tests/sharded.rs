//! Integration: the sharded runtime against the single-process
//! pipeline — equivalence, agreement with the §VIII plan, and scaling.

use cluster_and_conquer::prelude::*;
use cnc_core::plan_deployment;
use cnc_graph::quality as graph_quality;
use cnc_similarity::SimilarityData;

/// The `tests/end_to_end.rs` dataset (same seed and shape).
fn dataset() -> Dataset {
    let mut cfg = SyntheticConfig::small(2024);
    cfg.num_users = 800;
    cfg.num_items = 600;
    cfg.communities = 12;
    cfg.mean_profile = 30.0;
    cfg.min_profile = 10;
    cfg.generate()
}

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

fn exact(ds: &Dataset, k: usize) -> KnnGraph {
    let sim = SimilarityData::build(SimilarityBackend::Raw, ds);
    let ctx = BuildContext { dataset: ds, sim: &sim, k, threads: 0, seed: 1 };
    BruteForce.build(&ctx)
}

#[test]
fn sharded_build_matches_single_process_quality() {
    let ds = dataset();
    let k = 10;
    let reference = exact(&ds, k);
    let builder = ClusterAndConquer::new(c2_config(k));

    let single = builder.build(&ds);
    let sharded = Runtime::new(RuntimeConfig::with_workers(4)).execute(&ds, builder.config());

    let q_single = graph_quality(&single.graph, &reference, &ds);
    let q_sharded = graph_quality(&sharded.graph, &reference, &ds);
    assert!(
        (q_single - q_sharded).abs() < 1e-9,
        "sharded quality {q_sharded:.4} deviates from single-process {q_single:.4}"
    );

    // Stronger than within-noise: the bounded-heap merge is order-
    // independent, so the graphs must be identical neighbourhood by
    // neighbourhood.
    for u in ds.users() {
        assert_eq!(
            sharded.graph.neighbors(u).sorted(),
            single.graph.neighbors(u).sorted(),
            "user {u} differs between sharded and single-process builds"
        );
    }
}

#[test]
fn sharded_comparisons_match_single_process() {
    let ds = dataset();
    let builder = ClusterAndConquer::new(c2_config(10));
    let single = builder.build(&ds);
    let sharded = Runtime::new(RuntimeConfig::with_workers(3)).execute(&ds, builder.config());
    assert_eq!(
        sharded.report.comparisons, single.stats.comparisons,
        "sharded run performed a different amount of similarity work"
    );
}

/// The acceptance criterion's speed-up check. Worker busy times are wall
/// clocks, so real parallel speed-up needs real parallel hardware: on
/// fewer than 4 cores the assertion is skipped (the structural checks
/// above still run everywhere).
#[test]
fn four_workers_speed_up_a_large_build() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Large synthetic dataset with brute-force-heavy clusters.
    let mut cfg = SyntheticConfig::small(777);
    cfg.num_users = 6_000;
    cfg.num_items = 3_000;
    cfg.communities = 16;
    cfg.mean_profile = 25.0;
    cfg.min_profile = 8;
    let ds = cfg.generate();
    let c2 = C2Config {
        k: 10,
        b: 256,
        t: 3,
        max_cluster_size: 600,
        backend: SimilarityBackend::Raw,
        seed: 777,
        ..C2Config::default()
    };
    let builder = ClusterAndConquer::new(c2);

    // The plan itself must promise near-linear scaling on this workload …
    let plan = plan_deployment(&builder.cluster_step(&ds), 4, c2.k, c2.rho);
    assert!(
        plan.speedup() > 3.0,
        "LPT plan predicts only {:.2}× on 4 workers — dataset too lumpy",
        plan.speedup()
    );

    if cores < 4 {
        eprintln!("skipping wall-clock speed-up assertion: {cores} core(s) available, need 4");
        return;
    }

    let one = Runtime::new(RuntimeConfig::with_workers(1)).execute(&ds, builder.config());
    let four = Runtime::new(RuntimeConfig::with_workers(4)).execute(&ds, builder.config());

    // … and the measured wall clock must follow it.
    let t1 = one.report.map_reduce_wall.as_secs_f64();
    let t4 = four.report.map_reduce_wall.as_secs_f64();
    assert!(
        t1 / t4 > 1.5,
        "4-worker map+merge only {:.2}× faster than 1 worker ({t1:.3}s vs {t4:.3}s)",
        t1 / t4
    );
}

mod plan_agreement {
    //! Property tests: the runtime agrees with the §VIII simulation.

    use super::*;
    use cnc_runtime::Runtime;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Measured shuffle entry counts equal the plan's predicted
        /// `merge_traffic`, whichever thread ends up solving a cluster.
        #[test]
        fn measured_shuffle_equals_merge_traffic(seed in 0u64..500, workers in 1usize..6) {
            let mut cfg = SyntheticConfig::small(seed ^ 0xABCD);
            cfg.num_users = 250;
            cfg.num_items = 180;
            cfg.mean_profile = 10.0;
            cfg.min_profile = 2;
            let ds = cfg.generate();
            let c2 = C2Config {
                k: 4,
                b: 16,
                t: 2,
                max_cluster_size: 60,
                backend: SimilarityBackend::Raw,
                seed,
                threads: 1,
                ..C2Config::default()
            };
            let result = Runtime::new(RuntimeConfig::with_workers(workers)).execute(&ds, &c2);
            let clustering = ClusterAndConquer::new(c2).cluster_step(&ds);
            let predicted = plan_deployment(&clustering, workers, c2.k, c2.rho);
            prop_assert_eq!(result.report.shuffle_entries, predicted.merge_traffic);
        }
    }
}
