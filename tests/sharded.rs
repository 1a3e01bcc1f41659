//! Integration: the sharded runtime against the §VIII plan — measured
//! merge traffic and scaling (its graphs are `tests/conformance.rs`'s).

use cluster_and_conquer::prelude::*;
use cnc_core::plan_deployment;

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
