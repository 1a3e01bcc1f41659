//! Sharded graph construction (§VIII, executed).
//!
//! Builds the same C² KNN graph twice — once with the in-process pipeline,
//! once on `cnc-runtime`'s sharded engine with its file-backed spill lane
//! — then prints the §VIII deployment plan's *predicted* figures beside
//! the engine's *measured* wall-clock, shuffle and spill totals, and
//! checks the two graphs agree.
//!
//! ```text
//! cargo run --release --example sharded_build
//! ```

use cluster_and_conquer::core::plan_deployment;
use cluster_and_conquer::prelude::*;
use std::time::Instant;

fn main() {
    // A mid-size dataset with enough clusters to shard meaningfully.
    let mut cfg = SyntheticConfig::small(4242);
    cfg.num_users = 4_000;
    cfg.num_items = 2_000;
    cfg.communities = 16;
    cfg.mean_profile = 25.0;
    cfg.min_profile = 8;
    let dataset = cfg.generate();
    println!("dataset: {}", DatasetStats::compute(&dataset));

    let c2 = C2Config {
        k: 10,
        b: 256,
        t: 4,
        max_cluster_size: 400,
        backend: SimilarityBackend::Raw,
        seed: 4242,
        ..C2Config::default()
    };
    let builder = ClusterAndConquer::new(c2);

    // Single-process reference build.
    let start = Instant::now();
    let single = builder.build(&dataset);
    let single_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nsingle-process build: {} clusters, {} comparisons, {:.1} ms",
        single.stats.num_clusters, single.stats.comparisons, single_ms,
    );

    // Sharded build: 4 worker threads, every partial list spilled to the
    // build's spill stream on disk and replayed once all clusters are
    // solved.
    let workers = 4;
    let runtime = RuntimeConfig { workers, spill: SpillMode::Always };
    let sharded = Runtime::new(runtime).execute(&dataset, builder.config());
    let report = &sharded.report;
    let plan = plan_deployment(&builder.cluster_step(&dataset), workers, c2.k, c2.rho);

    println!("\nsharded build on {workers} threads:");
    println!("  predicted speed-up (LPT plan):  {:.2}", plan.speedup());
    println!("  predicted imbalance:            {:.3}", plan.imbalance());
    println!(
        "  map+merge wall:                 {:.1} ms",
        report.map_reduce_wall.as_secs_f64() * 1e3
    );
    println!("  predicted shuffle entries:      {}", plan.merge_traffic);
    println!("  measured shuffle entries:       {}", report.shuffle_entries);
    println!(
        "  spilled to disk:                {} entries, {} bytes",
        report.spilled_entries, report.spilled_bytes
    );
    assert_eq!(report.shuffle_entries, plan.merge_traffic, "the merge took an unplanned volume");
    assert_eq!(report.spilled_entries, report.shuffle_entries, "Always spills every entry");

    // The shared merge is order-independent, so the graphs must agree.
    let agree = dataset
        .users()
        .all(|u| sharded.graph.neighbors(u).sorted() == single.graph.neighbors(u).sorted());
    println!("\ngraphs identical: {agree}");
    assert!(agree, "sharded and single-process graphs diverged");
}
