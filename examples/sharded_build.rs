//! Sharded graph construction (§VIII, executed).
//!
//! Builds the same C² KNN graph twice — once with the in-process pipeline,
//! once on `cnc-runtime`'s sharded engine with its file-backed spill lane
//! — then compares the deployment plan's *predicted* figures with the
//! engine's *measured* ones and checks the two graphs agree.
//!
//! ```text
//! cargo run --release --example sharded_build
//! ```

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

    // Sharded build: 4 map workers, each spilling its partial lists to
    // disk and replaying them once it is done.
    let runtime = RuntimeConfig { workers: 4, spill: SpillMode::Always };
    let sharded = Runtime::new(runtime).execute(&dataset, builder.config());
    let report = &sharded.report;

    println!("\nsharded build over {} workers:", report.workers.len());
    println!("  predicted speed-up (LPT plan):  {:.2}", report.plan.speedup());
    println!("  measured speed-up (Σbusy/max):  {:.2}", report.measured_speedup());
    println!("  predicted imbalance:            {:.3}", report.plan.imbalance());
    println!("  measured imbalance:             {:.3}", report.measured_imbalance());
    println!("  predicted shuffle entries:      {}", report.plan.merge_traffic);
    println!("  measured shuffle entries:       {}", report.shuffle_entries);
    println!("  clusters stolen by idle shards: {}", report.stolen_clusters());
    println!(
        "  spilled to disk:                {} entries, {} bytes",
        report.total_spill_entries(),
        report.total_spill_bytes()
    );
    println!(
        "  map+merge wall:                 {:.1} ms",
        report.map_reduce_wall.as_secs_f64() * 1e3
    );
    for w in &report.workers {
        println!(
            "    worker {}: {} clusters ({} stolen), busy {:.1} ms, handed over {} entries \
             ({} spilled)",
            w.worker,
            w.clusters.len(),
            w.stolen,
            w.busy.as_secs_f64() * 1e3,
            w.shuffle_entries,
            w.spilled_entries,
        );
    }
    report.check_invariants().expect("merge accounting must balance");

    // The shared merge is order-independent, so the graphs must agree.
    let agree = dataset
        .users()
        .all(|u| sharded.graph.neighbors(u).sorted() == single.graph.neighbors(u).sorted());
    println!("\ngraphs identical: {agree}");
    assert!(agree, "sharded and single-process graphs diverged");
}
