//! Quickstart: build a KNN graph with Cluster-and-Conquer in ~20 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cluster_and_conquer::prelude::*;
use std::time::Instant;

fn main() {
    // 0. Turn telemetry on: every pipeline stage below records a span
    //    (wall time + comparison counts) into the global collector.
    let telemetry = Telemetry::global();
    telemetry.enable(true);

    // 1. A dataset: users × items. Here a seeded synthetic one; plug your
    //    own ratings with `cnc_dataset::io::load_ratings`.
    let dataset = SyntheticConfig::small(42).generate();
    println!("dataset: {}", DatasetStats::compute(&dataset));

    // 2. Configure C². The defaults are the paper's §IV-C setup
    //    (k = 30, b = 4096, t = 8, N = 2000, 1024-bit GoldFinger).
    let config = C2Config { k: 10, ..C2Config::default() };

    // 3. Build the graph.
    let start = Instant::now();
    let result = ClusterAndConquer::new(config).build(&dataset);
    println!(
        "built KNN graph: {} users × k={} in {:.3}s ({} clusters, {} splits, {} similarities)",
        result.graph.num_users(),
        result.graph.k(),
        start.elapsed().as_secs_f64(),
        result.stats.num_clusters,
        result.stats.splits,
        result.stats.comparisons,
    );

    // 4. Use it: the most similar user to user 0.
    let best = result.graph.best_neighbor(0).expect("user 0 has neighbours");
    println!(
        "user 0's nearest neighbour is user {} (estimated Jaccard {:.3}, exact {:.3})",
        best.user,
        best.sim,
        Jaccard::similarity(dataset.profile(0), dataset.profile(best.user)),
    );

    // 5. Where did the time go? The telemetry span summary is the
    //    stage-level breakdown the paper reports in Table 1.
    println!("\nstage                 time        comparisons");
    for span in telemetry.span_summary() {
        let comparisons = span
            .attrs
            .iter()
            .find(|(key, _)| *key == "comparisons")
            .map_or(String::new(), |(_, total)| total.to_string());
        println!("{:<20}  {:>8.3} ms  {:>11}", span.name, span.total_ns as f64 / 1e6, comparisons);
    }
}
