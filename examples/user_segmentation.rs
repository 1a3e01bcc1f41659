//! User segmentation via KNN classification + capacity planning for a
//! distributed deployment (the paper's intro application [1], [2] and its
//! §VIII future-work direction).
//!
//! Scenario: a service knows the segment (community) of 30% of its users
//! and wants to label the rest. A C² KNN graph powers a similarity-weighted
//! majority-vote classifier; the same clustering also feeds the map-reduce
//! deployment planner to answer "how would this scale out to W workers?".
//!
//! ```text
//! cargo run --release --example user_segmentation
//! ```

use cluster_and_conquer::prelude::*;
use cnc_core::{cluster_dataset, plan_deployment, FastRandomHash};
use cnc_eval::KnnClassifier;
use std::time::Instant;

fn main() {
    // A dataset with 12 latent segments.
    let mut cfg = SyntheticConfig::small(33);
    cfg.num_users = 3_000;
    cfg.communities = 12;
    cfg.affinity = 0.8;
    let dataset = cfg.generate();
    println!("dataset: {}", DatasetStats::compute(&dataset));

    // Build the KNN graph with C².
    let config = C2Config { k: 10, seed: 33, ..C2Config::default() };
    let start = Instant::now();
    let result = ClusterAndConquer::new(config).build(&dataset);
    println!(
        "C² graph built in {:.3}s ({} similarity computations)",
        start.elapsed().as_secs_f64(),
        result.stats.comparisons
    );

    // Label 30% of users with their ground-truth segment, classify the rest.
    let truth: Vec<u32> = dataset.users().map(|u| cfg.community_of(u)).collect();
    let labels: Vec<Option<u32>> =
        dataset.users().map(|u| if u % 10 < 3 { Some(truth[u as usize]) } else { None }).collect();
    let classifier = KnnClassifier::new(&result.graph, &labels);
    let accuracy = classifier.accuracy(&truth);
    println!(
        "\nsegment classification: {:.1}% accuracy over {} unlabelled users \
         (chance level: {:.1}%)",
        accuracy * 100.0,
        labels.iter().filter(|l| l.is_none()).count(),
        100.0 / cfg.communities as f64
    );

    // Capacity planning: how would Step 2 scale across a cluster of workers?
    let functions = FastRandomHash::family(33, config.t, config.b);
    let clustering = cluster_dataset(&dataset, &functions, config.max_cluster_size);
    println!("\nmap-reduce deployment plan (Algorithm-2 cost model):");
    println!("{:>8} {:>12} {:>9} {:>10}", "workers", "makespan", "speed-up", "imbalance");
    for workers in [1usize, 2, 4, 8, 16] {
        let plan = plan_deployment(&clustering, workers, config.k, config.rho);
        println!(
            "{:>8} {:>12} {:>9.2} {:>10.3}",
            workers,
            plan.makespan(),
            plan.speedup(),
            plan.imbalance()
        );
    }
    let plan = plan_deployment(&clustering, 8, config.k, config.rho);
    println!(
        "\nreduce-phase shuffle volume: {} (user, neighbour, sim) entries",
        plan.merge_traffic
    );
}
