//! Integration tests of the beyond-the-paper extension features composing
//! with the main pipeline: profile sampling → C², classification on C²
//! graphs, deployment planning on the real clustering.

use cluster_and_conquer::prelude::*;
use cnc_core::{cluster_dataset, plan_deployment, FastRandomHash};
use cnc_dataset::{sample_profiles, SamplingPolicy};

fn dataset() -> Dataset {
    let mut cfg = SyntheticConfig::small(4242);
    cfg.num_users = 600;
    cfg.num_items = 500;
    cfg.communities = 10;
    cfg.mean_profile = 35.0;
    cfg.min_profile = 12;
    cfg.generate()
}

fn c2(k: usize) -> ClusterAndConquer {
    ClusterAndConquer::new(C2Config {
        k,
        b: 128,
        t: 6,
        max_cluster_size: 150,
        backend: SimilarityBackend::Raw,
        seed: 7,
        ..C2Config::default()
    })
}

#[test]
fn sampling_preprocessing_composes_with_c2() {
    let ds = dataset();
    let full = c2(8).build(&ds);

    // Cap profiles at 15 items with the least-popular policy [39].
    let sampled = sample_profiles(&ds, 15, SamplingPolicy::LeastPopular, 3);
    let cheap = c2(8).build(&sampled);

    // Sampling must cut the similarity *cost per comparison* while keeping
    // a usable graph: quality measured on the ORIGINAL dataset.
    let sim = cnc_similarity::SimilarityData::build(SimilarityBackend::Raw, &ds);
    let ctx = BuildContext { dataset: &ds, sim: &sim, k: 8, threads: 0, seed: 7 };
    let exact = BruteForce.build(&ctx);
    let q_full = quality(&full.graph, &exact, &ds);
    let q_sampled = quality(&cheap.graph, &exact, &ds);
    assert!(q_full > 0.8);
    assert!(
        q_sampled > 0.5 * q_full,
        "least-popular sampling destroyed the graph: {q_sampled:.3} vs {q_full:.3}"
    );
    // Least-popular must beat most-popular (the [39] finding).
    let anti = sample_profiles(&ds, 15, SamplingPolicy::MostPopular, 3);
    let anti_graph = c2(8).build(&anti);
    let q_anti = quality(&anti_graph.graph, &exact, &ds);
    assert!(
        q_sampled >= q_anti - 0.05,
        "least-popular ({q_sampled:.3}) should not lose to most-popular ({q_anti:.3})"
    );
}

#[test]
fn classifier_on_c2_graph_beats_chance_by_a_wide_margin() {
    let mut cfg = SyntheticConfig::small(777);
    cfg.num_users = 600;
    cfg.communities = 8;
    cfg.affinity = 0.85;
    let ds = cfg.generate();
    let result = c2(10).build(&ds);
    let truth: Vec<u32> = ds.users().map(|u| cfg.community_of(u)).collect();
    let labels: Vec<Option<u32>> =
        ds.users().map(|u| if u % 3 == 0 { Some(truth[u as usize]) } else { None }).collect();
    let clf = KnnClassifier::new(&result.graph, &labels);
    let accuracy = clf.accuracy(&truth);
    let chance = 1.0 / cfg.communities as f64;
    assert!(
        accuracy > 4.0 * chance,
        "accuracy {accuracy:.3} not far enough above chance {chance:.3}"
    );
}

#[test]
fn deployment_plan_on_real_clustering_scales() {
    let ds = dataset();
    let functions = FastRandomHash::family(7, 6, 128);
    let clustering = cluster_dataset(&ds, &functions, 150);
    let plan1 = plan_deployment(&clustering, 1, 10, 5);
    let plan4 = plan_deployment(&clustering, 4, 10, 5);
    assert_eq!(plan1.total_cost(), plan4.total_cost(), "work is conserved");
    assert!(plan4.speedup() > 2.0, "4 workers speed-up {:.2} too low", plan4.speedup());
    assert!(plan4.imbalance() < 1.5, "imbalance {:.2}", plan4.imbalance());
    // Shuffle volume is bounded by t·n·k.
    assert!(plan4.merge_traffic <= (6 * ds.num_users() * 10) as u64);
}
