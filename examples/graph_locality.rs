//! Quantifies the paper's Figure 1 intuition: **initial graph locality**.
//!
//! Greedy algorithms start from a random k-degree graph whose neighbours
//! are "unrelated" (average edge similarity ≈ the dataset's background
//! similarity). C²'s clustering instead starts every user among
//! FastRandomHash co-members, whose similarity is provably biased upward
//! (Theorem 1). This example measures both starting configurations on a
//! real-shaped dataset:
//!
//! * random start: average exact similarity of `k` random neighbours;
//! * C² start: average exact similarity of `k` co-cluster members;
//! * query seeds: average exact similarity of up to `k` co-members that
//!   share two or more of the user's smaller clusters — the rule
//!   `cnc-query` seeds a beam search with. The example asserts they are
//!   at least as similar as plain co-members.
//!
//! ```text
//! cargo run --release --example graph_locality
//! ```

use cluster_and_conquer::prelude::*;
use cnc_core::{cluster_dataset, FastRandomHash};
use cnc_graph::avg_exact_similarity;
use cnc_similarity::Jaccard;

fn main() {
    let k = 10;
    let dataset = DatasetProfile::MovieLens10M.generate(0.04, 9);
    println!("dataset: {}", DatasetStats::compute(&dataset));

    // --- (a) Traditional greedy start: k random neighbours ----------------
    let random = KnnGraph::random_init(dataset.num_users(), k, 9, |_, _| 0.0);
    let random_locality = avg_exact_similarity(&random, &dataset);

    // --- (b) C² start: k co-cluster members -------------------------------
    // Build the paper's clustering and, for each user, take k distinct
    // co-members round-robin over her t clusters: in each round, the next
    // member after her in each of her clusters in turn.
    let functions = FastRandomHash::family(9, 8, 4096);
    let clustering = cluster_dataset(&dataset, &functions, 2000);
    let mut of_user: Vec<Vec<usize>> = vec![Vec::new(); dataset.num_users()];
    for (c, cluster) in clustering.clusters.iter().enumerate() {
        for &u in cluster {
            of_user[u as usize].push(c);
        }
    }
    let mut graph = KnnGraph::new(dataset.num_users(), k);
    for (u, clusters) in of_user.iter().enumerate() {
        let u = u as u32;
        let mine: Vec<(&[u32], usize)> = clusters
            .iter()
            .map(|&c| {
                let cluster = clustering.clusters[c].as_slice();
                (cluster, cluster.iter().position(|&v| v == u).expect("u is a member"))
            })
            .collect();
        let longest = mine.iter().map(|(cluster, _)| cluster.len()).max().unwrap_or(0);
        'fill: for offset in 1..longest {
            for &(cluster, i) in &mine {
                if graph.neighbors(u).len() >= k {
                    break 'fill;
                }
                if offset < cluster.len() {
                    graph.insert(u, cluster[(i + offset) % cluster.len()], 0.0);
                }
            }
        }
    }
    let c2_locality = avg_exact_similarity(&graph, &dataset);

    // --- (d) Query seeds: co-members sharing two of the smaller clusters ---
    // For each user, count how many of the smaller half (⌈t/2⌉) of its
    // clusters hold each co-member, and keep up to k held by two or more,
    // highest count first (a stable sort keeps ties in first-appearance
    // order) — the seeds `cnc-query` starts a search of that profile from.
    // Some users have fewer than k such co-members, so this is the mean
    // over the pairs found, not over k·n slots.
    let (mut shared_sum, mut shared_pairs) = (0.0, 0usize);
    let mut count = vec![0usize; dataset.num_users()];
    let mut members: Vec<u32> = Vec::new();
    for (u, clusters) in of_user.iter_mut().enumerate() {
        clusters.sort_by_key(|&c| clustering.clusters[c].len());
        members.clear();
        for &c in &clusters[..clusters.len().div_ceil(2)] {
            for &v in clustering.clusters[c].iter().filter(|&&v| v as usize != u) {
                if count[v as usize] == 0 {
                    members.push(v);
                }
                count[v as usize] += 1;
            }
        }
        members.sort_by_key(|&v| std::cmp::Reverse(count[v as usize]));
        for &v in members.iter().filter(|&&v| count[v as usize] >= 2).take(k) {
            shared_sum += Jaccard::similarity(dataset.profile(u as u32), dataset.profile(v));
            shared_pairs += 1;
        }
        for &v in &members {
            count[v as usize] = 0;
        }
    }
    let shared_locality = shared_sum / shared_pairs.max(1) as f64;

    // --- (c) The ceiling: the exact KNN graph -----------------------------
    let raw = cnc_similarity::SimilarityData::build(SimilarityBackend::Raw, &dataset);
    let ctx = BuildContext { dataset: &dataset, sim: &raw, k, threads: 0, seed: 9 };
    let exact = BruteForce.build(&ctx);
    let exact_locality = avg_exact_similarity(&exact, &dataset);

    println!("\naverage similarity of a user's k = {k} starting neighbours:");
    println!("  (a) random k-degree graph (greedy start) : {random_locality:.4}");
    println!("  (b) FastRandomHash co-cluster members     : {c2_locality:.4}");
    println!("  (c) exact KNN graph (the ceiling)         : {exact_locality:.4}");
    println!(
        "  (d) co-members sharing ≥ 2 smaller clusters: {shared_locality:.4} \
         ({shared_pairs} pairs, {:.0} % of the k·n slots)",
        100.0 * shared_pairs as f64 / (k * dataset.num_users()) as f64
    );
    println!(
        "\nC²'s starting configuration is ×{:.1} closer to the ceiling than the random start,",
        c2_locality / random_locality.max(1e-9)
    );
    println!("which is why its local search needs far fewer similarity computations (Fig 1).");
    println!(
        "Co-members sharing two of the smaller clusters are ×{:.2} as similar again, which is",
        shared_locality / c2_locality.max(1e-9)
    );
    println!("why a query's beam search is seeded with them first.");
    assert!(
        shared_locality >= c2_locality,
        "co-members sharing two smaller clusters ({shared_locality:.4}) must start at least as \
         close as plain co-members ({c2_locality:.4})"
    );
}
