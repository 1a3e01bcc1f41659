//! An online-news-style recommendation pipeline (the paper's motivating
//! application: "online news recommenders, in which the use of fresh data is
//! of utmost importance").
//!
//! Walks the full production loop end to end:
//!
//! 1. **Build** — a batch of user/article interactions arrives and an
//!    approximate KNN graph is built as fast as possible (C² vs the exact
//!    brute force, the paper's Table III protocol at small scale);
//! 2. **Snapshot** — the built serving state (dataset + graph +
//!    fingerprints) is persisted to one binary file;
//! 3. **Reload & serve** — a "serving host" brings the snapshot back up
//!    and answers reader queries while absorbing a stream of new readers,
//!    rebuilding and atomically swapping in a fresh epoch mid-stream.
//!
//! ```text
//! cargo run --release --example news_recommender
//! ```

use cluster_and_conquer::prelude::*;
use cnc_dataset::CrossValidation;
use std::time::Instant;

fn main() {
    // "Articles read" dataset: MovieLens10M calibration at 3% scale.
    let dataset = DatasetProfile::MovieLens10M.generate(0.03, 7);
    println!("news corpus: {}", DatasetStats::compute(&dataset));

    // Hold out 20% of each reader's history as the ground truth to recover.
    let cv = CrossValidation::new(&dataset, 5, 7);
    let split = cv.split(&dataset, 0);
    let k = 20;
    let recommendations = 30;

    // --- Exact pipeline (what freshness constraints cannot afford) -------
    let t0 = Instant::now();
    let sim = cnc_similarity::SimilarityData::build(SimilarityBackend::Raw, &split.train);
    let ctx = BuildContext { dataset: &split.train, sim: &sim, k, threads: 0, seed: 7 };
    let exact_graph = BruteForce.build(&ctx);
    let exact_time = t0.elapsed();
    let exact_recall =
        Recommender::new(&split.train, &exact_graph).recall(&split.test, recommendations);

    // --- C² pipeline (the freshness-friendly path) ------------------------
    let t1 = Instant::now();
    let config = C2Config { k, seed: 7, ..C2Config::default() };
    let result = ClusterAndConquer::new(config).build(&split.train);
    let c2_time = t1.elapsed();
    let c2_recall =
        Recommender::new(&split.train, &result.graph).recall(&split.test, recommendations);

    println!("\n                 build time   recall@{recommendations}");
    println!("exact KNN graph   {:>8.3}s   {:.3}", exact_time.as_secs_f64(), exact_recall);
    println!(
        "C² (ours)         {:>8.3}s   {:.3}   (×{:.1} faster, Δrecall {:+.3})",
        c2_time.as_secs_f64(),
        c2_recall,
        exact_time.as_secs_f64() / c2_time.as_secs_f64(),
        c2_recall - exact_recall
    );

    // Fresh recommendations for one reader.
    let reader: u32 = 3;
    let picks = Recommender::new(&split.train, &result.graph).recommend(reader, 5);
    println!("\ntop-5 fresh articles for reader {reader}: {picks:?}");

    // --- Serving: build → snapshot → reload → queries + streaming inserts
    let serving_config = ServingConfig {
        c2: config,
        runtime: RuntimeConfig::default(),
        beam: BeamSearchConfig { beam_width: 48, entry_points: 8, max_comparisons: 0 },
        // Small epoch budget so the demo stream triggers a swap.
        rebuild_after: 25,
    };
    let t2 = Instant::now();
    let engine = ServingEngine::build(split.train.clone(), serving_config);
    println!(
        "\nserving epoch 1 built on the sharded runtime in {:.3}s",
        t2.elapsed().as_secs_f64()
    );

    let snap_path = std::env::temp_dir().join("news_recommender.snap");
    // Streams straight from the epoch's buffers and renames into place
    // atomically — no clone, and a crash never clobbers a good snapshot.
    let bytes = engine.write_snapshot(&snap_path).expect("snapshot write failed");
    println!("snapshot: {} KiB → {}", bytes / 1024, snap_path.display());

    // A serving host restarts from the file and answers identically.
    let snapshot = Snapshot::load(&snap_path).expect("snapshot load failed");
    let server = ServingEngine::from_snapshot(snapshot, serving_config);
    let probe = split.train.profile(3);
    assert_eq!(
        engine.query(probe, 5, 99).neighbors,
        server.query(probe, 5, 99).neighbors,
        "reloaded engine must answer identically"
    );
    println!("reloaded engine answers queries identically to the builder");

    // Mixed online traffic: cold-start visitors query, new readers sign up.
    let t3 = Instant::now();
    let (mut queries, mut swaps) = (0u32, 0u32);
    let mut session = server.session();
    for i in 0..30u32 {
        // A visitor with a partial history asks for similar readers…
        let visitor: Vec<u32> =
            split.train.profile((i * 13) % 1000).iter().copied().take(10).collect();
        let answer = server.query_with(&mut session, &visitor, 10, i as u64);
        queries += 1;

        // …and a new reader signs up with that history.
        let outcome = server.insert(visitor, i as u64);
        if let Some(epoch) = outcome.published {
            swaps += 1;
            println!(
                "  epoch {epoch} published after {} inserts ({} users served)",
                server.stats().inserts,
                server.stats().num_users
            );
        }
        assert!(!answer.neighbors.is_empty());
    }
    let stats = server.stats();
    println!(
        "served {queries} queries + {} inserts in {:.3}s across {swaps} epoch swap(s); \
         now serving {} readers (epoch {})",
        stats.inserts,
        t3.elapsed().as_secs_f64(),
        stats.num_users,
        stats.epoch,
    );
    let _ = std::fs::remove_file(&snap_path);
}
