//! Telemetry observes, it never steers: a build, a publish and a fixed
//! query set give the same graphs — row by row, in stored order — the
//! same answers and the same comparison counts with the global switch on
//! and off.
//!
//! The switch is process-wide, so this is the one test in its binary:
//! nothing else here can flip it mid-run.

use cluster_and_conquer::prelude::*;

/// Every entry of `graph`, row by row, in stored order.
fn layout(graph: &KnnGraph) -> Vec<(u32, u32)> {
    graph.iter().flat_map(|(_, list)| list.iter().map(|n| (n.user, n.sim.to_bits()))).collect()
}

/// What one run produced, in full.
#[derive(Debug, PartialEq)]
struct Outcome {
    built: Vec<(u32, u32)>,
    built_comparisons: u64,
    served: Vec<(u32, u32)>,
    published: Vec<(u32, u32)>,
    publish_comparisons: u64,
    /// Per query: the answer's `(user, similarity bits)` and its count.
    answers: Vec<(Vec<(u32, u32)>, usize)>,
}

fn run(dataset: &Dataset, telemetry_on: bool) -> Outcome {
    Telemetry::global().enable(telemetry_on);
    let c2 = C2Config {
        k: 8,
        backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 33 },
        seed: 9,
        threads: 2,
        ..C2Config::default()
    };
    let result = ClusterAndConquer::new(c2).build(dataset);

    let config = ServingConfig {
        c2,
        runtime: RuntimeConfig::with_workers(2),
        beam: BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons: 0 },
        rebuild_after: 0,
    };
    let engine = ServingEngine::build(dataset.clone(), config);
    let served = layout(engine.current_epoch().graph());
    for u in 0..32u32 {
        engine.insert(dataset.profile(u * 29).to_vec(), 0);
    }
    engine.publish();
    let epoch = engine.current_epoch();

    // In-sample profiles, the inserted copies' sources, and profiles no
    // user holds (every third item of a user's).
    let answers = (0..48u32)
        .map(|q| {
            let source = dataset.profile(q * 37 % dataset.num_users() as u32);
            let profile: Vec<u32> = match q % 3 {
                0 => source.iter().copied().step_by(3).collect(),
                _ => source.to_vec(),
            };
            let answer = engine.query(&profile, 10, u64::from(q));
            let neighbors = answer.neighbors.iter().map(|n| (n.user, n.sim.to_bits())).collect();
            (neighbors, answer.comparisons)
        })
        .collect();
    Telemetry::global().enable(false);
    Outcome {
        built: layout(&result.graph),
        built_comparisons: result.stats.comparisons,
        served,
        published: layout(epoch.graph()),
        publish_comparisons: epoch.rebuild_stats().comparisons,
        answers,
    }
}

#[test]
fn telemetry_on_and_off_give_identical_graphs_answers_and_counts() {
    let mut cfg = SyntheticConfig::small(31);
    cfg.num_users = 1_500;
    cfg.num_items = 1_500;
    cfg.communities = 8;
    cfg.mean_profile = 18.0;
    cfg.min_profile = 6;
    let dataset = cfg.generate();

    let off = run(&dataset, false);
    assert!(Telemetry::global().span_records().is_empty(), "a run with telemetry off recorded");
    let on = run(&dataset, true);
    let recorded = Telemetry::global().span_summary();
    for name in ["build", "build.patch", "publish"] {
        assert!(recorded.iter().any(|s| s.name == name), "the traced run recorded no {name} span");
    }
    assert!(off.built_comparisons > 0 && off.publish_comparisons > 0);
    assert!(off == on, "telemetry changed a graph, an answer or a count");
}
