//! Cross-layer telemetry tests: the spans the instrumented layers
//! promise, with the figures their typed results return.
//!
//! The span collector is shared by every test in this binary (and they
//! run in parallel), so each test finds *its own* spans by their
//! attributes, never by global totals. Whether telemetry changes any
//! result is `tests/telemetry_identity.rs`'s question, in a binary of its
//! own: this one leaves the global switch on.

use cluster_and_conquer::prelude::*;
use cnc_telemetry::SpanRecord;

/// The value of `key` on `record`, if it carries one.
fn attr(record: &SpanRecord, key: &str) -> Option<u64> {
    record.attrs.iter().find(|(k, _)| *k == key).map(|&(_, value)| value)
}

#[test]
fn instrumented_build_emits_spans_and_counts_comparisons() {
    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let dataset = SyntheticConfig::small(97).generate();
    let config = C2Config { k: 8, ..C2Config::default() };
    let result = ClusterAndConquer::new(config).build(&dataset);
    assert!(result.stats.comparisons > 0);

    // The build's own span carries exactly the comparisons its typed
    // result returns; parallel tests record other `build` spans beside it.
    let ours = telemetry.span_records().into_iter().any(|r| {
        r.name == "build"
            && attr(&r, "comparisons") == Some(result.stats.comparisons)
            && attr(&r, "users") == Some(dataset.num_users() as u64)
    });
    assert!(ours, "no build span carrying this build's comparisons");

    let summary = telemetry.span_summary();
    for stage in ["build", "build.assign", "build.local_knn"] {
        let span = summary
            .iter()
            .find(|s| s.name == stage)
            .unwrap_or_else(|| panic!("no {stage:?} span recorded"));
        assert!(span.count >= 1);
        assert!(span.total_ns > 0, "{stage} recorded zero wall time");
    }
}

#[test]
fn exports_render_after_a_real_build() {
    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let dataset = SyntheticConfig::small(98).generate();
    let config = C2Config { k: 6, ..C2Config::default() };
    ClusterAndConquer::new(config).build(&dataset);

    let profile = telemetry.json_profile();
    assert!(profile.contains("\"spans\""));
    assert!(profile.contains("\"name\": \"build\""), "missing build span in:\n{profile}");
    assert!(profile.contains("\"comparisons\": "), "missing span attribute in:\n{profile}");
    assert_eq!(profile.matches('{').count(), profile.matches('}').count());

    let trace = telemetry.chrome_trace();
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"build\""));
    assert_eq!(trace.matches('[').count(), trace.matches(']').count());
}

#[test]
fn epoch_adoption_reports_its_load_path() {
    use cluster_and_conquer::serve::AdoptedSnapshot;
    use cnc_similarity::SimilarityBackend;

    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let mut cfg = SyntheticConfig::small(55);
    cfg.num_users = 120;
    cfg.num_items = 100;
    let ds = cfg.generate();
    let config = ServingConfig {
        c2: C2Config {
            k: 6,
            backend: SimilarityBackend::GoldFinger { bits: 256, seed: 3 },
            threads: 1,
            ..C2Config::default()
        },
        ..ServingConfig::default()
    };
    let engine = ServingEngine::build(ds, config);
    let path = std::env::temp_dir().join(format!(
        "cnc-telemetry-adopt-{}-{:?}.snap",
        std::process::id(),
        std::thread::current().id(),
    ));
    let bytes = engine.write_snapshot(&path).unwrap();

    // One adoption per load path. The typed `mapped` says which path
    // produced the state, and that path's span says what it read.
    let preferred = AdoptedSnapshot::open(&path).unwrap();
    let preferred_mapped = preferred.mapped;
    engine.adopt(preferred);
    let copied = AdoptedSnapshot::load_copied(&path).unwrap();
    assert!(!copied.mapped);
    engine.adopt(copied);
    let _ = std::fs::remove_file(&path);

    let stats = engine.stats();
    assert_eq!((stats.epoch_swaps, stats.epoch, stats.num_users), (2, 3, 120));
    let read = |name: &str| {
        telemetry.span_records().into_iter().any(|r| {
            r.name == name && attr(&r, "bytes") == Some(bytes) && attr(&r, "users") == Some(120)
        })
    };
    assert!(read("snapshot.load"), "the copy adoption recorded no snapshot.load span");
    if preferred_mapped {
        assert!(read("snapshot.mmap"), "the mapped adoption recorded no snapshot.mmap span");
    }
}

#[test]
fn query_seed_sources_are_counted() {
    use cnc_similarity::SimilarityBackend;

    let mut cfg = SyntheticConfig::small(56);
    cfg.num_users = 150;
    cfg.num_items = 120;
    let ds = cfg.generate();
    let config = ServingConfig {
        c2: C2Config { k: 6, backend: SimilarityBackend::Raw, threads: 1, ..C2Config::default() },
        ..ServingConfig::default()
    };
    let engine = ServingEngine::build(ds.clone(), config);

    // An in-sample profile starts in its clusters; an empty one has
    // nowhere to route and draws `entry_points` random users. The result
    // of each query counts its own seeds.
    let placed = engine.query(ds.profile(4), 5, 1);
    assert!(placed.routed_seeds > 0);
    let lost = engine.query(&[], 5, 2);
    assert_eq!((lost.routed_seeds, lost.random_seeds), (0, config.beam.entry_points));

    // The batch path counts per query too, the same as the single path.
    let requests = [cluster_and_conquer::serve::BatchRequest {
        profile: ds.profile(9).to_vec(),
        k: 5,
        seed: 3,
    }];
    let batched = engine.query_batch(&requests).remove(0).unwrap();
    let single = engine.query(ds.profile(9), 5, 3);
    assert_eq!((batched.routed_seeds, batched.random_seeds), (single.routed_seeds, 0));
    assert!(batched.routed_seeds > 0);

    // Every one of the four queries was counted, whichever path it took.
    assert_eq!(engine.stats().queries, 4, "queries went uncounted");
}

#[test]
fn publish_spans_say_what_the_rebuild_did_and_why() {
    use cnc_core::RebuildPath;
    use cnc_similarity::SimilarityBackend;

    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let mut cfg = SyntheticConfig::small(57);
    cfg.num_users = 180;
    cfg.num_items = 140;
    let ds = cfg.generate();
    let config = ServingConfig {
        c2: C2Config { k: 6, backend: SimilarityBackend::Raw, threads: 1, ..C2Config::default() },
        rebuild_after: 0,
        ..ServingConfig::default()
    };
    let engine = ServingEngine::build(ds.clone(), config);
    for i in 0..3u32 {
        engine.insert(ds.profile(i * 13).to_vec(), i as u64);
    }
    assert_eq!(engine.stats().pending_inserts, 3);
    engine.publish();
    let rebuild = engine.current_epoch().rebuild_stats();
    assert_eq!(rebuild.path, RebuildPath::Patched);
    assert!(rebuild.rows_patched > 0 && rebuild.comparisons > 0);

    // The collector is shared with the other tests: look for *our* spans
    // — the ones carrying exactly this rebuild's figures.
    let records = telemetry.span_records();
    let ours = |name: &str| {
        records.iter().find(|r| {
            r.name == name
                && attr(r, "path") == Some(RebuildPath::Patched as u64)
                && attr(r, "comparisons") == Some(rebuild.comparisons)
                && attr(r, "rows_patched") == Some(rebuild.rows_patched as u64)
                && attr(r, "rows_recomputed") == Some(rebuild.rows_recomputed as u64)
        })
    };
    let publish = ours("publish").expect("no publish span with this rebuild's figures");
    assert_eq!(attr(publish, "clusters_resolved"), Some(rebuild.clusters_resolved as u64));
    assert_eq!(attr(publish, "users"), Some(180 + 3));
    let patch = ours("build.patch").expect("no build.patch span with this rebuild's figures");
    assert_eq!(attr(patch, "dirty"), Some(rebuild.clusters_resolved as u64));
    // The patch stage sits beside the partition stage, not inside it.
    let partition = records
        .iter()
        .find(|r| {
            r.name == "build.partition" && r.thread == patch.thread && r.parent == patch.parent
        })
        .expect("no build.partition span beside build.patch");
    assert!(partition.start_ns <= patch.start_ns);

    // The cold first build took the other path and said so.
    let cold = records
        .iter()
        .any(|r| r.name == "build.patch" && attr(r, "path") == Some(RebuildPath::Cold as u64));
    assert!(cold, "the initial build's patch stage must record that it declined");
}

#[test]
fn disabled_telemetry_records_no_new_spans() {
    // A private instance (not the global one): enabling/disabling the
    // global mid-test would race the integration tests above.
    let telemetry = cnc_telemetry::Telemetry::new();
    {
        let mut span = telemetry.span("never");
        span.attr("x", 1);
    }
    telemetry.record_complete("never.complete", 0, 5, vec![("x", 1)]);
    assert_eq!(telemetry.stamp(), 0);
    assert!(telemetry.span_records().is_empty());
}
