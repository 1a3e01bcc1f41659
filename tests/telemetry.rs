//! Cross-layer telemetry tests: histogram laws (property-based), sharded
//! counter correctness under thread storms, and end-to-end presence of
//! the spans/metrics the instrumented layers promise.
//!
//! The global registry is shared by every test in this binary (and they
//! run in parallel), so the integration tests assert *presence and
//! lower bounds* on global state, and exact equalities only on local
//! `Histogram`/`Counter` instances or per-run handles they own.

use cluster_and_conquer::prelude::*;
use cnc_telemetry::{Counter, Histogram};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Histogram laws
// ---------------------------------------------------------------------

proptest! {
    /// Quantiles are monotone in `q` for any sample set.
    #[test]
    fn histogram_quantiles_are_monotone(
        samples in proptest::collection::vec(0u64..1u64 << 40, 1..200),
        qa_millis in 0u32..1000,
        qb_millis in 0u32..1000,
    ) {
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let (qa, qb) = (f64::from(qa_millis) / 1000.0, f64::from(qb_millis) / 1000.0);
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(hist.quantile(lo) <= hist.quantile(hi));
    }

    /// Merging two histograms is exactly equivalent to recording the
    /// concatenated sample stream into one.
    #[test]
    fn histogram_merge_equals_concatenation(
        left in proptest::collection::vec(0u64..1u64 << 40, 0..100),
        right in proptest::collection::vec(0u64..1u64 << 40, 0..100),
    ) {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for &s in &left {
            a.record(s);
            combined.record(s);
        }
        for &s in &right {
            b.record(s);
            combined.record(s);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), combined.count());
        prop_assert_eq!(a.sum(), combined.sum());
        prop_assert_eq!(a.min(), combined.min());
        prop_assert_eq!(a.max(), combined.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), combined.quantile(q));
        }
    }

    /// Every power of two is a bucket lower bound, so a histogram holding
    /// only copies of `1 << e` reports that exact value at any quantile.
    #[test]
    fn power_of_two_samples_report_exactly(e in 0u32..63, n in 1usize..50) {
        let value = 1u64 << e;
        let hist = Histogram::new();
        for _ in 0..n {
            hist.record(value);
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            prop_assert_eq!(hist.quantile(q), value);
        }
    }

    /// The bucket a value lands in never claims a lower bound above the
    /// value, and quantiles only quantize downward within one sub-bucket.
    #[test]
    fn bucket_lower_bound_never_exceeds_value(v in 0u64..u64::MAX / 2) {
        let idx = Histogram::bucket_index(v);
        let lower = Histogram::bucket_lower_bound(idx);
        prop_assert!(lower <= v, "bucket {idx} lower bound {lower} > value {v}");
        let hist = Histogram::new();
        hist.record(v);
        prop_assert_eq!(hist.quantile(0.5), lower);
    }
}

// ---------------------------------------------------------------------
// Sharded counter under contention
// ---------------------------------------------------------------------

#[test]
fn sharded_counter_is_exact_under_thread_storm() {
    let counter = Counter::new();
    let threads = 8;
    let increments_per_thread = 50_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let counter = &counter;
            scope.spawn(move || {
                for i in 0..increments_per_thread {
                    // Mix inc() and add() so both paths see contention.
                    if (t + i) % 2 == 0 {
                        counter.inc();
                    } else {
                        counter.add(1);
                    }
                }
            });
        }
    });
    assert_eq!(counter.value(), threads * increments_per_thread);
}

// ---------------------------------------------------------------------
// Cross-layer integration (presence-based: the registry is global)
// ---------------------------------------------------------------------

#[test]
fn instrumented_build_emits_spans_and_counts_comparisons() {
    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let comparisons_handle = telemetry.counter("cnc_build_comparisons_total", &[]);
    let before = comparisons_handle.value();

    let dataset = SyntheticConfig::small(97).generate();
    let config = C2Config { k: 8, ..C2Config::default() };
    let result = ClusterAndConquer::new(config).build(&dataset);
    assert!(result.stats.comparisons > 0);

    // The per-run delta on our own handle must cover this build exactly
    // once (parallel tests may add more, never subtract).
    let delta = comparisons_handle.value() - before;
    assert!(
        delta >= result.stats.comparisons,
        "registry delta {delta} < build's own count {}",
        result.stats.comparisons
    );

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

    let built = telemetry.registry().counter_values();
    assert!(
        built.iter().any(|(key, value)| key.name == "cnc_build_comparisons_total" && *value > 0),
        "missing counter in {built:?}"
    );

    let profile = telemetry.json_profile();
    assert!(profile.contains("\"counters\""));
    assert!(profile.contains("cnc_build_comparisons_total"));
    assert_eq!(profile.matches('{').count(), profile.matches('}').count());

    let trace = telemetry.chrome_trace();
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"build\""));
    assert_eq!(trace.matches('[').count(), trace.matches(']').count());
}

#[test]
fn epoch_adoption_records_latency_and_path_counters() {
    use cluster_and_conquer::serve::AdoptedSnapshot;
    use cnc_similarity::SimilarityBackend;

    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let adopt_seconds = telemetry.histogram("cnc_epoch_adopt_seconds", &[]);
    let adopt_mmap = telemetry.counter("cnc_epoch_adopt_total", &[("path", "mmap")]);
    let adopt_copy = telemetry.counter("cnc_epoch_adopt_total", &[("path", "copy")]);
    let (hist_before, mmap_before, copy_before) =
        (adopt_seconds.count(), adopt_mmap.value(), adopt_copy.value());

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
    engine.write_snapshot(&path).unwrap();

    // One adoption per load path; each must record a latency sample and
    // bump its own path counter.
    let preferred = AdoptedSnapshot::open(&path).unwrap();
    let preferred_mapped = preferred.mapped;
    engine.adopt(preferred);
    let copied = AdoptedSnapshot::load_copied(&path).unwrap();
    engine.adopt(copied);
    let _ = std::fs::remove_file(&path);

    assert!(
        adopt_seconds.count() >= hist_before + 2,
        "both adoptions must record cnc_epoch_adopt_seconds"
    );
    assert!(adopt_copy.value() > copy_before, "the copy adoption must count path=copy");
    if preferred_mapped {
        assert!(adopt_mmap.value() > mmap_before, "the mapped adoption must count path=mmap");
    }

    let profile = telemetry.json_profile();
    assert!(profile.contains("cnc_epoch_adopt_seconds"), "missing histogram in:\n{profile}");
    assert!(profile.contains("cnc_epoch_adopt_total"), "missing counter in:\n{profile}");
    assert!(profile.contains("\"path\":\"copy\""), "missing path label in:\n{profile}");
}

#[test]
fn query_seed_sources_are_counted() {
    use cnc_similarity::SimilarityBackend;

    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let routed = telemetry.counter("cnc_query_seeds_total", &[("source", "routed")]);
    let random = telemetry.counter("cnc_query_seeds_total", &[("source", "random")]);
    let outcomes = ["served", "empty"]
        .map(|outcome| telemetry.counter("cnc_queries_total", &[("outcome", outcome)]));
    let answered = || outcomes.iter().map(|c| c.value()).sum::<u64>();
    let latency = telemetry.histogram("cnc_query_latency_ns", &[]);
    let (answered_before, timed_before) = (answered(), latency.count());

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
    // nowhere to route and draws `entry_points` random users. Other tests
    // share the registry, so deltas are lower bounds.
    let (routed_before, random_before) = (routed.value(), random.value());
    let placed = engine.query(ds.profile(4), 5, 1);
    assert!(placed.routed_seeds > 0);
    assert!(routed.value() - routed_before >= placed.routed_seeds as u64);
    let lost = engine.query(&[], 5, 2);
    assert_eq!((lost.routed_seeds, lost.random_seeds), (0, config.beam.entry_points));
    assert!(random.value() - random_before >= lost.random_seeds as u64);

    // The batch path accounts per query too.
    let routed_before = routed.value();
    let requests = [cluster_and_conquer::serve::BatchRequest {
        profile: ds.profile(9).to_vec(),
        k: 5,
        seed: 3,
    }];
    let batched = engine.query_batch(&requests).remove(0).unwrap();
    assert!(routed.value() - routed_before >= batched.routed_seeds as u64);

    // Every one of the three queries was counted and timed, whichever
    // path it took.
    assert!(answered() - answered_before >= 3, "queries went uncounted");
    assert!(latency.count() - timed_before >= 3, "queries went untimed");
    let profile = telemetry.json_profile();
    assert!(profile.contains("cnc_queries_total"));
    assert!(profile.contains("cnc_query_seeds_total"), "missing counter in:\n{profile}");
    assert!(profile.contains("\"source\":\"routed\""), "missing source label in:\n{profile}");
    assert!(profile.contains("\"source\":\"random\""), "missing source label in:\n{profile}");
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
    let placements = telemetry.histogram("cnc_insert_latency_ns", &[]);
    let placed_before = placements.count();
    for i in 0..3u32 {
        engine.insert(ds.profile(i * 13).to_vec(), i as u64);
    }
    assert!(placements.count() - placed_before >= 3, "inserts went untimed");
    engine.publish();
    let rebuild = engine.current_epoch().rebuild_stats();
    assert_eq!(rebuild.path, RebuildPath::Patched);
    assert!(rebuild.rows_patched > 0 && rebuild.comparisons > 0);

    // The registry is shared with the other tests: look for *our* spans —
    // the ones carrying exactly this rebuild's figures.
    let records = telemetry.span_records();
    let attr = |record: &cnc_telemetry::SpanRecord, key: &str| {
        record.attrs.iter().find(|(k, _)| *k == key).map(|&(_, value)| value)
    };
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
    telemetry.counter("quiet_total", &[]).add(5);
    assert!(telemetry.span_records().is_empty());
    // Counters always count (callers gate on enabled() themselves) —
    // the *span* path is what must stay silent when disabled.
    assert_eq!(telemetry.counter("quiet_total", &[]).value(), 5);
}
