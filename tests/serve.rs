//! Integration suite for the `cnc-serve` subsystem: snapshot round-trip
//! fidelity (including property tests over arbitrary datasets/graphs), a
//! corrupt-file matrix, serve-after-reload equivalence, and the
//! concurrent reader/writer epoch-swap behaviour.

use cluster_and_conquer::dataset::DatasetBuilder;
use cluster_and_conquer::prelude::*;
use cluster_and_conquer::serve::{
    checksum64, write_snapshot, write_snapshot_full, AdoptedSnapshot, BatchRequest, ServingEpoch,
    SnapshotAdopter, SnapshotError, SnapshotPublisher,
};
use cnc_query::QueryResult;
use cnc_similarity::SimilarityData;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A unique temp path removed on drop, so failing tests don't leak files.
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        TempPath(std::env::temp_dir().join(format!(
            "cnc-serve-{}-{tag}-{:?}.snap",
            std::process::id(),
            std::thread::current().id(),
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A unique temp directory removed (recursively) on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "cnc-serve-{}-{tag}-{:?}.d",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dataset(seed: u64, users: usize) -> Dataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.num_users = users;
    cfg.num_items = users.max(100);
    cfg.communities = 8;
    cfg.mean_profile = 18.0;
    cfg.min_profile = 6;
    cfg.generate()
}

fn serving_config(rebuild_after: usize) -> ServingConfig {
    ServingConfig {
        c2: C2Config {
            k: 8,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 33 },
            seed: 9,
            threads: 1,
            ..C2Config::default()
        },
        runtime: RuntimeConfig::with_workers(2),
        beam: BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons: 0 },
        rebuild_after,
    }
}

fn assert_graphs_identical(a: &KnnGraph, b: &KnnGraph) {
    assert_eq!(a.k(), b.k());
    assert_eq!(a.num_users(), b.num_users());
    for (u, list) in a.iter() {
        let mine: Vec<(u32, u32)> = list.iter().map(|n| (n.user, n.sim.to_bits())).collect();
        let got: Vec<(u32, u32)> =
            b.neighbors(u).iter().map(|n| (n.user, n.sim.to_bits())).collect();
        assert_eq!(mine, got, "user {u} neighbour layout differs");
    }
}

fn assert_snapshots_identical(a: &Snapshot, b: &Snapshot) {
    assert_eq!(a.dataset, b.dataset);
    assert_graphs_identical(&a.graph, &b.graph);
    match (&a.goldfinger, &b.goldfinger) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.words(), y.words());
            assert_eq!((x.bits(), x.seed()), (y.bits(), y.seed()));
        }
        _ => panic!("fingerprint presence differs"),
    }
}

fn assert_entries_identical(a: &EntryIndex, b: &EntryIndex) {
    assert_eq!((a.b(), a.seeds()), (b.b(), b.seeds()));
    assert_eq!((a.keys(), a.targets()), (b.keys(), b.targets()));
    assert_eq!((a.offsets(), a.members()), (b.offsets(), b.members()));
}

#[test]
fn snapshot_file_round_trip_is_bit_exact() {
    let ds = dataset(1, 250);
    let engine = ServingEngine::build(ds, serving_config(0));
    let snap = engine.snapshot();
    let path = TempPath::new("roundtrip");
    snap.write(&path.0).unwrap();
    let back = Snapshot::load(&path.0).unwrap();
    assert_snapshots_identical(&snap, &back);
    assert_entries_identical(snap.entries.as_ref().unwrap(), back.entries.as_ref().unwrap());

    // The streaming borrowed-parts writer produces the identical file
    // without cloning the parts.
    let streamed = TempPath::new("streamed");
    write_snapshot_full(
        &snap.dataset,
        &snap.graph,
        snap.goldfinger.as_ref(),
        None,
        snap.entries.as_ref(),
        &streamed.0,
    )
    .unwrap();
    assert_eq!(
        std::fs::read(&path.0).unwrap(),
        std::fs::read(&streamed.0).unwrap(),
        "owned and streamed writers must emit identical bytes"
    );

    // The engine-side writer additionally persists the builder's cluster
    // cache (one extra membership section) but restores the identical
    // serving state.
    let engine_written = TempPath::new("engine");
    engine.write_snapshot(&engine_written.0).unwrap();
    let full = Snapshot::load(&engine_written.0).unwrap();
    assert_snapshots_identical(&snap, &full);
    assert!(full.cache.is_some(), "engine snapshots must carry the cluster cache");
    assert!(snap.cache.is_none(), "epoch-only snapshots carry no builder state");
}

#[test]
fn concurrent_snapshot_writes_to_one_path_never_clobber() {
    // Per-call temp names + atomic rename: racing writers must always
    // leave a loadable snapshot at the destination.
    let ds = dataset(8, 150);
    let engine = ServingEngine::build(ds, serving_config(0));
    let path = TempPath::new("race");
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let engine = &engine;
            let path = &path.0;
            scope.spawn(move || {
                for _ in 0..4 {
                    engine.write_snapshot(path).unwrap();
                }
            });
        }
    });
    let loaded = Snapshot::load(&path.0).unwrap();
    assert_snapshots_identical(&engine.snapshot(), &loaded);
}

#[test]
fn reloaded_engine_answers_queries_identically() {
    let ds = dataset(2, 300);
    let config = serving_config(0);
    let engine = ServingEngine::build(ds.clone(), config);
    let path = TempPath::new("reload");
    engine.snapshot().write(&path.0).unwrap();
    let reloaded = ServingEngine::from_snapshot(Snapshot::load(&path.0).unwrap(), config);

    for q in 0..25u64 {
        let profile = ds.profile((q * 11 % 300) as u32);
        let fresh: QueryResult = engine.query(profile, 10, q);
        let replay: QueryResult = reloaded.query(profile, 10, q);
        assert_eq!(fresh.neighbors, replay.neighbors, "query {q} diverged after reload");
        assert_eq!(fresh.comparisons, replay.comparisons, "query {q} cost diverged");
    }
}

/// What a query answered, compared bit for bit: `(user, sim bit pattern)`
/// per neighbour, then comparisons, routed seeds and random seeds.
type Answer = (Vec<(u32, u32)>, usize, usize, usize);

fn answer(result: &QueryResult) -> Answer {
    let neighbors = result.neighbors.iter().map(|n| (n.user, n.sim.to_bits())).collect();
    (neighbors, result.comparisons, result.routed_seeds, result.random_seeds)
}

/// One query path: on a raw and on a GoldFinger epoch, every
/// `query_batch` slot answers, in order, bit for bit like `query_with`
/// and `try_query_with` with the same arguments; each query is counted
/// once, and nothing sheds.
#[test]
fn engine_batched_paths_match_try_query_bitwise() {
    let ds = dataset(31, 180);
    for backend in [SimilarityBackend::Raw, SimilarityBackend::GoldFinger { bits: 1024, seed: 21 }]
    {
        let mut config = serving_config(0);
        config.c2.backend = backend;
        let engine = ServingEngine::build(ds.clone(), config);
        let fingerprinted = matches!(backend, SimilarityBackend::GoldFinger { .. });
        assert_eq!(engine.current_epoch().fingerprints().is_some(), fingerprinted);
        assert!(engine.query_batch(&[]).is_empty());
        let mut session = engine.session();
        for batch in [1usize, 10, 70] {
            let requests: Vec<BatchRequest> = (0..batch)
                .map(|q| BatchRequest {
                    // Reversed: the engine normalizes batch profiles too.
                    profile: ds.profile((q * 11 % 180) as u32).iter().rev().copied().collect(),
                    k: 3 + q % 4,
                    seed: 900 + q as u64,
                })
                .collect();
            let before = engine.stats().queries;
            let batched = engine.query_batch(&requests);
            assert_eq!(batched.len(), requests.len());
            assert_eq!(engine.stats().queries - before, batch as u64);
            for (request, outcome) in requests.iter().zip(batched) {
                let Ok(got) = outcome;
                let (profile, k, seed) = (&request.profile, request.k, request.seed);
                let single = engine.query_with(&mut session, profile, k, seed);
                let Ok(tried) = engine.try_query_with(&mut session, profile, k, seed);
                assert!(!got.neighbors.is_empty());
                assert_eq!(answer(&got), answer(&single), "{backend:?}: batch vs query_with");
                assert_eq!(answer(&got), answer(&tried), "{backend:?}: batch vs try_query_with");
            }
        }
        assert_eq!(engine.stats().shed, 0);
    }
}

/// With no budget to spend, nothing sheds, and every query runs on the
/// configured beam: the engine answers exactly what the epoch's index
/// answers with `config.beam`.
#[test]
fn unbudgeted_engine_never_sheds() {
    let ds = dataset(43, 120);
    let engine = ServingEngine::build(ds.clone(), serving_config(0));
    let epoch = engine.current_epoch();
    let mut session = engine.session();
    for q in 0..30u64 {
        let profile = ds.profile((q % 40) as u32);
        let Ok(got) = engine.try_query_with(&mut session, profile, 5, q);
        let direct = epoch.index().search(profile, 5, &engine.config().beam, q);
        assert_eq!(got.neighbors.len(), 5);
        assert_eq!(answer(&got), answer(&direct), "query {q} left the configured beam");
    }
    let stats = engine.stats();
    assert_eq!(stats.queries, 30);
    assert_eq!(stats.shed, 0);
}

#[test]
fn reloaded_engine_continues_the_serving_loop() {
    // A snapshot is not a dead end: the reloaded engine keeps absorbing
    // inserts and publishing epochs.
    let ds = dataset(3, 200);
    let engine = ServingEngine::build(ds.clone(), serving_config(4));
    let path = TempPath::new("continue");
    engine.snapshot().write(&path.0).unwrap();
    let reloaded =
        ServingEngine::from_snapshot(Snapshot::load(&path.0).unwrap(), serving_config(4));
    for i in 0..4u32 {
        reloaded.insert(ds.profile(i * 9).to_vec(), i as u64);
    }
    let stats = reloaded.stats();
    assert_eq!(stats.epoch, 2, "four inserts must publish the second epoch");
    assert_eq!(stats.num_users, ds.num_users() + 4);
}

#[test]
fn corrupt_file_matrix_yields_typed_errors_not_panics() {
    let ds = dataset(4, 120);
    let engine = ServingEngine::build(ds, serving_config(0));
    let mut bytes = Vec::new();
    engine.snapshot().write_to(&mut bytes).unwrap();

    // Bad magic.
    let mut bad = bytes.clone();
    bad[..8].copy_from_slice(b"GARBAGE!");
    assert!(matches!(Snapshot::load_from(&mut bad.as_slice()), Err(SnapshotError::BadMagic(_))));

    // Version skew (a future format).
    let mut bad = bytes.clone();
    bad[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        Snapshot::load_from(&mut bad.as_slice()),
        Err(SnapshotError::UnsupportedVersion(7))
    ));

    // Checksum mismatch: flip one payload byte.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(matches!(
        Snapshot::load_from(&mut bad.as_slice()),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Truncation at every byte boundary of the header and table, plus a
    // spread of payload cuts: typed errors, never panics.
    for cut in (0..bytes.len().min(80)).chain([bytes.len() / 3, bytes.len() / 2, bytes.len() - 1]) {
        let truncated = &bytes[..cut];
        match Snapshot::load_from(&mut truncated.to_vec().as_slice()) {
            Err(SnapshotError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}")
            }
            Err(_) => {}
            Ok(_) => panic!("truncation at {cut} bytes loaded successfully"),
        }
    }
}

#[test]
fn concurrent_readers_survive_epoch_swaps() {
    let ds = dataset(5, 250);
    let n = ds.num_users();
    let engine = Arc::new(ServingEngine::build(ds.clone(), serving_config(6)));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Two readers hammer queries across whatever epoch is current.
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let ds = &ds;
                scope.spawn(move || {
                    let mut session = engine.session();
                    let mut answered = 0u64;
                    let mut q = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let profile = ds.profile(((q * 7 + r * 13) % n as u64) as u32);
                        let result = engine.query_with(&mut session, profile, 8, q);
                        assert!(result.neighbors.len() <= 8);
                        assert!(
                            result.neighbors.iter().all(|nb| (nb.user as usize) < n + 64),
                            "neighbour id out of any epoch's range"
                        );
                        answered += 1;
                        q += 1;
                    }
                    answered
                })
            })
            .collect();

        // The writer absorbs a stream that triggers several swaps.
        let mut published = 0;
        for i in 0..20u32 {
            let mut profile = ds.profile((i * 3) % n as u32).to_vec();
            profile.push(i % 50);
            let outcome = engine.insert(profile, i as u64);
            published += usize::from(outcome.published.is_some());
        }
        stop.store(true, Ordering::Relaxed);
        let answered: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(answered > 0, "readers must make progress during swaps");
        assert_eq!(published, 3, "20 inserts at rebuild_after = 6 publish 3 epochs");
    });

    let stats = engine.stats();
    assert_eq!(stats.epoch_swaps, 3);
    assert_eq!(stats.epoch, 4);
    assert_eq!(stats.num_users, n + 18, "3 published batches of 6 inserts each");
    assert_eq!(stats.pending_inserts, 2);
}

#[test]
fn held_epochs_stay_queryable_after_many_swaps() {
    let ds = dataset(6, 150);
    let engine = ServingEngine::build(ds.clone(), serving_config(0));
    let held = engine.current_epoch();
    let before = held.index().search(ds.profile(3), 5, &serving_config(0).beam, 1);
    for round in 0..3u64 {
        engine.insert(ds.profile((round * 5) as u32).to_vec(), round);
        engine.publish();
    }
    assert_eq!(engine.current_epoch().epoch(), 4);
    // The old epoch still answers, unchanged — readers are never torn.
    let after = held.index().search(ds.profile(3), 5, &serving_config(0).beam, 1);
    assert_eq!(before.neighbors, after.neighbors);
    assert_eq!(held.epoch(), 1);
}

/// Bytes of `adopted`'s arrays that are views into the mapped file:
/// dataset offsets + items, graph offsets + entries, fingerprint words
/// and the entry-index arrays.
fn borrowed_bytes(adopted: &AdoptedSnapshot) -> u64 {
    let AdoptedSnapshot { dataset, graph, goldfinger, entries, .. } = adopted;
    let offsets = 8 * (dataset.num_users() + 1);
    let mut bytes = 0;
    if dataset.is_shared() {
        bytes += offsets + 4 * dataset.num_ratings();
    }
    if graph.is_shared() {
        bytes += offsets + 8 * graph.num_edges();
    }
    if let Some(gf) = goldfinger.as_ref().filter(|gf| gf.is_shared()) {
        bytes += 8 * gf.words().len();
    }
    if let Some(index) = entries.as_ref().filter(|index| index.is_shared()) {
        bytes += 8 * (index.seeds().len() + index.keys().len())
            + 4 * (index.offsets().len() + index.targets().len() + index.members().len());
    }
    bytes as u64
}

#[test]
fn mmap_adoption_is_zero_copy_and_bit_identical_to_the_copy_path() {
    let ds = dataset(10, 250);
    // The paper's k = 30, with a beam wide enough for it. At the suite's
    // k = 8 the builder's membership section, which adoption never reads,
    // is a tenth of the file, and the zero-copy share below would measure
    // that shape rather than the load path.
    let base = serving_config(0);
    let config = ServingConfig {
        c2: C2Config { k: 30, ..base.c2 },
        beam: BeamSearchConfig { beam_width: 32, ..base.beam },
        ..base
    };
    let engine = ServingEngine::build(ds.clone(), config);
    let path = TempPath::new("mmap");
    let file_bytes = engine.write_snapshot(&path.0).unwrap();

    let adopted = AdoptedSnapshot::open(&path.0).unwrap();
    assert_eq!(
        adopted.mapped,
        AdoptedSnapshot::zero_copy_supported(),
        "a v2 file must map wherever the platform allows"
    );
    let copied = AdoptedSnapshot::load_copied(&path.0).unwrap();
    assert!(!copied.mapped);

    // Bit-identity between the two load paths: same profiles, same
    // neighbour heap layout, same fingerprint words.
    assert_eq!(adopted.dataset, copied.dataset);
    assert_graphs_identical(&adopted.graph, &copied.graph);
    assert_eq!(
        adopted.goldfinger.as_ref().unwrap().words(),
        copied.goldfinger.as_ref().unwrap().words()
    );
    // The entries section round-trips through both paths to the index the
    // writing engine serves from.
    let written = engine.current_epoch();
    let (mapped_entries, copied_entries) =
        (adopted.entries.as_ref().unwrap(), copied.entries.as_ref().unwrap());
    assert!(!written.entries().is_empty(), "a C² build records its split tree");
    assert_entries_identical(mapped_entries, written.entries());
    assert_entries_identical(copied_entries, written.entries());
    assert!(!copied_entries.is_shared());

    if adopted.mapped {
        // The structural zero-copy assertion: every bulk array borrows
        // the map — adoption did no per-user work.
        assert!(adopted.dataset.is_shared(), "mapped dataset must borrow the file");
        assert!(adopted.graph.is_shared(), "mapped graph must borrow the file");
        assert!(adopted.goldfinger.as_ref().unwrap().is_shared());
        assert!(mapped_entries.is_shared(), "mapped member array must borrow the file");
        // Zero copies, as a count: the borrowed arrays cover all of the
        // file but the section table and the builder's membership
        // section, which adoption never reads.
        let share = borrowed_bytes(&adopted) as f64 / file_bytes as f64;
        assert!(share >= 0.9, "only {share:.3} of the file is served in place");
    }

    // Adopt into an engine serving something else entirely; afterwards it
    // must answer exactly like an engine that decoded the same file.
    let serving = ServingEngine::build(dataset(11, 150), config);
    let epoch = serving.adopt(adopted);
    assert_eq!(epoch, 2, "adoption publishes the next epoch");
    if AdoptedSnapshot::zero_copy_supported() {
        let current = serving.current_epoch();
        assert!(
            current.dataset().is_shared()
                && current.graph().is_shared()
                && current.entries().is_shared(),
            "the adopted epoch must keep borrowing the map"
        );
    }
    // The mapped epoch, an engine that decoded the file, and the engine
    // that wrote it answer a probe set identically, comparison counts
    // included: all three start every search at the same routed seeds.
    let reference = ServingEngine::from_snapshot(Snapshot::load(&path.0).unwrap(), config);
    for q in 0..25u64 {
        let profile = ds.profile((q * 13 % 250) as u32);
        let mine: QueryResult = serving.query(profile, 10, q);
        assert!(mine.routed_seeds > 0, "query {q} must start in its clusters");
        for (name, theirs) in [
            ("copy-loaded", reference.query(profile, 10, q)),
            ("writing", engine.query(profile, 10, q)),
        ] {
            assert_eq!(mine.neighbors, theirs.neighbors, "query {q}: mmap vs {name} engine");
            assert_eq!(mine.comparisons, theirs.comparisons, "query {q}: cost vs {name} engine");
            assert_eq!(mine.routed_seeds, theirs.routed_seeds);
        }
    }

    // The adopted engine is not read-only: inserts copy-on-write and the
    // serving loop continues.
    serving.insert(ds.profile(7).to_vec(), 99);
    serving.publish();
    assert_eq!(serving.stats().num_users, 251);
}

#[test]
fn a_v1_header_is_refused_with_unsupported_version_on_every_load_path() {
    // Nothing past the header is read: the version decides first.
    let mut v1 = b"CNCSNAP1".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&3u32.to_le_bytes());
    let refused = |outcome: Result<(), SnapshotError>, path: &str| match outcome {
        Err(SnapshotError::UnsupportedVersion(1)) => {}
        other => panic!("{path}: expected UnsupportedVersion(1), got {other:?}"),
    };
    refused(Snapshot::load_from(&mut v1.as_slice()).map(|_| ()), "load_from");
    let path = TempPath::new("v1");
    std::fs::write(&path.0, &v1).unwrap();
    refused(AdoptedSnapshot::open(&path.0).map(|_| ()), "open");
    refused(AdoptedSnapshot::load_copied(&path.0).map(|_| ()), "load_copied");
}

#[test]
fn version_header_skew_and_table_truncation_are_typed_errors() {
    let ds = dataset(13, 100);
    let engine = ServingEngine::build(ds, serving_config(0));
    let mut v2 = Vec::new();
    engine.snapshot().write_to(&mut v2).unwrap();

    // A v1 header over v2 sections: the version is refused before any
    // section is interpreted — never a panic, never a half-decoded
    // snapshot.
    let mut crossed = v2.clone();
    crossed[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(
        matches!(
            Snapshot::load_from(&mut crossed.as_slice()),
            Err(SnapshotError::UnsupportedVersion(1))
        ),
        "v1 header over v2 sections must not load"
    );
    let path = TempPath::new("crossed");
    std::fs::write(&path.0, &crossed).unwrap();
    assert!(
        matches!(AdoptedSnapshot::open(&path.0), Err(SnapshotError::UnsupportedVersion(1))),
        "adoption must reject it too"
    );

    // Truncation inside the v2 section table, through both load paths.
    for cut in [17usize, 16 + 10, 16 + 28, 16 + 28 + 5] {
        let truncated = &v2[..cut];
        match Snapshot::load_from(&mut truncated.to_vec().as_slice()) {
            Err(SnapshotError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}")
            }
            Err(other) => panic!("cut at {cut}: expected UnexpectedEof, got {other}"),
            Ok(_) => panic!("truncated table at {cut} bytes loaded successfully"),
        }
        std::fs::write(&path.0, truncated).unwrap();
        assert!(AdoptedSnapshot::open(&path.0).is_err(), "adoption must reject the cut at {cut}");
    }
}

#[test]
fn persisted_cluster_cache_makes_the_first_post_restart_publish_incremental() {
    let ds = dataset(14, 300);
    let config = serving_config(0);
    let engine = ServingEngine::build(ds.clone(), config);
    let path = TempPath::new("restart");
    engine.write_snapshot(&path.0).unwrap();
    drop(engine); // the builder leaves the address space entirely

    let snap = Snapshot::load(&path.0).unwrap();
    assert!(snap.cache.is_some(), "the builder cache must survive the file");
    let restored = ServingEngine::from_snapshot(snap, config);
    restored.insert(ds.profile(4).to_vec(), 1);
    restored.publish();
    let first = restored.current_epoch().rebuild_stats();
    assert!(
        first.reuse_ratio > 0.0,
        "restart lost incrementality: {} of {} clusters reused",
        first.clusters_reused(),
        first.clusters_total
    );

    // And reuse is exact: the incremental post-restart build publishes
    // the same neighbourhoods — same users, same similarity bits — as a
    // from-scratch engine fed the same insert. (Heap *layout* is compared
    // order-independently: the multi-worker merge order varies even
    // between two identical in-process builds.)
    let scratch = ServingEngine::build(ds.clone(), config);
    scratch.insert(ds.profile(4).to_vec(), 1);
    scratch.publish();
    let (a, b) = (restored.current_epoch(), scratch.current_epoch());
    assert_eq!(a.graph().num_users(), b.graph().num_users());
    for (u, list) in a.graph().iter() {
        let mut mine: Vec<(u32, u32)> = list.iter().map(|n| (n.user, n.sim.to_bits())).collect();
        let mut theirs: Vec<(u32, u32)> =
            b.graph().neighbors(u).iter().map(|n| (n.user, n.sim.to_bits())).collect();
        mine.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(mine, theirs, "user {u}: restart-incremental differs from from-scratch");
    }
}

#[test]
fn snapshot_directory_publisher_and_adopter_hand_off_epochs() {
    let dir = TempDir::new("publish");
    let ds = dataset(15, 200);
    let config = serving_config(0);
    let builder = ServingEngine::build(ds.clone(), config);

    let mut publisher = SnapshotPublisher::open(&dir.0).unwrap();
    let (seq0, path0) = publisher.publish(&builder).unwrap();
    assert_eq!(seq0, 0);

    // A serving replica bootstraps from the published file and then
    // follows the directory — no builder in its address space.
    let replica = ServingEngine::from_snapshot(Snapshot::load(&path0).unwrap(), config);
    let mut adopter = SnapshotAdopter::new(&dir.0);
    assert_eq!(adopter.poll_into(&replica).unwrap(), Some(0), "first poll adopts seq 0");
    assert_eq!(adopter.poll_into(&replica).unwrap(), None, "nothing new");

    // The builder moves on; the replica catches up on the next poll.
    builder.insert(ds.profile(3).to_vec(), 7);
    builder.publish();
    let (seq1, _) = publisher.publish(&builder).unwrap();
    assert_eq!(seq1, 1);
    assert_eq!(adopter.poll_into(&replica).unwrap(), Some(1));
    assert_eq!(replica.stats().num_users, 201, "the adopted epoch serves the new user");
    for q in 0..10u64 {
        let profile = ds.profile((q * 17 % 200) as u32);
        let a: QueryResult = replica.query(profile, 8, q);
        let b: QueryResult = builder.query(profile, 8, q);
        assert_eq!(a.neighbors, b.neighbors, "replica diverged from builder on query {q}");
        assert_eq!(a.comparisons, b.comparisons, "replica spent differently on query {q}");
        assert!(a.routed_seeds > 0 && a.routed_seeds == b.routed_seeds);
    }

    // Publisher restarts resume the sequence; pruning keeps the tail.
    drop(publisher);
    let publisher = SnapshotPublisher::open(&dir.0).unwrap();
    assert_eq!(publisher.next_seq(), 2, "restart must resume after the newest file");
    assert_eq!(publisher.prune(1).unwrap(), 1, "pruning drops all but the newest");
}

/// `(offset, len)` of section `id` and the file position of its checksum,
/// read from a v2 file's section table.
fn v2_section(file: &[u8], id: u32) -> (usize, usize, usize) {
    let count = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| 16 + 28 * i)
        .find(|&row| u32::from_le_bytes(file[row..row + 4].try_into().unwrap()) == id)
        .map(|row| {
            let field = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
            (field(row + 4) as usize, field(row + 12) as usize, row + 20)
        })
        .unwrap_or_else(|| panic!("no section {id} in the table"))
}

const SECTION_ENTRIES: u32 = 5;

#[test]
fn corrupt_entries_sections_are_typed_errors_on_both_load_paths() {
    let ds = dataset(16, 180);
    let engine = ServingEngine::build(ds, serving_config(0));
    let mut good = Vec::new();
    let snap = engine.snapshot();
    snap.write_to(&mut good).unwrap();
    assert!(snap.entries.is_some());
    let (offset, len, checksum_at) = v2_section(&good, SECTION_ENTRIES);
    let path = TempPath::new("entries-corrupt");
    let load_both = |bytes: &[u8]| {
        std::fs::write(&path.0, bytes).unwrap();
        (
            Snapshot::load_from(&mut &bytes[..]).map(|_| ()),
            AdoptedSnapshot::open(&path.0).map(|_| ()),
        )
    };

    // Bit rot anywhere in the section — header, table, member array.
    for at in [offset, offset + 40, offset + len / 2, offset + len - 1] {
        let mut rotten = good.clone();
        rotten[at] ^= 0x10;
        let (copied, mapped) = load_both(&rotten);
        for outcome in [copied, mapped] {
            match outcome {
                Err(SnapshotError::ChecksumMismatch { section: SECTION_ENTRIES }) => {}
                other => panic!("flip at {at}: expected a checksum mismatch, got {other:?}"),
            }
        }
    }

    // A header that lies about its array lengths, under a checksum
    // recomputed to match (a buggy or hostile writer): the geometry check
    // refuses it before anything is sliced or allocated from the counts.
    let reseal = |bytes: &mut Vec<u8>| {
        let sum = checksum64(&bytes[offset..offset + len]);
        bytes[checksum_at..checksum_at + 8].copy_from_slice(&sum.to_le_bytes());
    };
    for (field, lie) in [(8usize, u64::MAX), (16, u64::MAX / 8), (24, 1 << 40), (24, 3)] {
        let mut lying = good.clone();
        lying[offset + field..offset + field + 8].copy_from_slice(&lie.to_le_bytes());
        reseal(&mut lying);
        let (copied, mapped) = load_both(&lying);
        for outcome in [copied, mapped] {
            match outcome {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("count {lie} at +{field}: expected Corrupt, got {other:?}"),
            }
        }
    }

    // Well-formed geometry, invalid content: a member id past the dataset.
    let mut stranger = good.clone();
    stranger[offset + len - 4..offset + len].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut stranger);
    let (copied, mapped) = load_both(&stranger);
    for outcome in [copied, mapped] {
        match outcome {
            Err(SnapshotError::Corrupt(reason)) => assert!(reason.contains("entry index")),
            other => panic!("out-of-range member: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn a_v2_file_without_the_entries_section_serves_from_random_seeds() {
    let ds = dataset(17, 160);
    let config = serving_config(0);
    let engine = ServingEngine::build(ds.clone(), config);
    let snap = engine.snapshot();
    // The entries-less writer: what an older build produced.
    let path = TempPath::new("no-entries");
    write_snapshot(&snap.dataset, &snap.graph, snap.goldfinger.as_ref(), &path.0).unwrap();

    let loaded = Snapshot::load(&path.0).unwrap();
    assert!(loaded.entries.is_none());
    assert_snapshots_identical(&snap, &loaded);
    let adopted = AdoptedSnapshot::open(&path.0).unwrap();
    assert!(adopted.entries.is_none());

    let restored = ServingEngine::from_snapshot(loaded, config);
    let replica = ServingEngine::build(dataset(18, 90), config);
    replica.adopt(adopted);
    for q in 0..10u64 {
        let profile = ds.profile((q * 11 % 160) as u32);
        let a = restored.query(profile, 6, q);
        let b = replica.query(profile, 6, q);
        assert_eq!((a.routed_seeds, a.random_seeds), (0, config.beam.entry_points));
        assert_eq!(a.neighbors.len(), 6);
        assert_eq!((a.neighbors, a.comparisons), (b.neighbors, b.comparisons));
    }
    // The first publish rebuilds — and brings routed seeding back.
    restored.publish();
    assert!(restored.query(ds.profile(5), 6, 1).routed_seeds > 0);
}

const SECTION_MEMBERSHIPS: u32 = 6;

/// Every `(id, payload)` of a v2 file, in table order.
fn v2_sections(file: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let count = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let id = u32::from_le_bytes(file[16 + 28 * i..][..4].try_into().unwrap());
            let (offset, len, _) = v2_section(file, id);
            (id, file[offset..offset + len].to_vec())
        })
        .collect()
}

/// Lays `sections` out as a v2 file: header, table, each payload at the
/// next 64-byte boundary under its `checksum64`.
fn v2_file(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut file = b"CNCSNAP1".to_vec();
    file.extend_from_slice(&2u32.to_le_bytes());
    file.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut at = 16 + 28 * sections.len();
    let mut offsets = Vec::new();
    for (id, payload) in sections {
        at = at.next_multiple_of(64);
        offsets.push(at);
        file.extend_from_slice(&id.to_le_bytes());
        file.extend_from_slice(&(at as u64).to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&checksum64(payload).to_le_bytes());
        at += payload.len();
    }
    for ((_, payload), offset) in sections.iter().zip(offsets) {
        file.resize(offset, 0);
        file.extend_from_slice(payload);
    }
    file
}

#[test]
fn the_cluster_cache_persists_as_one_flat_section_with_typed_corruption_errors() {
    let ds = dataset(19, 220);
    let config = serving_config(0);
    let engine = ServingEngine::build(ds.clone(), config);
    let path = TempPath::new("memberships");
    engine.write_snapshot(&path.0).unwrap();
    let good = std::fs::read(&path.0).unwrap();
    let ids: Vec<u32> = v2_sections(&good).iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, [1, 2, 3, SECTION_ENTRIES, SECTION_MEMBERSHIPS], "one section per part");

    // The file restores the plan's memberships over the file's own graph.
    let plan = BuildPlan::assign(&config.c2, &ds);
    let loaded = Snapshot::load(&path.0).unwrap();
    let cache = loaded.cache.as_ref().expect("the membership section must load as a cache");
    assert_eq!(cache.len(), plan.clusters().len());
    assert_eq!(cache.members(), plan.clusters().concat());
    assert_eq!(cache.graph().num_users(), ds.num_users());
    assert_graphs_identical(cache.graph(), &loaded.graph);
    assert!(loaded.graph.is_shared(), "cache and snapshot share one copy of the graph");

    let (offset, len, checksum_at) = v2_section(&good, SECTION_MEMBERSHIPS);
    let load = |bytes: &[u8]| Snapshot::load_from(&mut &bytes[..]).map(|_| ());
    for at in [offset, offset + 30, offset + len / 2, offset + len - 1] {
        let mut rotten = good.clone();
        rotten[at] ^= 0x10;
        match load(&rotten) {
            Err(SnapshotError::ChecksumMismatch { section: SECTION_MEMBERSHIPS }) => {}
            other => panic!("flip at {at}: expected a checksum mismatch, got {other:?}"),
        }
        // Adoption serves; it never reads builder state, rotten or not.
        std::fs::write(&path.0, &rotten).unwrap();
        assert!(AdoptedSnapshot::open(&path.0).is_ok());
    }
    let reseal = |bytes: &mut Vec<u8>| {
        let sum = checksum64(&bytes[offset..offset + len]);
        bytes[checksum_at..checksum_at + 8].copy_from_slice(&sum.to_le_bytes());
    };
    // Counts that do not account for the bytes that follow are refused
    // before anything is allocated from them.
    for (field, lie) in [(8usize, u64::MAX), (8, 1 << 40), (16, u64::MAX / 4), (16, 3)] {
        let mut lying = good.clone();
        lying[offset + field..offset + field + 8].copy_from_slice(&lie.to_le_bytes());
        reseal(&mut lying);
        match load(&lying) {
            Err(SnapshotError::Corrupt(reason)) => assert!(reason.contains("memberships")),
            other => panic!("count {lie} at +{field}: expected Corrupt, got {other:?}"),
        }
    }
    // Well-formed geometry, invalid content: a member past the dataset,
    // offsets that do not tile the members.
    let first_offset = offset + 24;
    for (at, value) in [(offset + len - 4, u32::MAX), (first_offset + 4, u32::MAX)] {
        let mut bad = good.clone();
        bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bad);
        match load(&bad) {
            Err(SnapshotError::Corrupt(reason)) => assert!(reason.contains("memberships")),
            other => panic!("{value} at {at}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn a_cache_of_another_graph_is_left_out_of_the_file() {
    // On disk a cache is only its memberships; the loader pairs them with
    // the file's graph. A cache captured with any other graph — here the
    // same users, one row apart — must not be persisted beside it.
    let engine = ServingEngine::build(dataset(22, 160), serving_config(0));
    let path = TempPath::new("stranger-cache");
    engine.write_snapshot(&path.0).unwrap();
    let own = Snapshot::load(&path.0).unwrap();
    assert!(own.cache.is_some());
    let reload = |snap: &Snapshot| {
        let mut file = Vec::new();
        snap.write_to(&mut file).unwrap();
        let kept = v2_sections(&file).iter().any(|&(id, _)| id == SECTION_MEMBERSHIPS);
        let loaded = Snapshot::load_from(&mut &file[..]).unwrap();
        assert_eq!(loaded.cache.is_some(), kept);
        loaded
    };
    assert!(reload(&own).cache.is_some(), "a cache travels beside its own graph");

    let mut stranger = own.clone();
    let row = stranger.graph.neighbors_mut(0);
    let mut shorter = cnc_graph::NeighborList::new(row.k());
    for nb in row.iter().skip(1) {
        shorter.insert(nb.user, nb.sim);
    }
    *row = shorter;
    assert_eq!(stranger.graph.num_users(), own.graph.num_users());
    let reloaded = reload(&stranger);
    assert!(reloaded.cache.is_none(), "one differing row is another graph");

    // The engine that restores from such a file starts cold, not wrong.
    let restored = ServingEngine::from_snapshot(reloaded, serving_config(0));
    restored.publish();
    assert_eq!(restored.current_epoch().rebuild_stats().reuse_ratio, 0.0);
}

#[test]
fn a_v2_file_carrying_an_unknown_section_id_is_corrupt_on_both_paths() {
    let engine = ServingEngine::build(dataset(20, 150), serving_config(0));
    let mut plain = Vec::new();
    engine.snapshot().write_to(&mut plain).unwrap();
    // 4 and 0x100 + i once held a per-cluster cache; no writer produces
    // them, so they are as unknown as any other id.
    let path = TempPath::new("unknown-section");
    for (id, payload) in [(4u32, vec![7u8; 16]), (0x100, vec![0xAB; 100]), (0x101, vec![0xCD; 36])]
    {
        let mut sections = v2_sections(&plain);
        sections.push((id, payload));
        let file = v2_file(&sections);
        let unknown = |outcome: Result<(), SnapshotError>, path: &str| match outcome {
            Err(SnapshotError::Corrupt(msg)) if msg.contains("unknown section id") => {}
            other => panic!("section {id:#x} via {path}: expected Corrupt, got {other:?}"),
        };
        unknown(Snapshot::load_from(&mut &file[..]).map(|_| ()), "load_from");
        std::fs::write(&path.0, &file).unwrap();
        unknown(AdoptedSnapshot::open(&path.0).map(|_| ()), "open");
    }
}

#[test]
fn published_epochs_carry_the_fingerprints_a_fresh_build_would_make() {
    // Rebuilds take the writer's grown fingerprint set instead of
    // re-hashing every profile; per-user independence makes that exact.
    let ds = dataset(21, 200);
    let config = serving_config(3);
    let SimilarityBackend::GoldFinger { bits, seed } = config.c2.backend else {
        panic!("the serving tests run on fingerprints");
    };
    let engine = ServingEngine::build(ds.clone(), config);
    for round in 0..2u32 {
        for i in 0..3u32 {
            let mut profile = ds.profile(round * 40 + i * 9).to_vec();
            profile.push(290 + i);
            engine.insert(profile, (round * 3 + i) as u64);
        }
        let epoch = engine.current_epoch();
        assert_eq!(epoch.epoch(), 2 + round as u64, "every third insert publishes");
        let fresh = GoldFinger::build(epoch.dataset(), bits, seed);
        let carried = epoch.fingerprints().expect("a GoldFinger epoch carries fingerprints");
        assert_eq!(carried.num_users(), ds.num_users() + 3 * (round as usize + 1));
        assert_eq!(carried.words(), fresh.words(), "epoch {}", epoch.epoch());
    }
    // A publish with nothing pending reuses the epoch's own set.
    engine.publish();
    let epoch = engine.current_epoch();
    assert_eq!(
        epoch.fingerprints().unwrap().words(),
        GoldFinger::build(epoch.dataset(), bits, seed).words()
    );
}

/// `dataset`'s profiles followed by `inserts`, copied afresh: the
/// oracle of a published epoch's dataset.
fn fresh_copy(dataset: &Dataset, inserts: &[Vec<u32>]) -> Dataset {
    let mut builder = DatasetBuilder::with_capacity(dataset.num_users() + inserts.len());
    for (_, profile) in dataset.iter() {
        builder.push_sorted_profile(profile);
    }
    for profile in inserts {
        builder.push_profile(profile.clone());
    }
    builder.build_with_min_items(dataset.num_items() as u32)
}

/// The epoch serves `expect`, its fresh fingerprints, and the graph
/// `ClusterAndConquer::build` makes of it (rows compared as sets: the
/// sharded merge may lay a heap out in another order).
fn assert_epoch_is_a_fresh_build(epoch: &ServingEpoch, expect: &Dataset, config: &ServingConfig) {
    let SimilarityBackend::GoldFinger { bits, seed } = config.c2.backend else {
        panic!("the serving tests run on fingerprints");
    };
    assert_eq!(epoch.dataset(), expect, "epoch {}: dataset", epoch.epoch());
    assert_eq!(
        epoch.fingerprints().unwrap().words(),
        GoldFinger::build(expect, bits, seed).words(),
        "epoch {}: fingerprints",
        epoch.epoch()
    );
    let oracle = ClusterAndConquer::new(config.c2).build(expect).graph;
    assert_eq!(epoch.graph().num_users(), oracle.num_users());
    for u in expect.users() {
        assert_eq!(
            epoch.graph().neighbors(u).sorted(),
            oracle.neighbors(u).sorted(),
            "epoch {}: user {u}",
            epoch.epoch()
        );
    }
}

/// Whether `next` reads `prev`'s dataset and fingerprint allocations.
fn shares_buffers(next: &ServingEpoch, prev: &ServingEpoch) -> [bool; 3] {
    let words = |epoch: &ServingEpoch| epoch.fingerprints().unwrap().words().as_ptr();
    [
        next.dataset().items().as_ptr() == prev.dataset().items().as_ptr(),
        next.dataset().offsets().as_ptr() == prev.dataset().offsets().as_ptr(),
        words(next) == words(prev),
    ]
}

#[test]
fn publishes_append_the_inserts_to_the_live_epochs_buffers_in_place() {
    let ds = dataset(23, 220);
    let config = serving_config(4);
    let stream: Vec<Vec<u32>> = (0..16u32)
        .map(|i| {
            let mut profile = ds.profile(i * 37 % 220).to_vec();
            profile.push(i * 7 % 90);
            profile
        })
        .collect();
    // The engine makes room for one batch of `rebuild_after` users as
    // large as the largest profile; two of this stream's batches fit.
    let widest = ds.iter().map(|(_, p)| p.len()).max().unwrap();
    assert!(stream[..8].iter().map(Vec::len).sum::<usize>() <= 4 * widest);

    // Publishes the next four inserts of the stream and checks the new
    // epoch against a fresh build of `base` ⊕ the inserts so far.
    let publish = |engine: &ServingEngine, base: &Dataset, inserted: &mut usize| {
        let prev = engine.current_epoch();
        for (i, profile) in stream[*inserted..*inserted + 4].iter().enumerate() {
            let outcome = engine.insert(profile.clone(), (*inserted + i) as u64);
            assert_eq!(outcome.published.is_some(), i == 3, "the fourth insert publishes");
        }
        *inserted += 4;
        let next = engine.current_epoch();
        assert_eq!(next.epoch(), prev.epoch() + 1);
        assert_epoch_is_a_fresh_build(&next, &fresh_copy(base, &stream[..*inserted]), &config);
        shares_buffers(&next, &prev)
    };

    let engine = ServingEngine::build(ds.clone(), config);
    let mut inserted = 0;
    assert_eq!(publish(&engine, &ds, &mut inserted), [true; 3], "the first publish appends");
    assert_eq!(publish(&engine, &ds, &mut inserted), [true; 3], "so does the second");

    // An engine serving a mapped snapshot never writes the file's bytes:
    // its first publish copies them once, with room, and the next appends.
    let path = TempPath::new("in-place");
    engine.write_snapshot(&path.0).unwrap();
    let written = engine.current_epoch().dataset().clone();
    let adopted = AdoptedSnapshot::open(&path.0).unwrap();
    let mapped = adopted.mapped;
    let restored = ServingEngine::build(dataset(24, 120), config);
    restored.adopt(adopted);
    let mut more = 0;
    let first = publish(&restored, &written, &mut more);
    if mapped {
        assert_eq!(first, [false; 3], "the map is copied");
    }
    assert_eq!(publish(&restored, &written, &mut more), [true; 3], "the copy has room");
    assert_eq!(engine.current_epoch().dataset(), &written, "the writer's epoch is untouched");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary datasets + graphs round trip bit-exactly through the
    /// snapshot codec, fingerprints included.
    #[test]
    fn snapshot_round_trip_on_arbitrary_datasets(
        profiles in proptest::collection::vec(
            proptest::collection::btree_set(0u32..300, 0..25)
                .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
            1..40,
        ),
        k in 1usize..12,
        bits_index in 0usize..4,
        with_fingerprints in (0u32..2).prop_map(|b| b == 1),
        seed in 0u64..100,
    ) {
        let ds = Dataset::from_profiles(profiles, 0);
        let bits = [64usize, 192, 1024, 4096][bits_index];
        let sim = SimilarityData::build(
            SimilarityBackend::GoldFinger { bits, seed }, &ds);
        let ctx = cluster_and_conquer::baselines::BuildContext {
            dataset: &ds, sim: &sim, k, threads: 1, seed,
        };
        use cluster_and_conquer::baselines::KnnAlgorithm;
        let graph = cluster_and_conquer::baselines::BruteForce.build(&ctx);
        let goldfinger = with_fingerprints.then(|| sim.goldfinger().unwrap().clone());
        let snap = Snapshot::new(ds, graph, goldfinger);
        let mut buf = Vec::new();
        let written = snap.write_to(&mut buf).unwrap();
        prop_assert_eq!(written as usize, buf.len());
        let back = Snapshot::load_from(&mut buf.as_slice()).unwrap();
        assert_snapshots_identical(&snap, &back);
    }

    /// Random single-byte corruption anywhere in the file must never
    /// panic and must never be silently accepted as a different snapshot.
    #[test]
    fn random_corruption_never_panics(
        position_sel in 0u64..1_000_000,
        flip in 1u32..256,
    ) {
        let ds = dataset(7, 60);
        let gf = GoldFinger::build(&ds, 256, 3);
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = cluster_and_conquer::baselines::BuildContext {
            dataset: &ds, sim: &sim, k: 4, threads: 1, seed: 1,
        };
        use cluster_and_conquer::baselines::KnnAlgorithm;
        let graph = cluster_and_conquer::baselines::BruteForce.build(&ctx);
        let snap = Snapshot::new(ds, graph, Some(gf));
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let position = (bytes.len() as u64 * position_sel / 1_000_000) as usize;
        bytes[position] ^= flip as u8;
        // Either a typed error, or — when the flip hits a byte the format
        // does not interpret (it re-reads as the same value) — a snapshot
        // identical to the original. What must never happen: a panic, or
        // a *different* snapshot loading successfully.
        if let Ok(loaded) = Snapshot::load_from(&mut bytes.as_slice()) {
            assert_snapshots_identical(&snap, &loaded);
        }
    }
}
