//! Integration suite for the `cnc-serve` subsystem: snapshot round-trip
//! fidelity (including property tests over arbitrary datasets/graphs), a
//! corrupt-file matrix, serve-after-reload equivalence, and the
//! concurrent reader/writer epoch-swap behaviour.

use cluster_and_conquer::core::{ClusteringScheme, RebuildPath};
use cluster_and_conquer::dataset::DatasetBuilder;
use cluster_and_conquer::prelude::*;
use cluster_and_conquer::serve::{
    checksum64, AdoptedSnapshot, BatchRequest, ServingEpoch, SnapshotAdopter, SnapshotError,
    SnapshotPublisher,
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

    // The file and the stream writer emit identical bytes.
    let mut streamed = Vec::new();
    snap.write_to(&mut streamed).unwrap();
    assert_eq!(std::fs::read(&path.0).unwrap(), streamed, "file and stream writers differ");

    // The engine-side writer additionally persists the builder's cluster
    // cache — one table row and its 8-byte configuration token, the rest
    // of the cache being the graph and entry-index sections — but
    // restores the identical serving state.
    let engine_written = TempPath::new("engine");
    let engine_bytes = engine.write_snapshot(&engine_written.0).unwrap();
    let full = Snapshot::load(&engine_written.0).unwrap();
    assert_snapshots_identical(&snap, &full);
    assert!(full.cache.is_some(), "engine snapshots must carry the cluster cache");
    assert!(snap.cache.is_none(), "epoch-only snapshots carry no builder state");
    let extra = engine_bytes - streamed.len() as u64;
    assert!(extra <= 28 + 64 + 8, "the cache costs {extra} bytes beyond the epoch");
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
    if dataset.is_mapped() {
        bytes += offsets + 4 * dataset.num_ratings();
    }
    if graph.is_mapped() {
        bytes += offsets + 8 * graph.num_edges();
    }
    if let Some(gf) = goldfinger.as_ref().filter(|gf| gf.is_mapped()) {
        bytes += 8 * gf.words().len();
    }
    if let Some(index) = entries.as_ref().filter(|index| index.is_mapped()) {
        bytes += 8 * (index.seeds().len() + index.keys().len())
            + 4 * (index.offsets().len() + index.targets().len() + index.members().len());
    }
    bytes as u64
}

#[test]
fn mmap_adoption_is_zero_copy_and_bit_identical_to_the_copy_path() {
    let ds = dataset(10, 250);
    // The paper's k = 30, with a beam wide enough for it.
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
        "a snapshot must map wherever the platform allows"
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
    assert!(!copied_entries.is_mapped());

    if adopted.mapped {
        // The structural zero-copy assertion: every bulk array borrows
        // the map — adoption did no per-user work.
        assert!(adopted.dataset.is_mapped(), "mapped dataset must borrow the file");
        assert!(adopted.graph.is_mapped(), "mapped graph must borrow the file");
        assert!(adopted.goldfinger.as_ref().unwrap().is_mapped());
        assert!(mapped_entries.is_mapped(), "mapped member array must borrow the file");
        // Zero copies, as a count: the borrowed arrays cover all of the
        // file but the headers, the padding and the builder's 8-byte
        // configuration token, which adoption never reads.
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
            current.dataset().is_mapped()
                && current.graph().is_mapped()
                && current.entries().is_mapped(),
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

    // The adopted engine is not read-only: inserts queue, the publish
    // copies the mapped epoch once, and the serving loop continues.
    serving.insert(ds.profile(7).to_vec(), 99);
    serving.publish();
    assert_eq!(serving.stats().num_users, 251);
}

#[test]
fn a_v1_header_is_refused_with_unsupported_version_on_every_load_path() {
    // Nothing past the header is read: the version decides first. Version
    // 2, which wrote the cache's member arrays a second time, is refused
    // the same way.
    for version in [1u32, 2] {
        let mut old = b"CNCSNAP1".to_vec();
        old.extend_from_slice(&version.to_le_bytes());
        old.extend_from_slice(&3u32.to_le_bytes());
        let refused = |outcome: Result<(), SnapshotError>, path: &str| match outcome {
            Err(SnapshotError::UnsupportedVersion(v)) if v == version => {}
            other => panic!("{path}: expected UnsupportedVersion({version}), got {other:?}"),
        };
        refused(Snapshot::load_from(&mut old.as_slice()).map(|_| ()), "load_from");
        let path = TempPath::new("old-version");
        std::fs::write(&path.0, &old).unwrap();
        refused(AdoptedSnapshot::open(&path.0).map(|_| ()), "open");
        refused(AdoptedSnapshot::load_copied(&path.0).map(|_| ()), "load_copied");
    }
}

#[test]
fn version_header_skew_and_table_truncation_are_typed_errors() {
    let ds = dataset(13, 100);
    let engine = ServingEngine::build(ds, serving_config(0));
    let mut file = Vec::new();
    engine.snapshot().write_to(&mut file).unwrap();

    // A v2 header over v3 sections: the version is refused before any
    // section is interpreted — never a panic, never a half-decoded
    // snapshot.
    let mut crossed = file.clone();
    crossed[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(
        matches!(
            Snapshot::load_from(&mut crossed.as_slice()),
            Err(SnapshotError::UnsupportedVersion(2))
        ),
        "v2 header over v3 sections must not load"
    );
    let path = TempPath::new("crossed");
    std::fs::write(&path.0, &crossed).unwrap();
    assert!(
        matches!(AdoptedSnapshot::open(&path.0), Err(SnapshotError::UnsupportedVersion(2))),
        "adoption must reject it too"
    );

    // Truncation inside the section table, through both load paths.
    for cut in [17usize, 16 + 10, 16 + 28, 16 + 28 + 5] {
        let truncated = &file[..cut];
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
    // the same neighbourhoods — same users, same similarity bits, same row
    // layout — as a from-scratch engine fed the same insert.
    let scratch = ServingEngine::build(ds.clone(), config);
    scratch.insert(ds.profile(4).to_vec(), 1);
    scratch.publish();
    assert_graphs_identical(restored.current_epoch().graph(), scratch.current_epoch().graph());
}

/// Every entry of `graph`, row by row, in stored order.
fn layout(graph: &KnnGraph) -> Vec<(u32, u32)> {
    graph.iter().flat_map(|(_, list)| list.iter().map(|n| (n.user, n.sim.to_bits()))).collect()
}

/// A row is frozen in one canonical order of its content, so the stored
/// layout of a build — and of the publish after it — does not depend on
/// the order concurrent workers offered in: repeated 2-worker runs lay
/// every row out as the 1-worker run does.
#[test]
fn epoch_rows_have_one_layout_whatever_the_worker_count() {
    let ds = dataset(21, 2_000);
    let run = |workers: usize| {
        let config =
            ServingConfig { runtime: RuntimeConfig::with_workers(workers), ..serving_config(0) };
        let engine = ServingEngine::build(ds.clone(), config);
        let built = layout(engine.current_epoch().graph());
        for u in 0..64 {
            engine.insert(ds.profile(u * 31).to_vec(), 0);
        }
        engine.publish();
        (built, layout(engine.current_epoch().graph()))
    };
    let (built, published) = run(1);
    for round in 0..4 {
        let workers = if round == 0 { 1 } else { 2 };
        let (b, p) = run(workers);
        assert!(b == built, "round {round}: the {workers}-worker build laid its rows out anew");
        assert!(
            p == published,
            "round {round}: the {workers}-worker publish laid its rows out anew"
        );
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
/// read from a snapshot file's section table.
fn section_of(file: &[u8], id: u32) -> (usize, usize, usize) {
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
    let (offset, len, checksum_at) = section_of(&good, SECTION_ENTRIES);
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
fn a_file_without_the_entries_section_serves_from_random_seeds() {
    let ds = dataset(17, 160);
    let config = serving_config(0);
    let engine = ServingEngine::build(ds.clone(), config);
    let mut snap = engine.snapshot();
    // An epoch-only snapshot that leaves the index out.
    snap.entries = None;
    let path = TempPath::new("no-entries");
    snap.write(&path.0).unwrap();

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

/// Every `(id, payload)` of a snapshot file, in table order.
fn sections_of(file: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let count = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let id = u32::from_le_bytes(file[16 + 28 * i..][..4].try_into().unwrap());
            let (offset, len, _) = section_of(file, id);
            (id, file[offset..offset + len].to_vec())
        })
        .collect()
}

/// Lays `sections` out as a snapshot file: header, table, each payload at
/// the next 64-byte boundary under its `checksum64`.
fn file_of(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut file = b"CNCSNAP1".to_vec();
    file.extend_from_slice(&cluster_and_conquer::serve::snapshot::VERSION.to_le_bytes());
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
    let sections = sections_of(&good);
    let ids: Vec<u32> = sections.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, [1, 2, 3, SECTION_ENTRIES, SECTION_MEMBERSHIPS], "one section per part");
    // The cache's own section is its configuration token: its clusters are
    // the entry index's, its graph the file's.
    let token = cluster_and_conquer::core::build_plan::config_token(&config.c2);
    assert_eq!(sections[4].1, token.to_le_bytes());

    // The file restores the plan's memberships over the file's own graph
    // and entry index, one copy of each.
    let plan = BuildPlan::assign(&config.c2, &ds);
    let loaded = Snapshot::load(&path.0).unwrap();
    let cache = loaded.cache.as_ref().expect("the membership section must load as a cache");
    assert_eq!(cache.len(), plan.clusters().len());
    assert_eq!(cache.entries().members(), plan.clusters().concat());
    assert!(Arc::ptr_eq(cache.entries(), loaded.entries.as_ref().unwrap()));
    assert_eq!(cache.graph().num_users(), ds.num_users());
    assert_graphs_identical(cache.graph(), &loaded.graph);
    assert!(
        std::ptr::eq(cache.graph().neighbors(0).as_slice(), loaded.graph.neighbors(0).as_slice()),
        "cache and snapshot share one copy of the graph"
    );

    let (offset, len, _) = section_of(&good, SECTION_MEMBERSHIPS);
    assert_eq!(len, 8);
    let load = |bytes: &[u8]| Snapshot::load_from(&mut &bytes[..]).map(|_| ());
    for at in offset..offset + len {
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
    // A payload of any other length, under a matching checksum, is no
    // token.
    for payload in [vec![], vec![1; 7], vec![1; 9], vec![0; 4096]] {
        let mut resized = sections.clone();
        resized[4].1 = payload;
        match load(&file_of(&resized)) {
            Err(SnapshotError::Corrupt(reason)) => assert!(reason.contains("memberships")),
            other => panic!("{} bytes: expected Corrupt, got {other:?}", resized[4].1.len()),
        }
    }
    // A cache without the entry index that holds its clusters is refused
    // from the table, by every load path alike.
    let orphan = file_of(&[sections[0].clone(), sections[1].clone(), sections[4].clone()]);
    std::fs::write(&path.0, &orphan).unwrap();
    for (outcome, via) in [
        (load(&orphan), "load_from"),
        (AdoptedSnapshot::open(&path.0).map(|_| ()), "open"),
        (AdoptedSnapshot::load_copied(&path.0).map(|_| ()), "load_copied"),
    ] {
        match outcome {
            Err(SnapshotError::MissingSection("entries")) => {}
            other => panic!("{via}: expected MissingSection(entries), got {other:?}"),
        }
    }
    // Corrupt member data in ENTRIES — offsets that do not tile the
    // members, a member past the dataset — gets the one entry-index
    // verdict from the cache's loader and from adoption.
    let entries = &sections[3].1;
    let field = |at: usize| u64::from_le_bytes(entries[at..at + 8].try_into().unwrap()) as usize;
    let functions = u32::from_le_bytes(entries[4..8].try_into().unwrap()) as usize;
    let second_offset = 32 + 8 * (functions + field(16)) + 4;
    for (at, value) in [(second_offset, u32::MAX), (entries.len() - 4, u32::MAX)] {
        let mut bad = sections.clone();
        bad[3].1[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let bad = file_of(&bad);
        std::fs::write(&path.0, &bad).unwrap();
        for (outcome, via) in [
            (Snapshot::load(&path.0).map(|_| ()), "load"),
            (AdoptedSnapshot::open(&path.0).map(|_| ()), "open"),
            (AdoptedSnapshot::load_copied(&path.0).map(|_| ()), "load_copied"),
        ] {
            match outcome {
                Err(SnapshotError::Corrupt(reason)) => assert!(reason.contains("entry index")),
                other => panic!("{via}, {value} at +{at}: expected Corrupt, got {other:?}"),
            }
        }
    }
}

/// The MinHash scheme records no split tree: its epochs route no query,
/// yet their entry index still holds the plan's clusters, which the
/// writer's cache reads — through a snapshot and back, into a patched
/// publish.
#[test]
fn a_minhash_engine_persists_its_clusters_and_patches_after_a_restart() {
    let ds = dataset(23, 240);
    let base = serving_config(0);
    let config =
        ServingConfig { c2: C2Config { scheme: ClusteringScheme::MinHash, ..base.c2 }, ..base };
    let engine = ServingEngine::build(ds.clone(), config);
    assert!(engine.current_epoch().entries().is_empty(), "MinHash records no routes");
    let path = TempPath::new("minhash");
    engine.write_snapshot(&path.0).unwrap();
    let ids: Vec<u32> =
        sections_of(&std::fs::read(&path.0).unwrap()).iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, [1, 2, 3, SECTION_ENTRIES, SECTION_MEMBERSHIPS]);

    let snap = Snapshot::load(&path.0).unwrap();
    let cache = snap.cache.as_ref().expect("a MinHash engine persists its cache");
    let plan = BuildPlan::assign(&config.c2, &ds);
    let restored_clusters: Vec<&[u32]> =
        (0..cache.len() as u32).map(|c| cache.entries().cluster(c)).collect();
    assert_eq!(restored_clusters, plan.clusters().iter().map(Vec::as_slice).collect::<Vec<_>>());

    let restored = ServingEngine::from_snapshot(snap, config);
    let inserts: Vec<Vec<u32>> = [3u32, 8, 13].iter().map(|&u| ds.profile(u).to_vec()).collect();
    for (i, profile) in inserts.iter().enumerate() {
        restored.insert(profile.clone(), i as u64);
    }
    restored.publish();
    let epoch = restored.current_epoch();
    assert_eq!(epoch.rebuild_stats().path, RebuildPath::Patched);
    assert_epoch_is_a_fresh_build(&epoch, &fresh_copy(&ds, &inserts), &config);
    for q in 0..10u32 {
        let result = restored.query(ds.profile(q * 7), 6, q as u64);
        assert_eq!((result.routed_seeds, result.random_seeds), (0, config.beam.entry_points));
        assert_eq!(result.neighbors.len(), 6);
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
        let kept = sections_of(&file).iter().any(|&(id, _)| id == SECTION_MEMBERSHIPS);
        let loaded = Snapshot::load_from(&mut &file[..]).unwrap();
        assert_eq!(loaded.cache.is_some(), kept);
        loaded
    };
    assert!(reload(&own).cache.is_some(), "a cache travels beside its own graph");
    // Nor beside any index but the one holding its clusters.
    let mut other_index = own.clone();
    other_index.entries = None;
    assert!(reload(&other_index).cache.is_none(), "the file holds the cache's clusters");

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
fn a_file_carrying_an_unknown_section_id_is_corrupt_on_both_paths() {
    let engine = ServingEngine::build(dataset(20, 150), serving_config(0));
    let mut plain = Vec::new();
    engine.snapshot().write_to(&mut plain).unwrap();
    // 4 and 0x100 + i once held a per-cluster cache; no writer produces
    // them, so they are as unknown as any other id.
    let path = TempPath::new("unknown-section");
    for (id, payload) in [(4u32, vec![7u8; 16]), (0x100, vec![0xAB; 100]), (0x101, vec![0xCD; 36])]
    {
        let mut sections = sections_of(&plain);
        sections.push((id, payload));
        let file = file_of(&sections);
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
