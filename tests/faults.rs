//! Workspace chaos suite (PR 8 keystone): under any seeded fault
//! schedule the engine *survives*, the build it produces is **bit
//! identical** to the fault-free build — injected IO errors, torn spill
//! writes and solver panics may cost retries and requeues, but never an
//! edge — and the `ClusterCache` comparison accounting still balances.
//! On the serving side, concurrent readers never observe a partially
//! published epoch while rebuilds are failing underneath them.
//!
//! The schedules stay inside the survivable regime by construction: the
//! per-key failure-budget span is capped at 2, below the runtime's
//! 3-attempt solve budget and far below the 16-attempt spill/snapshot
//! retry loops, so every injected failure is absorbed by recovery rather
//! than escalated to a typed abort (escalation is pinned by the crate
//! unit tests).

use cluster_and_conquer::prelude::*;
use cnc_core::RebuildPath;
use cnc_faults::{silence_injected_panics, Site};
use cnc_runtime::Runtime;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes every test that arms the process-global fault registry.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn chaos_dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut cfg = SyntheticConfig::small(7711);
        cfg.num_users = 380;
        cfg.num_items = 320;
        cfg.communities = 8;
        cfg.mean_profile = 20.0;
        cfg.min_profile = 6;
        cfg.generate()
    })
}

fn c2_config() -> C2Config {
    C2Config {
        k: 8,
        b: 64,
        t: 3,
        max_cluster_size: 120,
        backend: SimilarityBackend::Raw,
        seed: 17,
        threads: 1,
        ..C2Config::default()
    }
}

/// Runs `build` under a chaos cell's schedule: every site may fire, each
/// key failing at most twice.
fn under_faults<T>(fault_seed: u64, p: f64, build: impl FnOnce() -> T) -> T {
    let _guard = Faults::global().arm(FaultPlan::new(fault_seed, p).with_span(2));
    build()
}

/// Asserts the keystone invariant's graph half: the faulted build is the
/// fault-free one, user for user.
fn assert_same_graph(clean: &KnnGraph, faulted: &KnnGraph, label: &str) {
    assert_eq!(clean.num_users(), faulted.num_users(), "{label}");
    for u in 0..clean.num_users() as u32 {
        assert_eq!(
            clean.neighbors(u).sorted(),
            faulted.neighbors(u).sorted(),
            "{label}: user {u} differs between the fault-free and the faulted build"
        );
    }
}

/// One chaos cell: each build runs fault-free, then again under the armed
/// schedule, and must come out identical. The map stage
/// (`Runtime::execute`) also hands the merge the same entries for equal
/// comparison totals; the patch stage (`execute_incremental`, from an
/// empty cache and from a warm one) keeps its cache accounting balanced.
fn chaos_case(fault_seed: u64, p: f64, workers: usize, spill: SpillMode) {
    let _serial = fault_lock();
    silence_injected_panics();
    let dataset = chaos_dataset();
    let c2 = c2_config();
    let config = RuntimeConfig { workers, spill };
    let runtime = Runtime::new(config);
    let label = format!("fault_seed={fault_seed} p={p:.2} workers={workers} spill={spill:?}");
    let clean = runtime.execute(dataset, &c2);
    let chaotic = under_faults(fault_seed, p, || runtime.execute(dataset, &c2));
    assert!(!Faults::global().armed(), "{label}: guard must disarm on drop");
    assert_same_graph(&clean.graph, &chaotic.graph, &format!("{label} map stage"));
    assert_eq!(chaotic.report.shuffle_entries, clean.report.shuffle_entries, "{label}");
    // Comparisons are a function of the graph, not of the recovery path:
    // a failed gate fires before the solve, so a re-attempt costs none.
    assert_eq!(
        chaotic.report.comparisons, clean.report.comparisons,
        "{label}: comparison totals drifted under fault recovery"
    );

    // The warm cache is a fault-free build of all but the last few users.
    let head = dataset.iter().take(dataset.num_users() - 6).map(|(_, p)| p.to_vec()).collect();
    let head = Dataset::from_profiles(head, dataset.num_items() as u32);
    let cold = ClusterCache::new(&c2);
    let warm = runtime.execute_incremental(&head, &c2, &cold, &[]).cache;
    for (prev, want) in [(&cold, RebuildPath::Cold), (&warm, RebuildPath::Patched)] {
        let label = format!("{label} {want:?}");
        let clean = runtime.execute_incremental(dataset, &c2, prev, &[]);
        let chaotic =
            under_faults(fault_seed, p, || runtime.execute_incremental(dataset, &c2, prev, &[]));
        assert_eq!(clean.rebuild.path, want, "{label}");
        assert_same_graph(&clean.graph, &chaotic.graph, &label);
        chaotic
            .cache
            .check_accounting(&chaotic.rebuild)
            .unwrap_or_else(|e| panic!("{label}: accounting broke under faults: {e}"));
        assert_eq!(chaotic.rebuild.comparisons, clean.rebuild.comparisons, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized fault schedules over workers × spill modes: whatever
    /// subset of sites fires, at whatever probability, the surviving build
    /// is the fault-free build.
    #[test]
    fn random_fault_schedules_build_identical_graphs(
        fault_seed in 0u64..10_000,
        p_mille in 50u32..1000,
        cell in 0usize..4,
    ) {
        let workers = [1, 3][cell & 1];
        let spill = [SpillMode::Off, SpillMode::Always][(cell >> 1) & 1];
        chaos_case(fault_seed, p_mille as f64 / 1000.0, workers, spill);
    }
}

/// Serving under faulted rebuilds, in both regimes, while readers hammer
/// the engine. Span 12 exhausts the per-cluster solve budget, so every
/// rebuild attempt dies: no query may ever observe a partially built
/// epoch — the user count and the neighbour ids must stay those of the
/// last *good* epoch — and once the schedule is disarmed the queued
/// inserts publish normally. Span 2 stays under that budget, so every
/// injected solver panic is absorbed by a retry and every insert
/// publishes on its own, with no explicit heal.
#[test]
fn readers_never_observe_a_partial_epoch_while_rebuilds_fail() {
    let _serial = fault_lock();
    silence_injected_panics();
    let base = {
        let mut cfg = SyntheticConfig::small(6006);
        cfg.num_users = 240;
        cfg.num_items = 200;
        cfg.communities = 6;
        cfg.mean_profile = 16.0;
        cfg.min_profile = 5;
        cfg.generate()
    };
    let users0 = base.num_users();
    let config = ServingConfig {
        c2: C2Config {
            k: 8,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 33 },
            seed: 9,
            threads: 1,
            ..C2Config::default()
        },
        runtime: RuntimeConfig::with_workers(2),
        beam: BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons: 0 },
        rebuild_after: 2,
    };
    let inserts = 8usize;

    for (span, absorbed) in [(12, false), (2, true)] {
        let engine = ServingEngine::build(base.clone(), config);
        // The largest epoch a reader may be answered from.
        let visible = if absorbed { users0 + inserts } else { users0 };
        let guard = Faults::global()
            .arm(FaultPlan::new(3, 1.0).only(&[Site::SolveCluster]).with_span(span));
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..inserts {
                    let mut profile = base.profile((i % users0) as u32).to_vec();
                    profile.push((i % 50) as u32);
                    profile.sort_unstable();
                    profile.dedup();
                    engine.insert(profile, i as u64);
                }
            });
            for reader in 0..2u64 {
                let engine = &engine;
                let base = &base;
                scope.spawn(move || {
                    let mut session = engine.session();
                    for i in 0..150u64 {
                        let profile = base.profile(((reader * 97 + i) % users0 as u64) as u32);
                        let result = engine.query_with(&mut session, profile, 5, i);
                        assert!(
                            !result.neighbors.is_empty(),
                            "span {span}: query on a live epoch came back empty"
                        );
                        for n in &result.neighbors {
                            assert!(
                                (n.user as usize) < visible,
                                "span {span}: reader saw user {} from an unpublished epoch \
                                 (published epochs have at most {visible})",
                                n.user
                            );
                        }
                    }
                });
            }
            writer.join().expect("writer thread panicked");
        });
        // What every publish appends: a failed attempt leaves its slots
        // claimed past the live epoch's end, and the retry copies.
        let published = |engine: &ServingEngine| {
            let mut grown = cluster_and_conquer::dataset::DatasetBuilder::new();
            for (_, profile) in base.iter() {
                grown.push_sorted_profile(profile);
            }
            for i in 0..inserts {
                let mut profile = base.profile((i % users0) as u32).to_vec();
                profile.push((i % 50) as u32);
                grown.push_profile(profile);
            }
            let grown = grown.build_with_min_items(base.num_items() as u32);
            let epoch = engine.current_epoch();
            assert_eq!(epoch.dataset(), &grown, "span {span}: the published dataset");
            let oracle = ClusterAndConquer::new(config.c2).build(&grown).graph;
            for u in grown.users() {
                assert_eq!(
                    epoch.graph().neighbors(u).sorted(),
                    oracle.neighbors(u).sorted(),
                    "span {span}: user {u} differs from a fresh build"
                );
            }
        };

        let stats = engine.stats();
        assert!(Faults::global().injected(Site::SolveCluster) > 0, "span {span} injected nothing");
        assert_eq!(stats.inserts, inserts as u64, "every insert is absorbed despite the faults");
        if absorbed {
            assert_eq!(stats.rebuild_failures, 0, "span 2 is absorbed below the retry budget");
            assert_eq!(stats.num_users, users0 + inserts, "every insert published unaided");
            let swaps = (inserts / config.rebuild_after) as u64;
            assert_eq!(stats.epoch_swaps, swaps, "one swap per `rebuild_after` inserts");
            drop(guard);
            published(&engine);
            continue;
        }
        assert_eq!(stats.num_users, users0, "a failed rebuild must not publish");
        assert!(
            stats.rebuild_failures > 0,
            "the schedule must have killed at least one rebuild attempt"
        );

        // Disarm: the engine heals on the next explicit publish, absorbing
        // everything that queued up while rebuilds were failing.
        drop(guard);
        engine.publish();
        let healed = engine.stats();
        assert_eq!(healed.num_users, users0 + inserts, "queued inserts publish after recovery");
        published(&engine);
    }
}

/// The `snapshot.mmap` fault site: an injected map failure never fails
/// the adoption — it forces the bit-exact copy fallback, and the engine
/// that adopts the fallen-back state serves exactly like one that
/// mapped.
#[test]
fn injected_mmap_failures_fall_back_to_the_copy_path() {
    use cluster_and_conquer::serve::AdoptedSnapshot;

    let _serial = fault_lock();
    silence_injected_panics();
    let base = {
        let mut cfg = SyntheticConfig::small(4242);
        cfg.num_users = 160;
        cfg.num_items = 140;
        cfg.communities = 6;
        cfg.mean_profile = 14.0;
        cfg.min_profile = 5;
        cfg.generate()
    };
    let config = ServingConfig {
        c2: C2Config {
            k: 8,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 33 },
            seed: 9,
            threads: 1,
            ..C2Config::default()
        },
        runtime: RuntimeConfig::with_workers(2),
        beam: BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons: 0 },
        rebuild_after: 0,
    };
    let engine = ServingEngine::build(base.clone(), config);
    let path = std::env::temp_dir().join(format!("cnc-chaos-mmap-{}.snap", std::process::id()));
    engine.write_snapshot(&path).unwrap();

    let mapped = AdoptedSnapshot::open(&path).unwrap();
    let fallback = {
        let _guard =
            Faults::global().arm(FaultPlan::new(5, 1.0).only(&[Site::SnapshotMmap]).with_span(2));
        let fallback = AdoptedSnapshot::open(&path).unwrap();
        assert!(!fallback.mapped, "an armed snapshot.mmap site must force the copy path");
        assert!(
            Faults::global().injected(Site::SnapshotMmap) > 0,
            "the injection must actually have fired"
        );
        fallback
    };
    let _ = std::fs::remove_file(&path);

    // Both load paths decode the same file in file order: bit-identical,
    // heap layout included.
    assert_eq!(mapped.dataset, fallback.dataset);
    assert_eq!(mapped.graph.num_users(), fallback.graph.num_users());
    for (u, list) in mapped.graph.iter() {
        let mine: Vec<(u32, u32)> = list.iter().map(|n| (n.user, n.sim.to_bits())).collect();
        let got: Vec<(u32, u32)> =
            fallback.graph.neighbors(u).iter().map(|n| (n.user, n.sim.to_bits())).collect();
        assert_eq!(mine, got, "user {u} differs between mmap and copy fallback");
    }

    // The fallen-back state still adopts and serves.
    engine.adopt(fallback);
    let result = engine.query(base.profile(3), 5, 1);
    assert!(!result.neighbors.is_empty(), "the adopted fallback epoch must answer queries");
}

/// What recovery did is read from the span that encloses it: the map
/// stage's `build.map_reduce` counts the clusters the `solve.cluster` gate
/// requeued and the spill operations it retried, the incremental build's
/// `build` span its requeues, and a snapshot poll's `snapshot.poll` span
/// the transient open retries and the files it quarantined. Each count
/// equals the injections the armed schedule fired at those sites.
#[test]
fn recovery_counts_are_attributes_of_the_enclosing_span() {
    use cluster_and_conquer::serve::SnapshotAdopter;
    use cnc_telemetry::SpanRecord;

    let _serial = fault_lock();
    silence_injected_panics();
    // Telemetry never changes a result (`tests/telemetry_identity.rs`), so
    // the switch stays on for whatever else runs in this binary.
    let telemetry = Telemetry::global();
    telemetry.enable(true);
    let faults = Faults::global();
    let has = |name: &str, want: &[(&str, u64)]| {
        let matches = |r: &SpanRecord| {
            r.name == name && want.iter().all(|&(key, value)| r.attrs.contains(&(key, value)))
        };
        telemetry.span_records().iter().any(matches)
    };
    let dataset = chaos_dataset();
    let c2 = c2_config();
    let runtime = Runtime::new(RuntimeConfig { workers: 2, spill: SpillMode::Always });

    let sites = [Site::SolveCluster, Site::SpillWrite, Site::SpillReplay];
    let (report, requeued, retried) = {
        let _guard = faults.arm(FaultPlan::new(3, 1.0).only(&sites).with_span(2));
        let report = runtime.execute(dataset, &c2).report;
        let retried = faults.injected(Site::SpillWrite) + faults.injected(Site::SpillReplay);
        (report, faults.injected(Site::SolveCluster), retried)
    };
    assert!(requeued > 0 && retried > 0, "the schedule must have fired at every site");
    let map_reduce = [
        ("shuffle_entries", report.shuffle_entries),
        ("requeued_clusters", requeued),
        ("spill_retries", retried),
    ];
    assert!(has("build.map_reduce", &map_reduce), "no build.map_reduce span with {map_reduce:?}");

    let (rebuild, requeued) = {
        let _guard = faults.arm(FaultPlan::new(4, 1.0).only(&[Site::SolveCluster]).with_span(2));
        let built = runtime.execute_incremental(dataset, &c2, &ClusterCache::new(&c2), &[]);
        (built.rebuild, faults.injected(Site::SolveCluster))
    };
    assert!(requeued > 0, "the schedule must have fired");
    let build = [("comparisons", rebuild.comparisons), ("requeued_clusters", requeued)];
    assert!(has("build", &build), "no build span with {build:?}");

    // A valid epoch 0 and a newer epoch 1 with one rotten byte mid-file
    // (inside a section adoption reads), polled while both load paths
    // fail transiently.
    let dir = std::env::temp_dir().join(format!("cnc-chaos-poll-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServingConfig {
        c2: C2Config { threads: 1, ..c2 },
        runtime: RuntimeConfig::with_workers(1),
        ..ServingConfig::default()
    };
    let engine = ServingEngine::build(dataset.clone(), config);
    engine.write_snapshot(dir.join("epoch-0.snap")).unwrap();
    let mut rotten = std::fs::read(dir.join("epoch-0.snap")).unwrap();
    let middle = rotten.len() / 2;
    rotten[middle] ^= 1;
    std::fs::write(dir.join("epoch-1.snap"), rotten).unwrap();
    let (seq, retries) = {
        let sites = [Site::SnapshotMmap, Site::SnapshotLoad];
        let _guard = faults.arm(FaultPlan::new(6, 1.0).only(&sites).with_span(2));
        let (seq, _) = SnapshotAdopter::new(&dir).poll().unwrap().expect("epoch 0 loads");
        // Each injected copy-path failure was one failed open, retried.
        (seq, faults.injected(Site::SnapshotLoad))
    };
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(seq, 0, "the poll falls back past the rotten epoch");
    assert!(retries > 0, "the schedule must have fired");
    let poll = [("seq", 0), ("quarantined", 1), ("retries", retries)];
    assert!(has("snapshot.poll", &poll), "no snapshot.poll span with {poll:?}");
}
