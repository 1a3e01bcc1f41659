//! The incremental-rebuild equivalence suite.
//!
//! The contract of the staged `BuildPlan` path: an incremental build —
//! whether its patch stage reused the previous graph (cross-group pairs of
//! the dirty clusters, plus the rows that lost a neighbour) or treated the
//! cache as empty and solved every cluster — must be **bit-identical** to
//! a from-scratch build of the same dataset: identical graphs for every
//! `(insert batch × workers × spill mode)` cell, `comparisons` counting
//! exactly the similarities computed, and a cache priced like the
//! from-scratch build. On top of the matrix: the in-process pipeline's
//! incremental path; random insert sequences over several generations on
//! a configuration small enough that clusters cross `N`, split, and pull
//! users out of remainders, checked against an independent count of the
//! pairs a patch owes; one case per fallback and one with an edited and a
//! removed profile; a counts-only gate on the work a 1 % batch redoes; a
//! structural bound on the cache's size; a randomized insert-sequence
//! equivalence through the full `ServingEngine` loop; and a proptest
//! pinning that the cache reuses a cluster only against its exact
//! remembered member list.

use cluster_and_conquer::prelude::*;
use cnc_core::{cluster_dataset, FastRandomHash, RebuildPath};
use cnc_graph::KnnGraph;
use cnc_runtime::Runtime;
use std::collections::HashSet;

fn base_dataset() -> Dataset {
    let mut cfg = SyntheticConfig::small(5151);
    cfg.num_users = 450;
    cfg.num_items = 380;
    cfg.communities = 9;
    cfg.mean_profile = 22.0;
    cfg.min_profile = 7;
    cfg.generate()
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

/// Appends `batch` synthetic newcomers (donor profiles with a drift item,
/// sorted + deduplicated like the serving path stores them) and returns
/// the grown dataset plus the inserted ids.
fn grow(dataset: &Dataset, batch: usize, salt: u32) -> (Dataset, Vec<u32>) {
    let mut profiles: Vec<Vec<u32>> = dataset.iter().map(|(_, p)| p.to_vec()).collect();
    let n0 = profiles.len() as u32;
    for i in 0..batch as u32 {
        let donor = ((i * 31 + salt) as usize * 7) % profiles.len();
        let mut p = profiles[donor].clone();
        p.push(370 + (i + salt) % 17);
        p.sort_unstable();
        p.dedup();
        profiles.push(p);
    }
    let grown = Dataset::from_profiles(profiles, dataset.num_items() as u32);
    let inserted: Vec<u32> = (n0..grown.num_users() as u32).collect();
    (grown, inserted)
}

fn assert_graphs_identical(a: &KnnGraph, b: &KnnGraph, label: &str) {
    assert_eq!(a.num_users(), b.num_users(), "{label}: user counts differ");
    for u in 0..a.num_users() as u32 {
        assert_eq!(
            a.neighbors(u).sorted(),
            b.neighbors(u).sorted(),
            "{label}: user {u} differs between incremental and from-scratch"
        );
    }
}

/// The acceptance matrix: full-vs-incremental bit-identical graphs over
/// (insert batch sizes × workers × spill modes), with the comparison
/// accounting attributable per cell.
#[test]
fn incremental_matches_from_scratch_across_the_matrix() {
    let base = base_dataset();
    let c2 = c2_config();
    for batch in [1usize, 6, 32] {
        let (grown, inserted) = grow(&base, batch, batch as u32);
        for workers in [1usize, 3] {
            for spill in [SpillMode::Off, SpillMode::Always] {
                let label = format!("batch={batch} workers={workers} spill={spill:?}");
                let runtime = Runtime::new(RuntimeConfig { workers, spill });
                // Seed the cache from the base dataset, then rebuild the
                // grown one incrementally.
                let seeded = runtime.execute_incremental(&base, &c2, &ClusterCache::new(&c2), &[]);
                let incr = runtime.execute_incremental(&grown, &c2, &seeded.cache, &inserted);
                let full = runtime.execute(&grown, &c2);

                assert_graphs_identical(&incr.graph, &full.graph, &label);
                assert!(
                    incr.rebuild.reuse_ratio > 0.0,
                    "{label}: no clusters reused after a {batch}-user batch"
                );
                // Fresh + cached comparisons account for the whole
                // from-scratch build, exactly.
                assert!(incr.rebuild.comparisons < full.report.comparisons, "{label}");
                assert_eq!(
                    incr.cache.total_comparisons(),
                    full.report.comparisons,
                    "{label}: cache totals must equal a from-scratch build's count"
                );
                assert_eq!(incr.cache.len(), incr.rebuild.clusters_total, "{label}");
                incr.cache
                    .check_accounting(&incr.rebuild)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    full.report.num_clusters, incr.rebuild.clusters_total,
                    "{label}: the report and the rebuild stats must count one clustering"
                );
            }
        }
    }
}

/// The in-process pipeline's incremental path obeys the same contract as
/// the sharded engine's (they share the staged `BuildPlan`).
#[test]
fn pipeline_incremental_matches_full_build() {
    let base = base_dataset();
    let c2 = c2_config();
    let builder = ClusterAndConquer::new(c2);
    let seeded = builder.build_incremental(&base, &ClusterCache::new(&c2));
    assert_eq!(seeded.rebuild.reuse_ratio, 0.0, "empty cache resolves everything");

    let (grown, _) = grow(&base, 9, 3);
    let full = builder.build(&grown);
    let incr = builder.build_incremental(&grown, &seeded.cache);
    assert_graphs_identical(&incr.result.graph, &full.graph, "pipeline");
    assert!(incr.rebuild.reuse_ratio > 0.5, "reuse {:.2}", incr.rebuild.reuse_ratio);
    assert!(incr.result.stats.comparisons < full.stats.comparisons);
    assert_eq!(incr.cache.total_comparisons(), full.stats.comparisons);

    // Pipeline and sharded engine agree with each other, too.
    let sharded = Runtime::new(RuntimeConfig::with_workers(2)).execute_incremental(
        &grown,
        &c2,
        &seeded.cache,
        &[],
    );
    assert_graphs_identical(&sharded.graph, &incr.result.graph, "pipeline vs sharded");
    assert_eq!(sharded.rebuild.clusters_resolved, incr.rebuild.clusters_resolved);
}

/// GoldFinger fingerprints are per-user independent, so cached solutions
/// survive dataset growth bit-identically on the fingerprint backend too
/// — the serving engine's actual configuration.
#[test]
fn goldfinger_incremental_matches_from_scratch() {
    let base = base_dataset();
    let c2 =
        C2Config { backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 29 }, ..c2_config() };
    let runtime = Runtime::new(RuntimeConfig::with_workers(2));
    let seeded = runtime.execute_incremental(&base, &c2, &ClusterCache::new(&c2), &[]);
    let (grown, inserted) = grow(&base, 12, 8);
    let incr = runtime.execute_incremental(&grown, &c2, &seeded.cache, &inserted);
    let full = runtime.execute(&grown, &c2);
    assert_graphs_identical(&incr.graph, &full.graph, "goldfinger");
    assert!(incr.rebuild.reuse_ratio > 0.5);
    assert_eq!(incr.cache.total_comparisons(), full.report.comparisons);
}

/// A configuration small enough that Step 1 restructures under a handful
/// of inserts: 8 buckets per function and `N` = 40 over ~260 users, so
/// most buckets are split, remainders are common, and clusters sit close
/// to `N`. `ρ·k²` = 180 keeps every cluster brute-forced.
fn tight_config() -> C2Config {
    C2Config { k: 6, b: 8, t: 3, max_cluster_size: 40, ..c2_config() }
}

fn tight_dataset(seed: u64) -> Dataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.num_users = 260;
    cfg.num_items = 200;
    cfg.communities = 5;
    cfg.mean_profile = 9.0;
    cfg.min_profile = 2;
    cfg.generate()
}

/// Function `f`'s clusters alone, from Step 1 run on that one function —
/// no reliance on how a plan orders or tags its cluster list.
fn clusters_per_function(config: &C2Config, dataset: &Dataset) -> Vec<Vec<Vec<u32>>> {
    FastRandomHash::family(config.seed, config.t, config.b)
        .chunks(1)
        .map(|f| cluster_dataset(dataset, f, config.max_cluster_size).clusters)
        .collect()
}

/// `home[f][u]`: the index of `u`'s function-`f` cluster, if it has one.
fn homes(per_function: &[Vec<Vec<u32>>], n: usize) -> Vec<Vec<Option<usize>>> {
    per_function
        .iter()
        .map(|clusters| {
            let mut home = vec![None; n];
            for (index, users) in clusters.iter().enumerate() {
                for &u in users {
                    home[u as usize] = Some(index);
                }
            }
            home
        })
        .collect()
}

/// What a patch owes, counted from first principles: every pair of a
/// changed cluster whose two users did not share that function's cluster
/// last time, plus a full row for every retained user one of whose old
/// neighbours shares no cluster with it any more. Also reports whether a
/// retained user was pulled out of its cluster into one it shares only
/// with newcomers (Exception 2 no longer applying to it).
struct Owed {
    patch_pairs: u64,
    recompute_rows: usize,
    recompute_pairs: u64,
    pulled_out: bool,
}

fn owed(config: &C2Config, old: &Dataset, old_graph: &KnnGraph, new: &Dataset) -> Owed {
    let (n_old, n_new) = (old.num_users(), new.num_users());
    let (before, after) = (clusters_per_function(config, old), clusters_per_function(config, new));
    let (home_before, home_after) = (homes(&before, n_old), homes(&after, n_new));
    let unchanged: HashSet<&Vec<u32>> = before.iter().flatten().collect();
    let retained = |u: u32| (u as usize) < n_old;
    let mut owed =
        Owed { patch_pairs: 0, recompute_rows: 0, recompute_pairs: 0, pulled_out: false };
    for (f, clusters) in after.iter().enumerate() {
        for users in clusters.iter().filter(|users| !unchanged.contains(users)) {
            for (i, &u) in users.iter().enumerate() {
                for &v in &users[i + 1..] {
                    let together_before = retained(u)
                        && retained(v)
                        && home_before[f][u as usize] == home_before[f][v as usize];
                    owed.patch_pairs += u64::from(!together_before);
                }
            }
            let stayers: Vec<u32> = users.iter().copied().filter(|&u| retained(u)).collect();
            if let [u] = stayers[..] {
                let left_company =
                    home_before[f][u as usize].is_some_and(|index| before[f][index].len() > 1);
                owed.pulled_out |= users.len() > 1 && left_company;
            }
        }
    }
    for u in 0..n_old as u32 {
        let shares_a_cluster = |v: u32| {
            (0..config.t).any(|f| {
                home_after[f][u as usize].is_some()
                    && home_after[f][u as usize] == home_after[f][v as usize]
            })
        };
        if old_graph.neighbors(u).iter().any(|nb| !shares_a_cluster(nb.user)) {
            owed.recompute_rows += 1;
            owed.recompute_pairs += (0..config.t)
                .filter_map(|f| {
                    home_after[f][u as usize].map(|index| after[f][index].len() as u64 - 1)
                })
                .sum::<u64>();
        }
    }
    owed
}

/// Random insert sequences over several generations, each executor's
/// cache fed forward: every graph equals `ClusterAndConquer::build` of
/// the same dataset, every cache is priced like that build, and
/// `comparisons` is exactly what the independent count says a patch owes
/// (or the from-scratch count, when the patch stage declined).
#[test]
fn random_insert_sequences_stay_bit_identical_through_restructuring() {
    use proptest::prelude::*;
    let mut rng = TestRng::for_test("random_insert_sequences");
    let batches = proptest::collection::vec(1usize..14, 3..5);
    let config = tight_config();
    let builder = ClusterAndConquer::new(config);
    let runtimes = [1usize, 3].map(|workers| Runtime::new(RuntimeConfig::with_workers(workers)));
    let (mut new_splits, mut pull_outs, mut patched, mut recomputed) = (0, 0, 0, 0);
    for case in 0..6u64 {
        let mut dataset = tight_dataset(900 + case);
        let mut oracle = builder.build(&dataset);
        let mut core_cache = builder.build_incremental(&dataset, &ClusterCache::new(&config)).cache;
        let mut runtime_caches = runtimes.each_ref().map(|rt| {
            rt.execute_incremental(&dataset, &config, &ClusterCache::new(&config), &[]).cache
        });
        for (generation, batch) in batches.generate(&mut rng).into_iter().enumerate() {
            let label = format!("case {case} generation {generation} (+{batch})");
            let salt = (0u32..1000).generate(&mut rng);
            let (grown, _) = grow(&dataset, batch, salt);
            let full = builder.build(&grown);
            let owed = owed(&config, &dataset, &oracle.graph, &grown);

            let incr = builder.build_incremental(&grown, &core_cache);
            assert_graphs_identical(&incr.result.graph, &full.graph, &label);
            assert_eq!(incr.cache.total_comparisons(), full.stats.comparisons, "{label}");
            assert_eq!(incr.rebuild.comparisons, incr.result.stats.comparisons, "{label}");
            match incr.rebuild.path {
                RebuildPath::Patched => {
                    assert_eq!(
                        incr.rebuild.comparisons,
                        owed.patch_pairs + owed.recompute_pairs,
                        "{label}: comparisons must be pairs patched + pairs recomputed"
                    );
                    assert_eq!(incr.rebuild.rows_recomputed, owed.recompute_rows, "{label}");
                    patched += 1;
                    recomputed += owed.recompute_rows;
                }
                RebuildPath::PastCrossover => {
                    assert!(
                        2 * (owed.patch_pairs + owed.recompute_pairs) > full.stats.comparisons,
                        "{label}: declined a patch that owed under half the build"
                    );
                    assert_eq!(incr.rebuild.comparisons, full.stats.comparisons, "{label}");
                }
                other => panic!("{label}: unexpected path {other:?}"),
            }
            for (rt, cache) in runtimes.iter().zip(&mut runtime_caches) {
                let sharded = rt.execute_incremental(&grown, &config, cache, &[]);
                assert_graphs_identical(&sharded.graph, &full.graph, &label);
                assert_eq!(sharded.rebuild.path, incr.rebuild.path, "{label}");
                assert_eq!(sharded.rebuild.comparisons, incr.rebuild.comparisons, "{label}");
                assert_eq!(sharded.cache.total_comparisons(), full.stats.comparisons, "{label}");
                sharded
                    .cache
                    .check_accounting(&sharded.rebuild)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                *cache = sharded.cache;
            }
            new_splits += usize::from(full.stats.splits > oracle.stats.splits);
            pull_outs += usize::from(owed.pulled_out);
            (dataset, oracle, core_cache) = (grown, full, incr.cache);
        }
    }
    // The scenarios must have exercised what they were sized for.
    assert!(new_splits > 0, "no cluster crossed N");
    assert!(pull_outs > 0, "no user was pulled out of a remainder");
    assert!(
        patched > 0 && recomputed > 0,
        "{patched} patched builds, {recomputed} rows recomputed"
    );
}

/// One case per reason the patch stage reuses nothing of the previous
/// graph — each, in process and on the sharded engine at 1 and 3 workers,
/// still the from-scratch graph at the from-scratch cost, reporting every
/// cluster re-solved and none reused, each capturing a cache the next
/// build can patch.
#[test]
fn every_fallback_builds_the_from_scratch_graph() {
    let base = tight_dataset(77);
    let config = tight_config();
    let builder = ClusterAndConquer::new(config);
    let seeded = builder.build_incremental(&base, &ClusterCache::new(&config));
    assert_eq!(seeded.rebuild.path, RebuildPath::Cold, "an empty cache is a cold build");
    assert_eq!(seeded.rebuild.comparisons, seeded.cache.total_comparisons());
    let (grown, _) = grow(&base, 3, 5);
    let runtimes = [1usize, 3].map(|workers| Runtime::new(RuntimeConfig::with_workers(workers)));
    let check = |builder: &ClusterAndConquer, dataset: &Dataset, prev: &ClusterCache, want| {
        let full = builder.build(dataset);
        let incr = builder.build_incremental(dataset, prev);
        assert_eq!(incr.rebuild.path, want);
        assert_graphs_identical(&incr.result.graph, &full.graph, &format!("{want:?}"));
        assert_eq!(incr.result.stats.comparisons, full.stats.comparisons, "{want:?}");
        let solved_whole = |rebuild: &RebuildStats, label: &str| {
            assert_eq!(rebuild.clusters_total, full.stats.num_clusters, "{label}");
            assert_eq!(rebuild.clusters_resolved, rebuild.clusters_total, "{label}");
            assert_eq!((rebuild.clusters_reused(), rebuild.reuse_ratio), (0, 0.0), "{label}");
        };
        solved_whole(&incr.rebuild, &format!("{want:?}"));
        for runtime in &runtimes {
            let label = format!("{want:?}, {} workers", runtime.config().workers);
            let sharded = runtime.execute_incremental(dataset, builder.config(), prev, &[]);
            assert_eq!(sharded.rebuild.path, want, "{label}");
            solved_whole(&sharded.rebuild, &label);
            assert_graphs_identical(&sharded.graph, &full.graph, &label);
            assert_eq!(sharded.rebuild.comparisons, full.stats.comparisons, "{label}");
            // The map stage solves with the partial-list solvers: an
            // oracle outside the loop the three builds above share.
            let mapped = runtime.execute(dataset, builder.config());
            assert_graphs_identical(&mapped.graph, &full.graph, &format!("{label}, map stage"));
            assert_eq!(mapped.report.comparisons, full.stats.comparisons, "{label}, map stage");
        }
        // The captured cache is live: an unchanged dataset patches to
        // itself at no cost (greedy plans keep declining).
        let again = builder.build_incremental(dataset, &incr.cache);
        assert_graphs_identical(&again.result.graph, &full.graph, &format!("{want:?} again"));
        if want != RebuildPath::GreedyCluster {
            assert_eq!((again.rebuild.path, again.rebuild.comparisons), (RebuildPath::Patched, 0));
        }
    };
    // The control: a few inserts under the same configuration patch.
    assert_eq!(builder.build_incremental(&grown, &seeded.cache).rebuild.path, RebuildPath::Patched);

    check(&builder, &grown, &ClusterCache::new(&config), RebuildPath::Cold);

    let reseeded = ClusterAndConquer::new(C2Config { seed: config.seed + 1, ..config });
    check(&reseeded, &grown, &seeded.cache, RebuildPath::ConfigChanged);

    // ρ·k² = 36 < N: Algorithm 2 solves the larger clusters greedily, and
    // a greedy list is not the top-k of its cluster.
    let greedy_config = C2Config { rho: 1, ..config };
    let greedy = ClusterAndConquer::new(greedy_config);
    let greedy_seed = greedy.build_incremental(&base, &ClusterCache::new(&greedy_config));
    assert!(
        greedy_seed.result.stats.cluster_sizes_desc[0] >= greedy_config.brute_force_threshold()
    );
    check(&greedy, &grown, &greedy_seed.cache, RebuildPath::GreedyCluster);

    // Doubling the dataset restructures nearly every cluster.
    let (doubled, _) = grow(&base, base.num_users(), 11);
    check(&builder, &doubled, &seeded.cache, RebuildPath::PastCrossover);
}

/// Edits and deletes reduce to the row rule: an edited profile is a
/// newcomer under its old id, a removed one a neighbour nobody shares a
/// cluster with any more.
#[test]
fn edited_and_removed_profiles_patch_bit_identically() {
    let base = tight_dataset(78);
    let config = tight_config();
    let builder = ClusterAndConquer::new(config);
    let seeded = builder.build_incremental(&base, &ClusterCache::new(&config));
    let mut profiles: Vec<Vec<u32>> = base.iter().map(|(_, p)| p.to_vec()).collect();
    // User 17 takes user 140's items plus one; user 33's profile empties;
    // the last user vanishes with its id.
    let mut edited = profiles[140].clone();
    edited.push(199);
    edited.sort_unstable();
    edited.dedup();
    assert_ne!(edited, profiles[17]);
    profiles[17] = edited;
    profiles[33].clear();
    profiles.pop();
    let changed = Dataset::from_profiles(profiles, base.num_items() as u32);

    let full = builder.build(&changed);
    let incr = builder.build_incremental(&changed, &seeded.cache);
    assert_eq!(incr.rebuild.path, RebuildPath::Patched);
    assert_graphs_identical(&incr.result.graph, &full.graph, "edited + removed");
    assert!(incr.result.graph.neighbors(33).is_empty(), "an empty profile has no neighbours");
    assert!(incr.rebuild.rows_recomputed > 0, "someone listed the edited or removed users");
    assert!(incr.result.stats.comparisons < full.stats.comparisons);
    assert_eq!(incr.cache.total_comparisons(), full.stats.comparisons);

    let sharded = Runtime::new(RuntimeConfig::with_workers(2)).execute_incremental(
        &changed,
        &config,
        &seeded.cache,
        &[],
    );
    assert_graphs_identical(&sharded.graph, &full.graph, "edited + removed, sharded");
    assert_eq!(sharded.rebuild.comparisons, incr.rebuild.comparisons);
}

/// A machine-independent gate on the point of the whole exercise: a 1 %
/// insert batch that triggers no new split redoes at most a quarter of
/// the from-scratch comparisons. Counts only — no clock.
#[test]
fn a_one_percent_batch_redoes_at_most_a_quarter_of_the_comparisons() {
    let mut cfg = SyntheticConfig::small(4242);
    cfg.num_users = 1200;
    cfg.num_items = 600;
    cfg.communities = 12;
    cfg.mean_profile = 24.0;
    cfg.min_profile = 8;
    let base = cfg.generate();
    let c2 = C2Config { max_cluster_size: 300, ..c2_config() };
    let builder = ClusterAndConquer::new(c2);
    let seeded = builder.build_incremental(&base, &ClusterCache::new(&c2));
    let (grown, inserted) = grow(&base, 12, 3);
    assert_eq!(inserted.len() * 100, base.num_users());
    let incr = builder.build_incremental(&grown, &seeded.cache);
    assert_eq!(incr.result.stats.splits, seeded.result.stats.splits, "the batch must not split");
    assert_eq!(incr.rebuild.path, RebuildPath::Patched);
    assert!(
        4 * incr.rebuild.comparisons <= incr.cache.total_comparisons(),
        "{} of {} comparisons redone",
        incr.rebuild.comparisons,
        incr.cache.total_comparisons()
    );
}

/// The cache is the graph plus who sat together — never again `t` partial
/// lists per user.
#[test]
fn the_cache_stays_within_the_graph_plus_the_memberships() {
    let base = base_dataset();
    for c2 in [c2_config(), tight_config(), C2Config { k: 30, t: 8, ..c2_config() }] {
        let built = ClusterAndConquer::new(c2).build_incremental(&base, &ClusterCache::new(&c2));
        let graph_bytes = 8 * built.result.graph.num_edges();
        let bound = 3 * (graph_bytes + 4 * c2.t * base.num_users()) / 2;
        assert!(
            built.cache.size_bytes() <= bound,
            "k={} t={}: the cache holds {} bytes, over 1.5 x (graph {graph_bytes} + 4tn)",
            c2.k,
            c2.t,
            built.cache.size_bytes()
        );
        assert!(built.cache.size_bytes() >= graph_bytes, "the graph is part of the cache");
    }
}

/// End-to-end randomized insert sequences through the serving loop: every
/// published epoch must serve exactly the graph a from-scratch engine
/// builds on the same dataset.
#[test]
fn serving_epochs_are_bit_identical_to_from_scratch_builds() {
    let base = base_dataset();
    let config = cnc_serve::ServingConfig {
        c2: C2Config {
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 5 },
            ..c2_config()
        },
        runtime: RuntimeConfig::with_workers(2),
        beam: cnc_query::BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons: 0 },
        rebuild_after: 0,
    };
    let engine = ServingEngine::build(base.clone(), config);
    // Three epochs of randomized insert batches (sizes 3, 1, 7; profiles
    // derived from pseudo-random donors).
    let mut salt = 0x5EEDu32;
    for batch in [3usize, 1, 7] {
        for i in 0..batch {
            salt = salt.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let donor = salt % base.num_users() as u32;
            let mut profile = base.profile(donor).to_vec();
            profile.push(350 + (salt % 29));
            engine.insert(profile, salt as u64 + i as u64);
        }
        engine.publish();
        let epoch = engine.current_epoch();
        assert!(epoch.rebuild_stats().reuse_ratio > 0.0, "epoch {} reused nothing", epoch.epoch());
        // A from-scratch engine on the published dataset must serve the
        // identical graph (sorted per-user equality, plus identical
        // answers to a probe query).
        let scratch = ServingEngine::build(epoch.dataset().clone(), config);
        assert_graphs_identical(
            epoch.graph(),
            scratch.current_epoch().graph(),
            &format!("epoch {}", epoch.epoch()),
        );
        let probe = base.profile(11);
        assert_eq!(
            engine.query(probe, 5, 99).neighbors,
            scratch.query(probe, 5, 99).neighbors,
            "epoch {}: query answers diverge",
            epoch.epoch()
        );
    }
    assert_eq!(engine.rebuild_history().len(), 3);
}

/// The cache lookup path never reuses across configuration changes.
#[test]
fn config_changes_invalidate_the_cache() {
    let base = base_dataset();
    let c2 = c2_config();
    let runtime = Runtime::new(RuntimeConfig::with_workers(1));
    let seeded = runtime.execute_incremental(&base, &c2, &ClusterCache::new(&c2), &[]);
    let changed = C2Config { seed: c2.seed + 1, ..c2 };
    let rebuilt = runtime.execute_incremental(&base, &changed, &seeded.cache, &[]);
    assert_eq!(rebuilt.rebuild.reuse_ratio, 0.0, "other-config cache must be ignored");
    let full = runtime.execute(&base, &changed);
    assert_graphs_identical(&rebuilt.graph, &full.graph, "changed config");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A cluster is reused only against its exact remembered member
        /// list: swap two members of one remembered cluster — same
        /// members, other order — and that cluster alone turns dirty.
        #[test]
        fn cache_lookup_requires_exact_member_order(
            pick in 0usize..1_000,
            swap in (0usize..1_000, 0usize..1_000),
        ) {
            // One build for all cases: its dataset, cache and re-derived plan.
            static BUILT: std::sync::OnceLock<(Dataset, ClusterCache, BuildPlan)> =
                std::sync::OnceLock::new();
            let (ds, cache, plan) = BUILT.get_or_init(|| {
                let (c2, ds) = (c2_config(), base_dataset());
                let built = ClusterAndConquer::new(c2).build_incremental(&ds, &ClusterCache::new(&c2));
                let mut plan = BuildPlan::assign(&c2, &ds);
                plan.fingerprint(&ds);
                (ds, built.cache, plan)
            });
            prop_assert!(plan.partition(cache, &[]).dirty.is_empty());

            let victim = pick % plan.clusters().len();
            let users = &plan.clusters()[victim];
            let (a, b) = (swap.0 % users.len(), swap.1 % users.len());
            let e = cache.entries();
            let at = e.offsets()[victim] as usize;
            let mut members = e.members().to_vec();
            members.swap(at + a, at + b);
            let entries = EntryIndex::from_storage(
                e.b(),
                e.seeds().to_vec(),
                e.keys().to_vec().into(),
                e.targets().to_vec().into(),
                e.offsets().to_vec().into(),
                members.into(),
                ds.num_users(),
            )
            .unwrap();
            let permuted = ClusterCache::from_parts(
                cache.config_token(),
                std::sync::Arc::new(entries),
                ds,
                cache.graph().clone(),
            )
            .unwrap();
            let expected = if a == b { vec![] } else { vec![victim] };
            prop_assert_eq!(plan.partition(&permuted, &[]).dirty, expected);
        }
    }
}
