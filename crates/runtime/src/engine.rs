//! The sharded map engine.
//!
//! [`Runtime::execute`] runs the map stage below. Incremental builds
//! ([`Runtime::execute_incremental`] and its shared-fingerprint twin) run
//! no map stage: they are the plan's patch stage ([`BuildPlan::patch`]) on
//! the same worker budget — the one solve loop the in-process pipeline
//! runs too. Both stages schedule their clusters the same way: one
//! [`PriorityPool`] job per cluster, largest predicted cost first (Step
//! 2's decreasing priority queue), each behind the `solve.cluster` fault
//! gate (`solve_gate`).
//!
//! ```text
//!             ┌──────────────┐  merge_into   ┌────────────────┐
//!  clusters → │ PriorityPool │ ────────────▶ │ SharedKnnGraph │ ─ into_graph ─▶ KnnGraph
//!  (largest   │  W threads   │               │ (n × k arena)  │   (in place)
//!   first)    └──────────────┘               └────────────────┘
//!                    │                               ▲
//!                    └─ one spill stream per build ──┘ replayed once the pool joins
//! ```
//!
//! Every solved cluster's partial lists are merged straight into one
//! [`SharedKnnGraph`] under its per-row locks (Algorithm 3) — or, under
//! [`SpillMode::Always`], appended to the build's spill stream, which is
//! replayed into the same arena once every job has run. The arena then
//! freezes in place into the [`KnnGraph`].
//!
//! Because a row keeps the top-k under a strict total order on
//! `(similarity, user)` and the spill codec is lossless, the merge is
//! order- and route-independent: every `(workers, spill)` combination
//! produces exactly the single-process pipeline's graph on the same
//! configuration and seed (asserted by `tests/conformance.rs`).

use crate::config::{RuntimeConfig, SpillMode};
use crate::shuffle::{replay_spill, FinishedSpill, ShuffleError, SpillDir, SpillWriter};
use cnc_baselines::local;
use cnc_core::build_plan::{BuildPlan, ClusterCache, RebuildStats};
use cnc_core::distributed::cluster_cost;
use cnc_core::{C2Config, ClusterAndConquer};
use cnc_dataset::{Dataset, UserId};
use cnc_faults::{Faults, Site};
use cnc_graph::{KnnGraph, NeighborList, SharedKnnGraph};
use cnc_similarity::{GoldFinger, SimilarityData};
use cnc_telemetry::Telemetry;
use cnc_threadpool::PriorityPool;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-build attempts per cluster (first try + bounded re-executions after
/// caught injected panics). A cluster whose gate fails this many times
/// aborts the build — the layer above (the serving writer) keeps its last
/// good epoch and retries the whole publish with backoff, by which point
/// a transient fault schedule has drained its budget.
const MAX_SOLVE_ATTEMPTS: u32 = 3;

/// A built graph plus the record of the map stage that built it.
#[derive(Debug)]
pub struct ShardedResult {
    /// The approximate KNN graph (identical to the single-process build's).
    pub graph: KnnGraph,
    /// What the map stage handed to the merge, and how.
    pub report: RuntimeReport,
}

/// The record of one map-stage build (`Runtime::execute`). Its
/// `shuffle_entries` is the measured counterpart of the §VIII cost
/// model's `DeploymentPlan::merge_traffic`. Incremental builds run no map
/// stage and report in their `RebuildStats` instead.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Entries `(user, neighbour, sim)` the map stage handed to the merge,
    /// directly and through the spill stream combined.
    pub shuffle_entries: u64,
    /// Of `shuffle_entries`, how many went through the spill stream.
    pub spilled_entries: u64,
    /// Encoded bytes written to the spill stream.
    pub spilled_bytes: u64,
    /// Partial-list records that were due to spill but were merged
    /// directly because the spill stream broke (0 unless a spill
    /// create/append hard-failed).
    pub rerouted_records: u64,
    /// The spill policy the run executed under.
    pub spill: SpillMode,
    /// The unique temp dir the spill stream was written to (`None` when
    /// the spill mode is [`SpillMode::Off`]). The dir is removed before
    /// the build returns, so this path records *where* the map stage
    /// spilled, not a live location.
    pub spill_dir: Option<PathBuf>,
    /// Number of clusters in the build's clustering.
    pub num_clusters: usize,
    /// Recursive splits performed during clustering.
    pub splits: usize,
    /// Similarity computations performed during the run.
    pub comparisons: u64,
    /// Wall-clock of the map stage, its merge and the spill replay.
    pub map_reduce_wall: Duration,
}

/// An incremental sharded build's output: the graph, the cache the next
/// call patches and the record of what this one did.
#[derive(Debug)]
pub struct IncrementalShardedResult {
    /// The approximate KNN graph — bit-identical to a from-scratch build.
    pub graph: KnnGraph,
    /// This build's cluster memberships and graph (shared with `graph`,
    /// not copied); `cache.total_comparisons()` equals a from-scratch
    /// build's comparison count, and `cache.entries()` is the plan's entry
    /// index ([`BuildPlan::entry_index`]), which routes a query profile to
    /// this build's clusters — whoever serves `graph` shares it and needs
    /// no second Step-1 pass to seed searches.
    pub cache: ClusterCache,
    /// The dirty/reused split, the path taken and what it cost;
    /// `comparisons` counts exactly the similarities this build computed.
    pub rebuild: RebuildStats,
}

/// The sharded map execution engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// Creates an engine.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Builds the KNN graph of `dataset` under `c2` on `W` worker threads,
    /// materializing the similarity backend declared in the configuration
    /// (GoldFinger fingerprints are built in parallel on the same
    /// threads): stage 1 assigns the [`BuildPlan`], then every cluster is
    /// solved into partial lists merged into the shared arena (Algorithms
    /// 2 + 3).
    ///
    /// # Panics
    /// Panics if `c2` is invalid. A cluster whose `solve.cluster` gate
    /// exhausts its attempts fails the build with the typed injected
    /// payload; any other panic in a solve fails it with its own.
    pub fn execute(&self, dataset: &Dataset, c2: &C2Config) -> ShardedResult {
        let telemetry = Telemetry::global();
        let workers = self.config.effective_workers();
        let sim = SimilarityData::build_parallel(c2.backend, dataset, workers);

        // --- Stage 1: assignment, identical to the in-process pipeline ---
        let plan = BuildPlan::assign(c2, dataset);
        let map_reduce_start_ns = telemetry.stamp();
        let map_reduce_start = Instant::now();

        // The cleanup-on-drop guard lives on this stack frame: a panicking
        // job unwinds through the pool and still removes the spill dir and
        // everything in it.
        let spill_dir = match self.config.spill {
            SpillMode::Off => None,
            SpillMode::Always => Some(SpillDir::create().expect("failed to create spill dir")),
        };
        let spill_dir_path = spill_dir.as_ref().map(|d| d.path().to_path_buf());
        let arena = SharedKnnGraph::new(dataset.num_users(), c2.k);
        let totals = run_map_stage(&plan, &sim, c2, workers, spill_dir.as_ref(), &arena);
        drop(spill_dir); // the spill stream is removed before the build returns
        let graph = arena.into_graph();
        let map_reduce_wall = map_reduce_start.elapsed();

        let report = RuntimeReport {
            shuffle_entries: totals.shuffle_entries,
            spilled_entries: totals.spilled_entries,
            spilled_bytes: totals.spilled_bytes,
            rerouted_records: totals.rerouted_records,
            spill: self.config.spill,
            spill_dir: spill_dir_path,
            num_clusters: plan.clusters().len(),
            splits: plan.splits(),
            comparisons: sim.comparisons(),
            map_reduce_wall,
        };
        telemetry.record_complete(
            "build.map_reduce",
            map_reduce_start_ns,
            map_reduce_wall.as_nanos() as u64,
            vec![
                ("shuffle_entries", report.shuffle_entries),
                ("requeued_clusters", totals.requeued_clusters),
                ("spill_retries", totals.spill_retries),
            ],
        );
        ShardedResult { graph, report }
    }

    /// Incrementally rebuilds from `prev` — the previous build's cluster
    /// memberships and graph. The build is the plan's patch stage
    /// ([`BuildPlan::patch`]) on this engine's worker budget, the same
    /// solve loop as `ClusterAndConquer::build_incremental`: no map stage
    /// runs and no partial list is built. A cache the stage cannot use
    /// (empty or other-config, a greedy cluster, a restructured plan —
    /// `rebuild.path` says which) is treated as an empty one, and every
    /// cluster is solved whole. `_changed` is accepted for source
    /// compatibility and ignored: appended and edited users are found by
    /// their profile digests. The graph is bit-identical to
    /// [`Runtime::execute`] on the same dataset, and `rebuild.comparisons`
    /// counts exactly the similarities computed — locked by
    /// `tests/conformance.rs`. Pass an empty cache for the first build.
    ///
    /// # Panics
    /// Panics if `c2` is invalid.
    pub fn execute_incremental(
        &self,
        dataset: &Dataset,
        c2: &C2Config,
        prev: &ClusterCache,
        _changed: &[UserId],
    ) -> IncrementalShardedResult {
        let start = Instant::now();
        let sim =
            SimilarityData::build_parallel(c2.backend, dataset, self.config.effective_workers());
        self.execute_incremental_with(dataset, &sim, c2, prev, start)
    }

    /// [`Runtime::execute_incremental`] against a pre-built, shared
    /// fingerprint set — one `GoldFinger::build` amortized across builds
    /// instead of re-hashing the dataset each time. This is the serving
    /// engine's build and rebuild path, where one fingerprint set is
    /// shared between construction and the published epoch's query
    /// kernels.
    ///
    /// # Panics
    /// Panics if the fingerprints don't cover `dataset`'s users, or if
    /// `c2.backend` is not the GoldFinger configuration the shared build
    /// was made with — a silent mismatch would produce a graph
    /// inconsistent with the configuration the plan and report claim.
    pub fn execute_incremental_shared(
        &self,
        dataset: &Dataset,
        c2: &C2Config,
        goldfinger: Arc<GoldFinger>,
        prev: &ClusterCache,
    ) -> IncrementalShardedResult {
        validate_shared(dataset, c2, &goldfinger);
        let start = Instant::now();
        let sim = SimilarityData::from_goldfinger(goldfinger);
        self.execute_incremental_with(dataset, &sim, c2, prev, start)
    }

    /// Stages 1–4 of the [`BuildPlan`], every cluster job behind
    /// [`solve_gate`], then the cache captured for the next call — under
    /// one `build` span, as the in-process pipeline's, which also counts
    /// the clusters the gate requeued.
    fn execute_incremental_with(
        &self,
        dataset: &Dataset,
        sim: &SimilarityData<'_>,
        c2: &C2Config,
        prev: &ClusterCache,
        start: Instant,
    ) -> IncrementalShardedResult {
        let mut span = Telemetry::global().span("build");
        let comparisons_before = sim.comparisons();
        let mut plan = BuildPlan::assign(c2, dataset);
        plan.fingerprint(dataset);
        let requeued = AtomicU64::new(0);
        let gate = |cluster| solve_gate(cluster, &requeued);
        let patch = plan.patch(sim, prev, self.config.effective_workers(), &gate);
        let comparisons = sim.comparisons() - comparisons_before;
        let (graph, cache, rebuild) = plan.finish(patch.graph, patch.rebuild, comparisons, start);
        span.attr("comparisons", comparisons);
        span.attr("users", dataset.num_users() as u64);
        span.attr("requeued_clusters", requeued.into_inner());
        IncrementalShardedResult { graph, cache, rebuild }
    }
}

/// The per-cluster `solve.cluster` fault gate of both stages: an injected
/// panic is caught and the cluster re-attempted (counted in `requeued`),
/// up to [`MAX_SOLVE_ATTEMPTS`] failures per cluster. Exhaustion re-raises
/// the typed payload, which fails the build before the cluster's solve
/// has touched a row.
fn solve_gate(cluster: usize, requeued: &AtomicU64) {
    let faults = Faults::global();
    if !faults.armed() {
        return;
    }
    for attempt in 1.. {
        match cnc_faults::catch_injected(|| faults.panic_on(Site::SolveCluster, cluster as u64)) {
            Ok(()) => return,
            Err(injected) if attempt >= MAX_SOLVE_ATTEMPTS => std::panic::panic_any(injected),
            Err(_) => {
                requeued.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The fingerprint-set validation of
/// [`Runtime::execute_incremental_shared`] (its doc lists the panics).
fn validate_shared(dataset: &Dataset, c2: &C2Config, goldfinger: &GoldFinger) {
    assert_eq!(
        goldfinger.num_users(),
        dataset.num_users(),
        "shared fingerprints must cover the dataset"
    );
    if let Err(reason) = c2.backend.check_fingerprints(Some(goldfinger)) {
        panic!("shared {reason}");
    }
}

/// What the map stage handed to the merge, by which route, and what
/// recovery it took to get there.
#[derive(Debug, Default)]
struct MapTotals {
    shuffle_entries: u64,
    spilled_entries: u64,
    spilled_bytes: u64,
    rerouted_records: u64,
    /// Cluster attempts the `solve.cluster` gate caught and re-ran.
    requeued_clusters: u64,
    /// Failed spill creates, appends and replays that were retried.
    spill_retries: u64,
}

/// The map stage: every cluster of `plan` is one [`PriorityPool`] job on
/// `workers` threads, priced by [`cluster_cost`] and behind
/// [`solve_gate`]. A job solves its cluster into partial lists (Algorithm
/// 2: brute force below the `ρ·k²` crossover, greedy Hyrec above — the
/// single-process pipeline's branch) and merges each non-empty one into
/// `graph` — or, given a spill dir, appends it to the build's one spill
/// stream, replayed into `graph` once the pool has joined.
fn run_map_stage(
    plan: &BuildPlan,
    sim: &SimilarityData<'_>,
    c2: &C2Config,
    workers: usize,
    spill_dir: Option<&SpillDir>,
    graph: &SharedKnnGraph,
) -> MapTotals {
    let clusters = plan.clusters();
    let threshold = c2.brute_force_threshold();
    let requeued = AtomicU64::new(0);
    let stream = spill_dir.map(|dir| Mutex::new(SpillStream::open(dir)));
    let shuffle_entries = AtomicU64::new(0);
    let jobs = clusters.iter().enumerate();
    let jobs = jobs.map(|(index, users)| (cluster_cost(users.len(), c2.k, c2.rho), index));
    PriorityPool::run(workers, jobs.collect(), |cluster| {
        solve_gate(cluster, &requeued);
        let users = &clusters[cluster];
        let seed = ClusterAndConquer::job_seed(c2, cluster);
        let (lists, _) =
            local::solve_cluster_partial(users, sim, c2.k, threshold, c2.rho, c2.delta, seed);
        let mut spill = stream.as_ref().map(Mutex::lock);
        let mut entries = 0;
        for (&user, list) in users.iter().zip(&lists).filter(|(_, list)| !list.is_empty()) {
            entries += list.len() as u64;
            if !spill.as_mut().is_some_and(|stream| stream.push(user, list)) {
                graph.merge_into(user, list);
            }
        }
        shuffle_entries.fetch_add(entries, Ordering::Relaxed);
    });

    let mut totals = MapTotals {
        shuffle_entries: shuffle_entries.into_inner(),
        requeued_clusters: requeued.into_inner(),
        ..MapTotals::default()
    };
    if let Some(stream) = stream.map(Mutex::into_inner) {
        totals.rerouted_records = stream.rerouted;
        totals.spill_retries = stream.create_retries;
        if let Some(file) = stream.finish() {
            let (replayed, retries) = replay_into(graph, &file, c2.k);
            debug_assert_eq!(replayed, file.entries, "the spill replay lost entries");
            (totals.spilled_entries, totals.spilled_bytes) = (file.entries, file.bytes);
            totals.spill_retries += file.retries + retries;
        }
    }
    totals
}

/// Merges a sealed spill file into the arena; returns the entries merged
/// and the read retries it took. [`replay_spill`] retries IO failures
/// internally and decodes the whole file before a single record is
/// merged; only a genuine persistent failure fails the build.
fn replay_into(graph: &SharedKnnGraph, file: &FinishedSpill, k: usize) -> (u64, u64) {
    let (records, retries) =
        replay_spill(&file.path, k).unwrap_or_else(|e| panic!("spill replay failed: {e}"));
    let mut entries = 0u64;
    for (user, partial) in &records {
        graph.merge_into(*user, partial);
        entries += partial.len() as u64;
    }
    (entries, retries.into())
}

/// The build's spill stream, shared by every job behind a lock. It is
/// broken for the rest of the build once its create or an append exhausts
/// the writer's retries; the records due to it are then merged directly —
/// the graph is route-independent, so degrading the route never changes
/// the result.
struct SpillStream {
    writer: Option<SpillWriter>,
    broken: bool,
    /// Records due to spill that were merged directly instead.
    rerouted: u64,
    /// Retries of a create that exhausted them (a created writer counts
    /// its own).
    create_retries: u64,
}

impl SpillStream {
    /// Creates the stream's file in `dir`.
    fn open(dir: &SpillDir) -> Self {
        let (writer, create_retries) = match SpillWriter::create(dir.file_path(0), 0) {
            Ok(writer) => (Some(writer), 0),
            // Every attempt but the last was a retry.
            Err(ShuffleError::Exhausted { attempts, .. }) => (None, u64::from(attempts) - 1),
            Err(ShuffleError::Io { .. }) => (None, 0),
        };
        SpillStream { broken: writer.is_none(), writer, rerouted: 0, create_retries }
    }

    /// Appends one record; `false` when the stream is (or just became)
    /// broken, and the caller merges the record directly instead. A failed
    /// append leaves the committed prefix in place, still replayable.
    fn push(&mut self, user: UserId, list: &NeighborList) -> bool {
        if !self.broken {
            let writer = self.writer.as_mut().expect("an unbroken stream has a writer");
            self.broken = writer.push(user, list).is_err();
        }
        self.rerouted += u64::from(self.broken);
        !self.broken
    }

    /// Seals the stream, if it was created. A seal failure is not
    /// recoverable by merging directly — records already committed to
    /// the stream would silently vanish from the merge — so it fails the
    /// build. (Injected faults never fire here: `finish` only flushes,
    /// and every append was already durable or merged directly.)
    fn finish(self) -> Option<FinishedSpill> {
        self.writer.map(|w| w.finish().unwrap_or_else(|e| panic!("spill seal failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_core::{plan_deployment, RebuildPath};
    use cnc_dataset::SyntheticConfig;
    use cnc_similarity::SimilarityBackend;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn test_dataset() -> Dataset {
        let mut cfg = SyntheticConfig::small(77);
        cfg.num_users = 500;
        cfg.num_items = 400;
        cfg.communities = 8;
        cfg.mean_profile = 25.0;
        cfg.min_profile = 8;
        cfg.generate()
    }

    fn test_config() -> C2Config {
        C2Config {
            k: 8,
            b: 64,
            t: 3,
            max_cluster_size: 120,
            backend: SimilarityBackend::Raw,
            seed: 41,
            threads: 1,
            ..C2Config::default()
        }
    }

    #[test]
    fn sharded_graph_equals_single_process_graph() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let single = ClusterAndConquer::new(test_config()).build(&ds);
        for workers in [1usize, 3] {
            let sharded =
                Runtime::new(RuntimeConfig::with_workers(workers)).execute(&ds, &test_config());
            for u in ds.users() {
                assert_eq!(
                    sharded.graph.neighbors(u).sorted(),
                    single.graph.neighbors(u).sorted(),
                    "user {u} differs with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn measured_shuffle_matches_predicted_merge_traffic() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = test_config();
        let result = Runtime::new(RuntimeConfig::with_workers(3)).execute(&ds, &c2);
        let clustering = ClusterAndConquer::new(c2).cluster_step(&ds);
        let predicted = plan_deployment(&clustering, 3, c2.k, c2.rho);
        assert_eq!(result.report.shuffle_entries, predicted.merge_traffic);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let single = ClusterAndConquer::new(test_config()).build(&ds);
        let result = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        let report = &result.report;
        assert!(report.comparisons > 0);
        assert_eq!(report.comparisons, single.stats.comparisons);
        assert_eq!(report.num_clusters, single.stats.num_clusters);
        assert_eq!(report.splits, single.stats.splits);
        let spilled = (report.spilled_entries, report.spilled_bytes, report.rerouted_records);
        assert_eq!(spilled, (0, 0, 0), "spill is Off");
    }

    #[test]
    fn empty_dataset_is_handled() {
        let _calm = crate::no_faults();
        let ds = Dataset::from_profiles(vec![], 0);
        let result = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        assert_eq!(result.graph.num_users(), 0);
        assert_eq!(result.report.shuffle_entries, 0);
        assert_eq!(result.report.num_clusters, 0);
    }

    #[test]
    fn always_spill_routes_all_traffic_through_files() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let config = RuntimeConfig { workers: 2, spill: SpillMode::Always };
        let single = ClusterAndConquer::new(test_config()).build(&ds);
        let result = Runtime::new(config).execute(&ds, &test_config());
        let report = &result.report;
        assert_eq!(report.spilled_entries, report.shuffle_entries);
        assert!(report.spilled_bytes > 0);
        assert_eq!(report.rerouted_records, 0);
        for u in ds.users() {
            assert_eq!(result.graph.neighbors(u).sorted(), single.graph.neighbors(u).sorted());
        }
    }

    #[test]
    fn spill_dir_is_gone_after_the_build() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let config = RuntimeConfig { workers: 2, spill: SpillMode::Always };
        let result = Runtime::new(config).execute(&ds, &test_config());
        let dir = result.report.spill_dir.as_ref().expect("spilling build must record its dir");
        assert!(
            !dir.exists(),
            "spill dir {} must be removed before the build returns",
            dir.display()
        );

        // A non-spilling build never creates one.
        let off = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        assert!(off.report.spill_dir.is_none());
    }

    #[test]
    fn shared_fingerprints_produce_the_identical_graph() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = C2Config {
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 77 },
            ..test_config()
        };
        let rebuilt = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &c2);
        // One fingerprint build, shared across two further runs.
        let gf = Arc::new(GoldFinger::build(&ds, 1024, 77));
        for workers in [1usize, 2] {
            let shared = Runtime::new(RuntimeConfig::with_workers(workers))
                .execute_incremental_shared(&ds, &c2, Arc::clone(&gf), &ClusterCache::new(&c2));
            assert_eq!(shared.rebuild.comparisons, rebuilt.report.comparisons);
            for u in ds.users() {
                assert_eq!(
                    shared.graph.neighbors(u).sorted(),
                    rebuilt.graph.neighbors(u).sorted(),
                    "user {u} differs with shared fingerprints ({workers} workers)"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must cover the dataset")]
    fn mismatched_shared_fingerprints_panic() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = C2Config {
            backend: SimilarityBackend::GoldFinger { bits: 64, seed: 1 },
            ..test_config()
        };
        let tiny = Dataset::from_profiles(vec![vec![1, 2]], 0);
        let gf = Arc::new(GoldFinger::build(&tiny, 64, 1));
        let empty = ClusterCache::new(&c2);
        Runtime::new(RuntimeConfig::with_workers(1))
            .execute_incremental_shared(&ds, &c2, gf, &empty);
    }

    #[test]
    #[should_panic(expected = "must match the configured backend")]
    fn wrong_seed_shared_fingerprints_panic() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = C2Config {
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 1 },
            ..test_config()
        };
        // Same dataset and width, different hash seed: silently wrong
        // similarities unless the engine refuses.
        let gf = Arc::new(GoldFinger::build(&ds, 1024, 2));
        let empty = ClusterCache::new(&c2);
        Runtime::new(RuntimeConfig::with_workers(1))
            .execute_incremental_shared(&ds, &c2, gf, &empty);
    }

    #[test]
    #[should_panic(expected = "require a GoldFinger backend")]
    fn raw_backend_shared_fingerprints_panic() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let gf = Arc::new(GoldFinger::build(&ds, 64, 1));
        let c2 = test_config();
        let empty = ClusterCache::new(&c2);
        Runtime::new(RuntimeConfig::with_workers(1))
            .execute_incremental_shared(&ds, &c2, gf, &empty);
    }

    #[test]
    fn a_broken_spill_stream_merges_its_records_directly() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = test_config();
        let off = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &c2);

        // The map stage of a two-worker `Always` build, handed a spill dir
        // whose directory is gone: the stream's `SpillWriter::create`
        // fails, and every record due to spill is merged directly.
        let dir = SpillDir::create().unwrap();
        std::fs::remove_dir(dir.path()).unwrap();
        let plan = BuildPlan::assign(&c2, &ds);
        let sim = SimilarityData::build(c2.backend, &ds);
        let arena = SharedKnnGraph::new(ds.num_users(), c2.k);
        let totals = run_map_stage(&plan, &sim, &c2, 2, Some(&dir), &arena);
        let graph = arena.into_graph();

        assert!(totals.rerouted_records > 0, "every record was due to spill");
        assert_eq!(totals.spilled_entries, 0, "no entry may be spilled and rerouted");
        assert_eq!(totals.shuffle_entries, off.report.shuffle_entries);
        assert_eq!(sim.comparisons(), off.report.comparisons);
        for u in ds.users() {
            assert_eq!(graph.neighbors(u).sorted(), off.graph.neighbors(u).sorted(), "user {u}");
        }
    }

    #[test]
    fn incremental_with_empty_cache_matches_a_from_scratch_build() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = test_config();
        let runtime = Runtime::new(RuntimeConfig::with_workers(2));
        let scratch = runtime.execute(&ds, &c2);
        let empty = ClusterCache::new(&c2);
        let incr = runtime.execute_incremental(&ds, &c2, &empty, &[]);
        assert_eq!(incr.rebuild.clusters_resolved, incr.rebuild.clusters_total);
        assert_eq!(incr.rebuild.reuse_ratio, 0.0);
        assert_eq!(incr.rebuild.path, RebuildPath::Cold);
        assert_eq!(incr.cache.len(), incr.rebuild.clusters_total);
        assert_eq!(incr.cache.total_comparisons(), scratch.report.comparisons);
        for u in ds.users() {
            assert_eq!(incr.graph.neighbors(u).sorted(), scratch.graph.neighbors(u).sorted());
        }
    }

    #[test]
    fn incremental_rebuild_reuses_unchanged_clusters_bit_identically() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = test_config();
        let runtime = Runtime::new(RuntimeConfig::with_workers(2));
        let base = runtime.execute_incremental(&ds, &c2, &ClusterCache::new(&c2), &[]);

        // Grow the dataset by a handful of users (clones of existing
        // profiles plus a twist), as the serving stream does.
        let mut profiles: Vec<Vec<u32>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
        let n0 = profiles.len() as u32;
        for i in 0..5u32 {
            let mut p = profiles[(i as usize * 37) % profiles.len()].clone();
            p.push(390 + i);
            p.sort_unstable();
            p.dedup();
            profiles.push(p);
        }
        let grown = Dataset::from_profiles(profiles, 0);
        let inserted: Vec<u32> = (n0..grown.num_users() as u32).collect();

        let full = runtime.execute(&grown, &c2);
        let incr = runtime.execute_incremental(&grown, &c2, &base.cache, &inserted);
        // Bit-identical graph, most clusters clean, a fraction of the
        // comparisons, and a cache priced like the from-scratch build.
        for u in grown.users() {
            assert_eq!(
                incr.graph.neighbors(u).sorted(),
                full.graph.neighbors(u).sorted(),
                "user {u} differs between incremental and from-scratch"
            );
        }
        assert!(
            incr.rebuild.reuse_ratio > 0.5,
            "only {:.2} of clusters reused after 5 inserts into {}",
            incr.rebuild.reuse_ratio,
            ds.num_users()
        );
        assert_eq!(incr.rebuild.path, RebuildPath::Patched);
        assert!(incr.rebuild.comparisons < full.report.comparisons);
        assert_eq!(incr.cache.total_comparisons(), full.report.comparisons);
        assert_eq!(incr.cache.len(), incr.rebuild.clusters_total);
    }

    #[test]
    fn injected_solve_panics_recover_bit_identically() {
        let _serial = crate::fault_lock();
        cnc_faults::silence_injected_panics();
        let ds = test_dataset();
        let clean = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        let faults = Faults::global();
        for workers in [1usize, 3] {
            // Every cluster's gate panics 1–2 times (span 2 <
            // MAX_SOLVE_ATTEMPTS), so the build must survive purely by
            // re-attempting behind the gate.
            let plan =
                cnc_faults::FaultPlan::new(4242, 1.0).only(&[Site::SolveCluster]).with_span(2);
            let _guard = faults.arm(plan);
            let chaotic =
                Runtime::new(RuntimeConfig::with_workers(workers)).execute(&ds, &test_config());
            assert!(faults.injected(Site::SolveCluster) > 0, "the schedule must have fired");
            assert_eq!(chaotic.report.comparisons, clean.report.comparisons);
            for u in ds.users() {
                assert_eq!(
                    chaotic.graph.neighbors(u).sorted(),
                    clean.graph.neighbors(u).sorted(),
                    "user {u} differs under injected solve panics ({workers} workers)"
                );
            }
        }
    }

    #[test]
    fn exhausted_solve_attempts_abort_the_build_with_a_typed_panic() {
        let _serial = crate::fault_lock();
        cnc_faults::silence_injected_panics();
        let ds = test_dataset();
        let faults = Faults::global();
        // Span 12: most clusters draw a failure budget ≥ MAX_SOLVE_ATTEMPTS,
        // so some cluster must exhaust its attempts and fail the build with
        // the injected payload (the serving layer's rebuild-failure signal).
        let plan = cnc_faults::FaultPlan::new(7, 1.0).only(&[Site::SolveCluster]).with_span(12);
        let guard = faults.arm(plan);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config())
        }));
        drop(guard);
        let payload = outcome.expect_err("a span-12 schedule must exhaust some cluster");
        assert!(
            cnc_faults::is_injected_panic(payload.as_ref()),
            "the abort must re-raise the typed injected payload"
        );
    }

    #[test]
    fn injected_faults_gate_every_patched_cluster() {
        let _serial = crate::fault_lock();
        cnc_faults::silence_injected_panics();
        let ds = test_dataset();
        let c2 = test_config();
        let runtime = Runtime::new(RuntimeConfig::with_workers(2));
        let base = runtime.execute_incremental(&ds, &c2, &ClusterCache::new(&c2), &[]);
        let mut profiles: Vec<Vec<u32>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
        profiles.push(profiles[7].clone());
        let grown = Dataset::from_profiles(profiles, 0);
        let clean = runtime.execute_incremental(&grown, &c2, &base.cache, &[]);
        assert_eq!(clean.rebuild.path, RebuildPath::Patched);
        let faults = Faults::global();

        // Span 2 < MAX_SOLVE_ATTEMPTS: every dirty cluster's gate fails
        // once or twice, then opens — the patched graph is the clean one.
        {
            let plan = cnc_faults::FaultPlan::new(9, 1.0).only(&[Site::SolveCluster]).with_span(2);
            let _guard = faults.arm(plan);
            let chaotic = runtime.execute_incremental(&grown, &c2, &base.cache, &[]);
            assert!(faults.injected(Site::SolveCluster) > 0, "the schedule must have fired");
            assert_eq!(chaotic.rebuild.path, RebuildPath::Patched);
            for u in grown.users() {
                assert_eq!(chaotic.graph.neighbors(u).sorted(), clean.graph.neighbors(u).sorted());
            }
        }
        // Span 12 exhausts some gate: the rebuild fails with the typed
        // payload — a cold one too, every cluster behind the same gate —
        // and the cache it read is still good for the next try.
        let plan = cnc_faults::FaultPlan::new(9, 1.0).only(&[Site::SolveCluster]).with_span(12);
        let guard = faults.arm(plan);
        for prev in [&base.cache, &ClusterCache::new(&c2)] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                runtime.execute_incremental(&grown, &c2, prev, &[])
            }));
            let payload = outcome.expect_err("a span-12 schedule must exhaust some gate");
            assert!(cnc_faults::is_injected_panic(payload.as_ref()));
        }
        drop(guard);
        let retried = runtime.execute_incremental(&grown, &c2, &base.cache, &[]);
        for u in grown.users() {
            assert_eq!(retried.graph.neighbors(u).sorted(), clean.graph.neighbors(u).sorted());
        }
    }

    #[test]
    fn incremental_identical_dataset_reuses_everything() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let c2 = test_config();
        let runtime = Runtime::new(RuntimeConfig::with_workers(2));
        let base = runtime.execute_incremental(&ds, &c2, &ClusterCache::new(&c2), &[]);
        let again = runtime.execute_incremental(&ds, &c2, &base.cache, &[]);
        assert_eq!(again.rebuild.clusters_resolved, 0);
        assert_eq!(again.rebuild.reuse_ratio, 1.0);
        assert_eq!(again.rebuild.comparisons, 0, "no fresh solves, no fresh comparisons");
        for u in ds.users() {
            assert_eq!(again.graph.neighbors(u).sorted(), base.graph.neighbors(u).sorted());
        }
    }
}
