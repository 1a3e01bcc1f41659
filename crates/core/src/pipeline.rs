//! Steps 2 and 3 of C²: scheduling, local KNN and merging (§II-F, §II-G,
//! Algorithms 2 and 3) — the end-to-end [`ClusterAndConquer`] pipeline.
//!
//! Every build runs the [`BuildPlan`]'s one solve loop,
//! [`BuildPlan::patch`]: a one-shot build patches an empty cache, so every
//! user is fresh and every cluster runs largest-first on a
//! [`PriorityPool`](cnc_threadpool::PriorityPool) through Algorithm 2's
//! dispatch (`cnc_baselines::local::solve_cluster`), writing straight into
//! one [`SharedKnnGraph`](cnc_graph::SharedKnnGraph) — an `n × k` arena
//! with a lock and a lock-free worst-similarity floor per row. A
//! brute-forced cluster offers each pair to both members' rows, so
//! Algorithm 3's bounded-heap merge happens at the offer: most fall under
//! the row's floor and never lock, and no cluster-local list is built or
//! merged. (Greedy clusters, absent at the paper's parameters, merge their
//! lists per member.) The arena then freezes in place into the graph. An
//! incremental build patches the previous build's cache instead: its
//! arena starts from the previous graph, and only what changed is solved.

use crate::build_plan::{BuildPlan, ClusterCache, RebuildPath, RebuildStats};
use crate::clustering::{cluster_dataset, Clustering};
use crate::config::{C2Config, ClusteringScheme};
use crate::frh::FastRandomHash;
use crate::minhash_variant::cluster_minhash;
use cnc_baselines::{BuildContext, KnnAlgorithm};
use cnc_dataset::Dataset;
use cnc_graph::KnnGraph;
use cnc_similarity::{SeededHash, SimilarityData};
use cnc_telemetry::Telemetry;
use cnc_threadpool::effective_threads;
use std::time::Instant;

/// Instrumentation of one C² run (drives Tables II, IV, V and Figs 6–8).
#[derive(Clone, Debug)]
pub struct C2Stats {
    /// Final number of clusters across all `t` configurations.
    pub num_clusters: usize,
    /// Number of recursive split operations performed.
    pub splits: usize,
    /// Final cluster sizes, sorted in decreasing order (Fig. 8 series).
    pub cluster_sizes_desc: Vec<usize>,
    /// Similarity computations performed during the run.
    pub comparisons: u64,
}

/// A built KNN graph plus the run's instrumentation.
#[derive(Debug)]
pub struct C2Result {
    /// The approximate KNN graph.
    pub graph: KnnGraph,
    /// Run statistics.
    pub stats: C2Stats,
}

/// An incremental build's output: the graph + stats (comparisons count
/// exactly the similarities this build computed), the cache the next
/// incremental build patches, and the record of what this one did.
#[derive(Debug)]
pub struct IncrementalResult {
    /// The graph and stats — bit-identical to a from-scratch build.
    pub result: C2Result,
    /// This build's cluster memberships and graph, for the next one.
    pub cache: ClusterCache,
    /// The dirty/reused split, the path taken and what it cost.
    pub rebuild: RebuildStats,
}

/// The Cluster-and-Conquer KNN-graph builder.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterAndConquer {
    config: C2Config,
}

impl ClusterAndConquer {
    /// Creates a builder from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`C2Config::validate`]).
    pub fn new(config: C2Config) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid C2Config: {msg}");
        }
        ClusterAndConquer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &C2Config {
        &self.config
    }

    /// Builds the KNN graph of `dataset`, materializing the similarity
    /// backend declared in the configuration (GoldFinger fingerprints are
    /// built on the configured worker threads). The build runs on those
    /// threads too, bit-identical to a serial build.
    pub fn build(&self, dataset: &Dataset) -> C2Result {
        let sim = SimilarityData::build_parallel(self.config.backend, dataset, self.config.threads);
        self.run(&self.config, dataset, &sim)
    }

    /// Runs Step 1 (clustering) alone and returns the raw [`Clustering`].
    ///
    /// This is the entry point for external execution engines that schedule
    /// Steps 2 + 3 themselves, and for planning a deployment of them
    /// ([`plan_deployment`](crate::plan_deployment)). `cnc-runtime`'s
    /// one-shot sharded build (`Runtime::execute`, re-exported in the
    /// facade prelude) takes the same clusters from a `BuildPlan`, solves
    /// each as one largest-first `PriorityPool` job on `W` threads and
    /// merges its partial neighbour lists straight into one shared
    /// neighbour arena; its incremental builds, like this pipeline's, run
    /// [`BuildPlan::patch`].
    pub fn cluster_step(&self, dataset: &Dataset) -> Clustering {
        Self::cluster(&self.config, dataset)
    }

    /// Per-cluster deterministic seeds for the greedy local solver, derived
    /// from the run seed exactly as [`ClusterAndConquer::build`] derives
    /// them — external engines reuse this so a sharded run solves every
    /// cluster identically to the single-process pipeline.
    pub fn job_seed(config: &C2Config, cluster_index: usize) -> u64 {
        SeededHash::new(config.seed ^ 0x5EED).hash_u64(cluster_index as u64)
    }

    /// Step 1 dispatcher.
    fn cluster(config: &C2Config, dataset: &Dataset) -> Clustering {
        match config.scheme {
            ClusteringScheme::FastRandomHash => {
                let functions = FastRandomHash::family(config.seed, config.t, config.b);
                cluster_dataset(dataset, &functions, config.max_cluster_size)
            }
            ClusteringScheme::MinHash => cluster_minhash(dataset, config.seed, config.t),
        }
    }

    /// Incrementally rebuilds the graph from `prev` — the previous build's
    /// cluster memberships and graph — computing only what the dataset's
    /// changes made new (stages 1–4 of the [`BuildPlan`]): cross-group
    /// pairs of the clusters whose content changed, plus the rows that
    /// lost a neighbour. When patching would not clearly pay (empty or
    /// other-config cache, a greedy cluster, a restructured plan) the
    /// patch stage treats the cache as empty and solves every cluster;
    /// `rebuild.path` says why. Either way the graph is bit-identical to
    /// [`ClusterAndConquer::build`] on the same dataset and
    /// `result.stats.comparisons` counts exactly the similarities
    /// computed — both locked by `tests/incremental.rs`.
    /// Pass [`ClusterCache::new`] (empty) for the first build; feed the
    /// returned cache to the next call.
    pub fn build_incremental(&self, dataset: &Dataset, prev: &ClusterCache) -> IncrementalResult {
        let start = Instant::now();
        let sim = SimilarityData::build_parallel(self.config.backend, dataset, self.config.threads);
        let (result, extra) = self.execute_plan(&self.config, dataset, &sim, start, Some(prev));
        let (cache, rebuild) = extra.expect("incremental run must produce a cache");
        IncrementalResult { result, cache, rebuild }
    }

    fn run(&self, config: &C2Config, dataset: &Dataset, sim: &SimilarityData<'_>) -> C2Result {
        self.execute_plan(config, dataset, sim, Instant::now(), None).0
    }

    /// The body shared by [`ClusterAndConquer::build`] (against an empty
    /// cache, nothing captured) and
    /// [`ClusterAndConquer::build_incremental`] (against `prev`, the
    /// plan's memberships and graph captured) — one solve loop, the plan's
    /// patch stage; `tests/incremental.rs` locks their bit-identity.
    fn execute_plan(
        &self,
        config: &C2Config,
        dataset: &Dataset,
        sim: &SimilarityData<'_>,
        start: Instant,
        prev: Option<&ClusterCache>,
    ) -> (C2Result, Option<(ClusterCache, RebuildStats)>) {
        let telemetry = Telemetry::global();
        let mut build_span = telemetry.span("build");
        let comparisons_before = sim.comparisons();
        let n = dataset.num_users();

        // --- Stages 1 + 2: assignment (+ profile digests when a cache is
        // in play; an empty cache needs none, so one-shot builds skip
        // the fingerprint stage) -----------------------------------------
        let mut plan = BuildPlan::assign(config, dataset);
        if prev.is_some() {
            plan.fingerprint(dataset);
        }

        // --- Stages 3 + 4: patch the previous graph, or solve every
        // cluster into empty rows (Algorithms 2 + 3) ----------------------
        let local_start_ns = telemetry.stamp();
        let local_start = Instant::now();
        let empty = ClusterCache::new(config);
        let threads = effective_threads(config.threads);
        let patch = plan.patch(sim, prev.unwrap_or(&empty), threads, &|_| {});
        let solved = match patch.rebuild.path {
            RebuildPath::Patched => 0,
            _ => plan.clusters().len(),
        };
        let run_comparisons = sim.comparisons() - comparisons_before;
        let (graph, extra) = match prev {
            Some(_) => {
                let (graph, cache, rebuild) =
                    plan.finish(patch.graph, patch.rebuild, run_comparisons, start);
                (graph, Some((cache, rebuild)))
            }
            None => (patch.graph, None),
        };
        telemetry.record_complete(
            "build.local_knn",
            local_start_ns,
            local_start.elapsed().as_nanos() as u64,
            vec![("comparisons", run_comparisons), ("clusters_solved", solved as u64)],
        );
        build_span.attr("comparisons", run_comparisons);
        build_span.attr("users", n as u64);

        let mut cluster_sizes_desc: Vec<usize> = plan.clusters().iter().map(Vec::len).collect();
        cluster_sizes_desc.sort_unstable_by(|a, b| b.cmp(a));
        let result = C2Result {
            graph,
            stats: C2Stats {
                num_clusters: plan.clusters().len(),
                splits: plan.splits(),
                cluster_sizes_desc,
                comparisons: run_comparisons,
            },
        };
        (result, extra)
    }
}

impl KnnAlgorithm for ClusterAndConquer {
    fn name(&self) -> &'static str {
        match self.config.scheme {
            ClusteringScheme::FastRandomHash => "C2",
            ClusteringScheme::MinHash => "C2/MinHash",
        }
    }

    /// Trait entry point: the context's `k`, `threads` and `seed` override
    /// the corresponding config fields, so harnesses drive all algorithms
    /// uniformly.
    fn build(&self, ctx: &BuildContext<'_>) -> KnnGraph {
        let config = C2Config { k: ctx.k, threads: ctx.threads, seed: ctx.seed, ..self.config };
        self.run(&config, ctx.dataset, ctx.sim).graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_dataset::SyntheticConfig;
    use cnc_graph::quality;
    use cnc_similarity::SimilarityBackend;

    fn test_dataset() -> Dataset {
        let mut cfg = SyntheticConfig::small(77);
        cfg.num_users = 600;
        cfg.num_items = 500;
        cfg.communities = 10;
        cfg.mean_profile = 30.0;
        cfg.min_profile = 10;
        cfg.generate()
    }

    fn small_config() -> C2Config {
        C2Config {
            k: 10,
            b: 64,
            t: 4,
            max_cluster_size: 150,
            threads: 2,
            backend: SimilarityBackend::Raw,
            ..C2Config::default()
        }
    }

    fn exact_graph(ds: &Dataset, k: usize) -> KnnGraph {
        let sim = SimilarityData::build(SimilarityBackend::Raw, ds);
        let ctx = BuildContext { dataset: ds, sim: &sim, k, threads: 2, seed: 1 };
        cnc_baselines::BruteForce.build(&ctx)
    }

    #[test]
    fn produces_high_quality_graph() {
        let ds = test_dataset();
        let result = ClusterAndConquer::new(small_config()).build(&ds);
        let exact = exact_graph(&ds, 10);
        let q = quality(&result.graph, &exact, &ds);
        assert!(q > 0.8, "C2 quality {q:.3} too low");
    }

    #[test]
    fn uses_fewer_comparisons_than_brute_force() {
        let ds = test_dataset();
        let n = ds.num_users() as u64;
        let result = ClusterAndConquer::new(small_config()).build(&ds);
        assert!(
            result.stats.comparisons < n * (n - 1) / 2,
            "{} comparisons ≥ brute force",
            result.stats.comparisons
        );
        assert!(result.stats.comparisons > 0);
    }

    #[test]
    fn stats_are_populated() {
        let ds = test_dataset();
        let result = ClusterAndConquer::new(small_config()).build(&ds);
        assert!(result.stats.num_clusters >= 4, "at least one cluster per function");
        assert_eq!(result.stats.cluster_sizes_desc.len(), result.stats.num_clusters);
    }

    #[test]
    fn single_thread_run_is_deterministic() {
        let ds = test_dataset();
        let config = C2Config { threads: 1, ..small_config() };
        let a = ClusterAndConquer::new(config).build(&ds);
        let b = ClusterAndConquer::new(config).build(&ds);
        for u in ds.users() {
            assert_eq!(
                a.graph.neighbors(u).sorted(),
                b.graph.neighbors(u).sorted(),
                "non-deterministic neighbourhood for user {u}"
            );
        }
        assert_eq!(a.stats.comparisons, b.stats.comparisons);
    }

    #[test]
    fn minhash_scheme_also_builds_a_graph() {
        let ds = test_dataset();
        let config = C2Config { scheme: ClusteringScheme::MinHash, ..small_config() };
        let result = ClusterAndConquer::new(config).build(&ds);
        assert_eq!(result.stats.splits, 0);
        let exact = exact_graph(&ds, 10);
        let q = quality(&result.graph, &exact, &ds);
        assert!(q > 0.5, "C2/MinHash quality {q:.3} surprisingly low");
    }

    #[test]
    fn more_hash_functions_do_not_reduce_quality() {
        let ds = test_dataset();
        let exact = exact_graph(&ds, 10);
        let q1 = {
            let config = C2Config { t: 1, ..small_config() };
            let r = ClusterAndConquer::new(config).build(&ds);
            quality(&r.graph, &exact, &ds)
        };
        let q8 = {
            let config = C2Config { t: 8, ..small_config() };
            let r = ClusterAndConquer::new(config).build(&ds);
            quality(&r.graph, &exact, &ds)
        };
        assert!(q8 >= q1 - 0.02, "t=8 quality {q8:.3} below t=1 quality {q1:.3}");
    }

    #[test]
    fn goldfinger_backend_works_end_to_end() {
        let ds = test_dataset();
        let config = C2Config {
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 3 },
            ..small_config()
        };
        let result = ClusterAndConquer::new(config).build(&ds);
        let exact = exact_graph(&ds, 10);
        let q = quality(&result.graph, &exact, &ds);
        assert!(q > 0.7, "GoldFinger-backed C2 quality {q:.3} too low");
    }

    #[test]
    fn trait_entry_point_honours_context() {
        let ds = test_dataset();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 7, threads: 1, seed: 12 };
        let algo = ClusterAndConquer::new(small_config());
        let graph = KnnAlgorithm::build(&algo, &ctx);
        assert_eq!(graph.k(), 7);
        assert_eq!(KnnAlgorithm::name(&algo), "C2");
    }

    #[test]
    fn empty_dataset_is_handled() {
        let ds = Dataset::from_profiles(vec![], 0);
        let result = ClusterAndConquer::new(small_config()).build(&ds);
        assert_eq!(result.graph.num_users(), 0);
        assert_eq!(result.stats.num_clusters, 0);
    }

    #[test]
    #[should_panic(expected = "invalid C2Config")]
    fn invalid_config_panics_at_construction() {
        ClusterAndConquer::new(C2Config { k: 0, ..C2Config::default() });
    }
}
