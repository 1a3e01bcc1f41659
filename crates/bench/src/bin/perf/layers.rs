//! Every call the benchmark makes into the repo's crates, and nothing
//! else. The workloads see datasets, graphs and engines only through the
//! functions here, so an API consolidation in the library needs a
//! one-file benchmark change. Nothing in this file times anything except
//! where a measurement is made of several calls (`composed_build`,
//! `kernel_rates`); the workloads wrap these functions in spans.
//!
//! Only public items are used, no switch is added to the code under
//! test, and the global telemetry is the library's own on/off.

use crate::trace::Tracer;
use cnc_baselines::local;
use cnc_core::{BuildPlan, C2Config, ClusterAndConquer, ClusterCache};
use cnc_dataset::{DatasetBuilder, DatasetProfile, ItemId, UserId};
use cnc_distrib::{DistribConfig, DistribRuntime, Transport};
use cnc_eval::groundtruth::{GroundTruth, GroundTruthConfig};
use cnc_graph::SharedKnnGraph;
use cnc_query::{BatchQuery, BeamSearchConfig, DynamicIndex};
use cnc_runtime::{Runtime, RuntimeConfig, SpillMode};
use cnc_serve::{
    AdoptedSnapshot, BatchRequest, ServingConfig, ServingEpoch, ServingSession, SnapshotAdopter,
    SnapshotPublisher,
};
use cnc_similarity::kernel::{one_vs_many, pair_count, pairwise, solve_query_words};
use cnc_similarity::{GoldFinger, Jaccard, SimKernel, SimSolve, SimilarityBackend, SimilarityData};
use cnc_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use cnc_core::{C2Config as Config, ClusterCache as Cache};
pub use cnc_dataset::Dataset;
pub use cnc_graph::KnnGraph as Graph;
pub use cnc_serve::{ServingConfig as Serving, ServingEngine as Engine};

/// GoldFinger fingerprints of a whole dataset.
pub type Fingerprints = GoldFinger;

pub type Profile = Vec<ItemId>;

/// Neighbours asked of every query.
pub const QUERY_K: usize = 10;
/// The serving beam of the issue: width 32, 6 entry points.
pub const BEAM: (usize, usize) = (32, 6);
/// The wide beam that prices recall: width 128, 32 entry points.
pub const BEAM_WIDE: (usize, usize) = (128, 32);
/// Width of the fingerprints the similarity measurements use on every
/// dataset (the paper's GoldFinger-1024).
const PROBE_BITS: usize = 1024;

fn beam(shape: (usize, usize)) -> BeamSearchConfig {
    BeamSearchConfig { beam_width: shape.0, entry_points: shape.1, max_comparisons: 0 }
}

// ── process ────────────────────────────────────────────────────────────

/// Worker mode of the multi-process build; never returns in a worker.
pub fn maybe_run_worker() {
    cnc_distrib::maybe_run_worker();
}

/// Switches the library's global telemetry (end-to-end runs keep it off).
pub fn telemetry(on: bool) {
    Telemetry::global().enable(on);
}

/// The vector ISA the similarity kernels dispatch on at run time — the
/// same three CPUID features `cnc_similarity::kernel` tests for its
/// AVX-512 sweeps.
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            return "x86_64+avx512vpopcntdq";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "x86_64+avx2";
        }
    }
    std::env::consts::ARCH
}

// ── dataset ────────────────────────────────────────────────────────────

/// The three inputs of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// ml20M: 138,362 users, ~88 items per profile.
    Dense,
    /// DBLP: 18,889 users, 203,030 items, ~37 items per profile.
    SparseRaw,
    /// ml10M: 69,816 users.
    Serve,
}

impl Preset {
    fn profile(self) -> DatasetProfile {
        match self {
            Preset::Dense => DatasetProfile::MovieLens20M,
            Preset::SparseRaw => DatasetProfile::Dblp,
            Preset::Serve => DatasetProfile::MovieLens10M,
        }
    }

    /// The build configuration of the preset's workloads: the paper's
    /// defaults with GoldFinger-1024, except DBLP's `t = 15` on raw
    /// profiles.
    pub fn config(self, threads: usize) -> Config {
        match self {
            Preset::Dense | Preset::Serve => C2Config { threads, ..C2Config::default() },
            Preset::SparseRaw => {
                C2Config { t: 15, backend: SimilarityBackend::Raw, threads, ..C2Config::default() }
            }
        }
    }
}

pub fn generate(preset: Preset, scale: f64, seed: u64) -> Dataset {
    preset.profile().generate(scale, seed)
}

/// `(users, items, ratings)`.
pub fn sizes(dataset: &Dataset) -> (usize, usize, usize) {
    (dataset.num_users(), dataset.num_items(), dataset.num_ratings())
}

/// Bytes of the CSR arrays (offsets + items).
pub fn csr_bytes(dataset: &Dataset) -> u64 {
    (std::mem::size_of_val(dataset.offsets()) + std::mem::size_of_val(dataset.items())) as u64
}

/// `count` seeded profiles that resemble existing users: a donor's
/// profile plus one random drift item, sorted and distinct — the shape of
/// both the query traffic and the insert stream.
pub fn drift_profiles(dataset: &Dataset, count: usize, seed: u64) -> Vec<Profile> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let donor = rng.random_range(0..dataset.num_users() as u32);
            let mut profile = dataset.profile(donor).to_vec();
            let item = rng.random_range(0..dataset.num_items() as u32);
            if let Err(at) = profile.binary_search(&item) {
                profile.insert(at, item);
            }
            profile
        })
        .collect()
}

/// `dataset` with `extra` users appended (ids continue after the last).
pub fn extend(dataset: &Dataset, extra: &[Profile]) -> Dataset {
    let mut builder = DatasetBuilder::with_capacity(dataset.num_users() + extra.len());
    for (_, profile) in dataset.iter() {
        builder.push_sorted_profile(profile);
    }
    for profile in extra {
        builder.push_sorted_profile(profile);
    }
    builder.build_with_min_items(dataset.num_items() as u32)
}

// ── similarity ─────────────────────────────────────────────────────────

fn probe_seed(config: &Config) -> u64 {
    match config.backend {
        SimilarityBackend::GoldFinger { seed, .. } => seed,
        SimilarityBackend::Raw => 0xC0FFEE,
    }
}

pub fn fingerprints_serial(config: &Config, dataset: &Dataset) -> GoldFinger {
    GoldFinger::build(dataset, PROBE_BITS, probe_seed(config))
}

pub fn fingerprints_parallel(config: &Config, dataset: &Dataset, threads: usize) -> GoldFinger {
    GoldFinger::build_parallel(dataset, PROBE_BITS, probe_seed(config), threads)
}

pub fn same_fingerprints(a: &GoldFinger, b: &GoldFinger) -> bool {
    a.words() == b.words()
}

pub fn fingerprint_bytes(fingerprints: &GoldFinger) -> u64 {
    fingerprints.size_bytes() as u64
}

/// Order-independent checksum of every pairwise similarity of a cluster
/// (the `kernels` experiment's check that two call shapes computed the
/// same thing): a wrapping sum of the raw `f32` bit patterns.
struct PairwiseChecksum;

impl SimSolve for PairwiseChecksum {
    type Output = u64;

    fn run<K: SimKernel>(self, kernel: &K) -> u64 {
        let mut checksum = 0u64;
        pairwise(kernel, |_, _, s| checksum = checksum.wrapping_add(s.to_bits() as u64));
        checksum
    }
}

/// One query row scored against a fixed neighbour list, `rounds` times.
struct OneVsManyChecksum<'a> {
    others: &'a [u32],
    rounds: u32,
}

impl SimSolve for OneVsManyChecksum<'_> {
    type Output = u64;

    fn run<K: SimKernel>(self, kernel: &K) -> u64 {
        let query = kernel.len() as u32 - 1;
        let mut checksum = 0u64;
        for _ in 0..self.rounds {
            one_vs_many(kernel, query, black_box(self.others), |_, s| {
                checksum = checksum.wrapping_add(s.to_bits() as u64)
            });
        }
        checksum
    }
}

/// Repeats `pass` until `budget` is spent (at least once); returns the
/// first pass's value, the number of passes and the time they took.
fn repeat_for<T: PartialEq + Copy>(budget: Duration, mut pass: impl FnMut() -> T) -> (T, u32, f64) {
    let start = Instant::now();
    let first = pass();
    let mut passes = 1;
    while start.elapsed() < budget {
        assert!(pass() == first, "kernel sweep is not deterministic");
        passes += 1;
    }
    (first, passes, start.elapsed().as_secs_f64())
}

/// Similarity-kernel rates in million comparisons per second.
#[derive(Clone, Copy, Debug)]
pub struct KernelRates {
    pub gf_pairwise: f64,
    pub raw_pairwise: f64,
    pub raw_pairwise_scalar: f64,
    pub gf_one_vs_many: f64,
}

/// Measures the four kernel shapes over `cluster` (the plan's largest):
/// tiled all-pairs on fingerprints and on raw profiles through
/// `solve_cluster`, the scalar `sim` per pair on raw profiles, and the
/// query layer's one-vs-many over a 30-row list. Tiled and scalar sweeps
/// must agree on the checksum, else the rates are refused.
pub fn kernel_rates(
    dataset: &Dataset,
    fingerprints: Fingerprints,
    cluster: &[UserId],
    budget: Duration,
    tracer: &Tracer,
) -> Result<KernelRates, String> {
    let pairs = pair_count(cluster.len());
    if pairs == 0 {
        return Err("largest cluster has fewer than two users".into());
    }
    let rate = |pairs: u64, passes: u32, seconds: f64| pairs as f64 * passes as f64 / seconds / 1e6;
    let scalar_sum = |sim: &SimilarityData<'_>| {
        let mut sum = 0u64;
        for (i, &u) in cluster.iter().enumerate() {
            for &v in &cluster[i + 1..] {
                sum = sum.wrapping_add(sim.sim(u, v).to_bits() as u64);
            }
        }
        sum
    };

    let fingerprints = Arc::new(fingerprints);
    let gf = SimilarityData::from_goldfinger(Arc::clone(&fingerprints));
    let ((gf_sum, gf_passes, gf_s), _) = tracer.time("similarity.gf1024_pairwise", || {
        repeat_for(budget, || gf.solve_cluster(cluster, PairwiseChecksum))
    });
    if scalar_sum(&gf) != gf_sum {
        return Err("GoldFinger tiled sweep diverged from the scalar oracle".into());
    }

    let raw = SimilarityData::build(SimilarityBackend::Raw, dataset);
    let ((raw_sum, raw_passes, raw_s), _) = tracer.time("similarity.raw_pairwise", || {
        repeat_for(budget, || raw.solve_cluster(cluster, PairwiseChecksum))
    });
    let ((scalar, scalar_passes, scalar_s), _) =
        tracer.time("similarity.raw_pairwise_scalar", || repeat_for(budget, || scalar_sum(&raw)));
    if scalar != raw_sum {
        return Err("raw tiled sweep diverged from the scalar oracle".into());
    }

    let others: Vec<u32> = cluster.iter().copied().take(30).collect();
    let query = fingerprints.fingerprint_profile(dataset.profile(cluster[cluster.len() - 1]));
    const ROUNDS: u32 = 1024;
    let ((_, sweep_passes, sweep_s), _) = tracer.time("similarity.gf1024_one_vs_many", || {
        repeat_for(budget, || {
            solve_query_words(
                fingerprints.words(),
                fingerprints.words_per_user(),
                &query,
                OneVsManyChecksum { others: &others, rounds: ROUNDS },
            )
        })
    });

    Ok(KernelRates {
        gf_pairwise: rate(pairs, gf_passes, gf_s),
        raw_pairwise: rate(pairs, raw_passes, raw_s),
        raw_pairwise_scalar: rate(pairs, scalar_passes, scalar_s),
        gf_one_vs_many: rate(others.len() as u64 * ROUNDS as u64, sweep_passes, sweep_s),
    })
}

// ── core ───────────────────────────────────────────────────────────────

/// What one `ClusterAndConquer::build` produced.
pub struct Built {
    pub graph: Graph,
    pub comparisons: u64,
}

/// The paper's headline path: fingerprint construction inside, graph out.
pub fn build(config: &Config, dataset: &Dataset) -> Built {
    let result = ClusterAndConquer::new(*config).build(dataset);
    Built { graph: result.graph, comparisons: result.stats.comparisons }
}

pub fn empty_cache(config: &Config) -> Cache {
    ClusterCache::new(config)
}

pub fn plan_assign(config: &Config, dataset: &Dataset) -> BuildPlan {
    BuildPlan::assign(config, dataset)
}

pub fn plan_fingerprint(plan: &mut BuildPlan, dataset: &Dataset) {
    plan.fingerprint(dataset);
}

/// `(dirty, reused)` cluster counts of the plan against `cache`.
pub fn plan_partition(plan: &BuildPlan, cache: &Cache) -> (usize, usize) {
    let partition = plan.partition(cache, &[]);
    (partition.dirty.len(), partition.reused.len())
}

/// The shape of a plan: counts that must repeat exactly for one seed.
pub struct PlanShape {
    pub clusters: usize,
    pub splits: usize,
    pub max_cluster: usize,
    /// Clusters Algorithm 2 solves by brute force (`|C| < ρ·k²`).
    pub brute_clusters: usize,
    pub greedy_clusters: usize,
    /// Members of the largest cluster (the kernels' test bed).
    pub largest: Vec<UserId>,
}

pub fn plan_shape(plan: &BuildPlan, config: &Config) -> PlanShape {
    let clusters = plan.clusters();
    let threshold = config.brute_force_threshold();
    let largest = clusters.iter().max_by_key(|c| c.len()).cloned().unwrap_or_default();
    let brute = clusters.iter().filter(|c| c.len() < threshold).count();
    PlanShape {
        clusters: clusters.len(),
        splits: plan.splits(),
        max_cluster: largest.len(),
        brute_clusters: brute,
        greedy_clusters: clusters.len() - brute,
        largest,
    }
}

/// The build re-created from public pieces on one thread, stage by stage.
pub struct Composed {
    pub graph: Graph,
    pub fingerprint_s: f64,
    pub assign_s: f64,
    pub solve_s: f64,
    /// Graph-layer time: list allocation, Algorithm 3 merges, assembly.
    pub merge_s: f64,
    pub wall_s: f64,
    pub merge_entries: u64,
    pub comparisons: u64,
}

impl Composed {
    /// Share of the composed wall the named stages account for.
    pub fn attributed_share(&self) -> f64 {
        (self.fingerprint_s + self.assign_s + self.solve_s + self.merge_s) / self.wall_s
    }
}

/// `SimilarityData::build` → `BuildPlan::assign` → `solve_cluster_partial`
/// over every cluster, largest first → `merge_into` per member: the
/// stages `ClusterAndConquer::build` runs, each under its own span. The
/// graph must equal the library's bit for bit (the caller checks).
pub fn composed_build(config: &Config, dataset: &Dataset, tracer: &Tracer) -> Composed {
    let wall = Instant::now();
    let (sim, fingerprint) =
        tracer.time("similarity.fingerprint", || SimilarityData::build(config.backend, dataset));
    let (plan, assign) = tracer.time("core.assign", || BuildPlan::assign(config, dataset));
    let (shared, alloc) =
        tracer.time("graph.alloc", || SharedKnnGraph::new(dataset.num_users(), config.k));
    let mut order: Vec<usize> = (0..plan.clusters().len()).collect();
    order.sort_by_key(|&index| Reverse(plan.clusters()[index].len()));
    let (mut solve, mut merge) = (Duration::ZERO, alloc);
    let (mut merge_entries, mut comparisons) = (0u64, 0u64);
    for index in order {
        let users = &plan.clusters()[index];
        let ((lists, spent), took) = tracer.time("baselines.solve", || {
            local::solve_cluster_partial(
                users,
                &sim,
                config.k,
                config.brute_force_threshold(),
                config.rho,
                config.delta,
                plan.seed(index),
            )
        });
        solve += took;
        comparisons += spent;
        let (entries, took) = tracer.time("graph.merge", || {
            let mut entries = 0u64;
            for (list, &user) in lists.iter().zip(users) {
                shared.merge_into(user, list);
                entries += list.len() as u64;
            }
            entries
        });
        merge += took;
        merge_entries += entries;
    }
    let (graph, assemble) = tracer.time("graph.assemble", || shared.into_graph());
    merge += assemble;
    Composed {
        graph,
        fingerprint_s: fingerprint.as_secs_f64(),
        assign_s: assign.as_secs_f64(),
        solve_s: solve.as_secs_f64(),
        merge_s: merge.as_secs_f64(),
        wall_s: wall.elapsed().as_secs_f64(),
        merge_entries,
        comparisons,
    }
}

/// One `build_incremental` against `prev`.
pub struct IncrementalBuild {
    pub graph: Graph,
    pub cache: Cache,
    pub reuse_ratio: f64,
    /// Comparisons this build redid.
    pub comparisons: u64,
    /// Comparisons a from-scratch build of the same dataset spends.
    pub total_comparisons: u64,
}

pub fn build_incremental(config: &Config, dataset: &Dataset, prev: &Cache) -> IncrementalBuild {
    let built = ClusterAndConquer::new(*config).build_incremental(dataset, prev);
    IncrementalBuild {
        graph: built.result.graph,
        reuse_ratio: built.rebuild.reuse_ratio,
        comparisons: built.result.stats.comparisons,
        total_comparisons: built.cache.total_comparisons(),
        cache: built.cache,
    }
}

// ── graph ──────────────────────────────────────────────────────────────

/// Order-independent digest of a graph: two graphs agree on it iff every
/// user has the same `(neighbour, similarity bits)` set, whatever order
/// the heaps hold them in.
pub fn graph_digest(graph: &Graph) -> u64 {
    let mix = |mut x: u64| {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    graph.iter().fold(0u64, |digest, (_, list)| {
        let user = list.iter().fold(0u64, |sum, nb| {
            sum.wrapping_add(mix((nb.user as u64) << 32 | nb.sim.to_bits() as u64))
        });
        mix(digest.rotate_left(7) ^ user)
    })
}

/// Every user has at most `k` neighbours, none itself, all in range.
pub fn check_graph(graph: &Graph, users: usize) -> Result<(), String> {
    if graph.num_users() != users {
        return Err(format!("graph covers {} users, dataset has {users}", graph.num_users()));
    }
    for (user, list) in graph.iter() {
        if list.len() > graph.k() {
            return Err(format!("user {user} has {} neighbours, k = {}", list.len(), graph.k()));
        }
        if let Some(bad) = list.iter().find(|nb| nb.user == user || nb.user as usize >= users) {
            return Err(format!("user {user} lists invalid neighbour {}", bad.user));
        }
    }
    Ok(())
}

/// Bytes of the neighbour entries the graph holds.
pub fn graph_bytes(graph: &Graph) -> u64 {
    (graph.num_edges() * std::mem::size_of::<cnc_graph::Neighbor>()) as u64
}

/// Paper Eq. 2 on a seeded sample of users: summed exact Jaccard of the
/// graph's neighbours ÷ summed exact Jaccard of the exact top-k.
///
/// The exact side is the benchmark's own reference, not the library's:
/// an inverted index (item → users) gives every intersection size a
/// donor has with anyone, so the exhaustive top-k costs the donor's
/// posting lists instead of one profile merge per user of the dataset.
/// The similarity is the same `f64` quotient `Jaccard::similarity` forms.
pub fn quality(dataset: &Dataset, graph: &Graph, sample: usize, seed: u64, threads: usize) -> f64 {
    let users = dataset.num_users();
    let mut starts = vec![0usize; dataset.num_items() + 1];
    for &item in dataset.items() {
        starts[item as usize + 1] += 1;
    }
    for item in 0..dataset.num_items() {
        starts[item + 1] += starts[item];
    }
    let mut fill = starts.clone();
    let mut postings = vec![0 as UserId; dataset.num_ratings()];
    for (user, profile) in dataset.iter() {
        for &item in profile {
            postings[fill[item as usize]] = user;
            fill[item as usize] += 1;
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let donors: Vec<UserId> =
        (0..sample.min(users)).map(|_| rng.random_range(0..users as u32)).collect();

    let (starts, postings) = (&starts, &postings);
    let sums: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = donors
            .chunks(donors.len().div_ceil(threads.max(1)).max(1))
            .map(|donors| {
                scope.spawn(move || {
                    let mut shared = vec![0u32; users];
                    let mut touched: Vec<UserId> = Vec::new();
                    let (mut approx, mut exact) = (0.0, 0.0);
                    for &donor in donors {
                        let profile = dataset.profile(donor);
                        for &item in profile {
                            for &other in
                                &postings[starts[item as usize]..starts[item as usize + 1]]
                            {
                                if shared[other as usize] == 0 {
                                    touched.push(other);
                                }
                                shared[other as usize] += 1;
                            }
                        }
                        let mut similarities: Vec<f64> = touched
                            .iter()
                            .filter(|&&other| other != donor)
                            .map(|&other| {
                                let inter = shared[other as usize] as usize;
                                let union = profile.len() + dataset.profile_len(other) - inter;
                                inter as f64 / union as f64
                            })
                            .collect();
                        for other in touched.drain(..) {
                            shared[other as usize] = 0;
                        }
                        // Users sharing no item score 0 and add nothing.
                        similarities.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite"));
                        exact += similarities.iter().take(graph.k()).sum::<f64>();
                        approx += graph
                            .neighbors(donor)
                            .iter()
                            .map(|nb| Jaccard::similarity(profile, dataset.profile(nb.user)))
                            .sum::<f64>();
                    }
                    (approx, exact)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("quality worker panicked")).collect()
    });
    let (approx, exact) = sums.iter().fold((0.0, 0.0), |acc, s| (acc.0 + s.0, acc.1 + s.1));
    if exact == 0.0 {
        1.0
    } else {
        approx / exact
    }
}

// ── runtime and distrib ────────────────────────────────────────────────

pub struct Sharded {
    pub graph: Graph,
    pub shuffle_entries: u64,
}

/// `Runtime::execute` on `workers` shards, optionally spilling every
/// partial list to disk.
pub fn runtime_execute(config: &Config, dataset: &Dataset, workers: usize, spill: bool) -> Sharded {
    let spill = if spill { SpillMode::Always } else { SpillMode::Off };
    let runtime = Runtime::new(RuntimeConfig { spill, ..RuntimeConfig::with_workers(workers) });
    let result = runtime.execute(dataset, config);
    Sharded { graph: result.graph, shuffle_entries: result.report.shuffle_entries }
}

/// `Runtime::execute_incremental` against `prev`; returns the graph and
/// the cluster reuse ratio.
pub fn runtime_incremental(
    config: &Config,
    dataset: &Dataset,
    workers: usize,
    prev: &Cache,
) -> (Graph, f64) {
    let runtime = Runtime::new(RuntimeConfig::with_workers(workers));
    let result = runtime.execute_incremental(dataset, config, prev, &[]);
    (result.graph, result.rebuild.reuse_ratio)
}

/// `DistribRuntime::execute` over `processes` re-exec'd copies of
/// `worker` (this binary; `main` enters worker mode first), pipe
/// transport.
pub fn distrib_execute(
    config: &Config,
    dataset: &Dataset,
    processes: usize,
    worker: &Path,
) -> Result<Graph, String> {
    let runtime = DistribRuntime::new(DistribConfig {
        processes,
        transport: Transport::Pipe,
        worker_program: Some(worker.to_path_buf()),
        ..DistribConfig::default()
    });
    match runtime.execute(dataset, config) {
        Ok(result) if result.report.worker_deaths == 0 => Ok(result.graph),
        Ok(result) => Err(format!("{} worker processes died", result.report.worker_deaths)),
        Err(error) => Err(error.to_string()),
    }
}

// ── serve ──────────────────────────────────────────────────────────────

/// The issue's serving engine: `config` for builds and rebuilds on
/// `workers` runtime shards, beam 32 / 6 entries, no admission budget.
pub fn serving_config(config: Config, workers: usize, rebuild_after: usize) -> Serving {
    ServingConfig {
        c2: config,
        runtime: RuntimeConfig::with_workers(workers),
        beam: beam(BEAM),
        rebuild_after,
        ..ServingConfig::default()
    }
}

/// Dataset → first published epoch, through `cnc-runtime`.
pub fn engine_build(dataset: Dataset, serving: Serving) -> Engine {
    Engine::build(dataset, serving)
}

/// Serves an already built graph: fingerprints for the configured
/// backend are rebuilt (the build does not hand its own out), no graph
/// construction runs.
pub fn engine_wrap(dataset: Dataset, graph: Graph, serving: Serving) -> Engine {
    let fingerprints = match serving.c2.backend {
        SimilarityBackend::Raw => None,
        SimilarityBackend::GoldFinger { bits, seed } => Some(Arc::new(GoldFinger::build_parallel(
            &dataset,
            bits,
            seed,
            serving.runtime.effective_workers(),
        ))),
    };
    Engine::from_parts(dataset, graph, fingerprints, serving)
}

pub fn session(engine: &Engine) -> ServingSession {
    engine.session()
}

/// Outcome of one client query.
pub struct Answered {
    /// Sorted best-first with at most `k` entries.
    pub well_formed: bool,
    /// Similarity computations the engine spent on this query.
    pub comparisons: usize,
    pub users: Vec<UserId>,
}

/// `try_query_with`; `None` when admission rejected the query.
pub fn query(
    engine: &Engine,
    session: &mut ServingSession,
    profile: &[ItemId],
    seed: u64,
) -> Option<Answered> {
    let result = engine.try_query_with(session, profile, QUERY_K, seed).ok()?;
    Some(Answered {
        well_formed: result.neighbors.len() <= QUERY_K
            && result.neighbors.windows(2).all(|pair| pair[0].sim >= pair[1].sim),
        comparisons: result.comparisons,
        users: result.neighbors.iter().map(|nb| nb.user).collect(),
    })
}

pub fn batch_requests(profiles: &[Profile]) -> Vec<BatchRequest> {
    profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| BatchRequest { profile: profile.clone(), k: QUERY_K, seed: i as u64 })
        .collect()
}

/// `query_batch` over one window; returns how many requests were answered.
pub fn query_batch(engine: &Engine, window: &[BatchRequest]) -> usize {
    engine.query_batch(window).iter().filter(|outcome| outcome.is_ok()).count()
}

/// `insert`; returns the epoch it published, if it triggered a rebuild.
pub fn insert(engine: &Engine, profile: Profile, seed: u64) -> Option<u64> {
    engine.insert(profile, seed).published
}

pub struct EngineStats {
    pub users: usize,
    pub epoch_swaps: u64,
    pub pending_inserts: usize,
    pub shed: u64,
    pub rebuild_failures: u64,
}

pub fn engine_stats(engine: &Engine) -> EngineStats {
    let stats = engine.stats();
    EngineStats {
        users: stats.num_users,
        epoch_swaps: stats.epoch_swaps,
        pending_inserts: stats.pending_inserts,
        shed: stats.shed,
        rebuild_failures: stats.rebuild_failures,
    }
}

/// `(reuse ratio, rebuild milliseconds)` of every epoch swap so far.
pub fn rebuild_history(engine: &Engine) -> Vec<(f64, f64)> {
    engine.rebuild_history().iter().map(|r| (r.reuse_ratio, r.rebuild_ms)).collect()
}

pub fn epoch(engine: &Engine) -> Arc<ServingEpoch> {
    engine.current_epoch()
}

pub fn epoch_dataset(epoch: &ServingEpoch) -> &Dataset {
    epoch.dataset()
}

pub fn epoch_graph(epoch: &ServingEpoch) -> &Graph {
    epoch.graph()
}

/// Dataset + graph + fingerprint bytes of the epoch: what a snapshot has
/// to carry for a replica to serve it.
pub fn epoch_payload_bytes(epoch: &ServingEpoch) -> u64 {
    csr_bytes(epoch.dataset())
        + graph_bytes(epoch.graph())
        + epoch.fingerprints().map_or(0, |gf| fingerprint_bytes(gf))
}

/// Exhaustive top-`QUERY_K` of `sample` seeded donors under the metric
/// the epoch serves by (fingerprint estimate, or exact Jaccard on a raw
/// epoch): `(donor profile, exact neighbour ids)` per donor. The scans
/// are split over `threads`.
pub fn recall_truth(
    epoch: &ServingEpoch,
    sample: usize,
    seed: u64,
    threads: usize,
) -> Vec<(Profile, Vec<UserId>)> {
    let dataset = epoch.dataset();
    let chunk = sample.div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1) as u64)
            .map(|worker| {
                scope.spawn(move || {
                    let sampling = GroundTruthConfig {
                        sample: chunk,
                        k: QUERY_K,
                        seed: seed.wrapping_add(worker),
                    };
                    let truth = match epoch.fingerprints() {
                        Some(gf) => GroundTruth::compute_with(dataset, &sampling, 0, |d, v| {
                            gf.estimate(d, v) as f32
                        }),
                        None => GroundTruth::compute(dataset, &sampling, 0),
                    };
                    truth
                        .queries
                        .iter()
                        .map(|&donor| dataset.profile(donor).to_vec())
                        .zip(truth.exact)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("truth worker panicked")).collect()
    })
}

// ── query (the index under the engine, one thread) ─────────────────────

/// Per-query latencies (µs) and answers of `QueryIndex::search_with`.
pub struct Searched {
    pub latencies_us: Vec<f64>,
    pub comparisons: u64,
    pub answers: Vec<Vec<UserId>>,
}

pub fn search_each(
    epoch: &ServingEpoch,
    profiles: &[Profile],
    shape: (usize, usize),
    tracer: &Tracer,
) -> Searched {
    let index = epoch.index();
    let mut searcher = index.searcher();
    let beam = beam(shape);
    let mut searched = Searched {
        latencies_us: Vec::with_capacity(profiles.len()),
        comparisons: 0,
        answers: Vec::with_capacity(profiles.len()),
    };
    for (seed, profile) in profiles.iter().enumerate() {
        let (result, took) = tracer.time("query.search", || {
            index.search_with(&mut searcher, profile, QUERY_K, &beam, seed as u64)
        });
        searched.latencies_us.push(took.as_secs_f64() * 1e6);
        searched.comparisons += result.comparisons as u64;
        searched.answers.push(result.neighbors.iter().map(|nb| nb.user).collect());
    }
    searched
}

/// `QueryIndex::search_batch` in windows of `window`; queries per second.
pub fn search_batched_qps(epoch: &ServingEpoch, profiles: &[Profile], window: usize) -> f64 {
    let index = epoch.index();
    let beam = beam(BEAM);
    let queries: Vec<BatchQuery> = profiles
        .iter()
        .enumerate()
        .map(|(seed, profile)| BatchQuery { profile, k: QUERY_K, seed: seed as u64 })
        .collect();
    let start = Instant::now();
    for chunk in queries.chunks(window) {
        black_box(index.search_batch(chunk, &beam));
    }
    profiles.len() as f64 / start.elapsed().as_secs_f64()
}

/// Latencies (µs) of `DynamicIndex::add_user` over a copy of the epoch.
pub fn dynamic_insert_latencies(epoch: &ServingEpoch, profiles: &[Profile]) -> Vec<f64> {
    let mut index = match epoch.fingerprints() {
        Some(gf) => DynamicIndex::with_goldfinger(
            epoch.dataset(),
            epoch.graph().clone(),
            beam(BEAM),
            (**gf).clone(),
        ),
        None => DynamicIndex::new(epoch.dataset(), epoch.graph().clone(), beam(BEAM)),
    };
    profiles
        .iter()
        .enumerate()
        .map(|(seed, profile)| {
            let start = Instant::now();
            black_box(index.add_user(profile.clone(), seed as u64));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

// ── snapshots ──────────────────────────────────────────────────────────

/// `write_snapshot`; returns the encoded size.
pub fn snapshot_write(engine: &Engine, path: &Path) -> Result<u64, String> {
    engine.write_snapshot(path).map_err(|e| e.to_string())
}

/// Loads `path` by full decode (`mmap = false`) or zero-copy map and
/// adopts it into `engine`; returns whether the adopted state is mapped.
pub fn adopt(engine: &Engine, path: &Path, mmap: bool) -> Result<bool, String> {
    let adopted =
        if mmap { AdoptedSnapshot::open(path) } else { AdoptedSnapshot::load_copied(path) }
            .map_err(|e| e.to_string())?;
    let mapped = adopted.mapped;
    engine.adopt(adopted);
    Ok(mapped)
}

/// A replica serving the same epoch as `engine` from its own copy.
pub fn replica_of(engine: &Engine, serving: Serving) -> Engine {
    let epoch = engine.current_epoch();
    Engine::from_parts(
        epoch.dataset().clone(),
        epoch.graph().clone(),
        epoch.fingerprints().cloned(),
        serving,
    )
}

/// The snapshot-directory protocol between a builder and a replica.
pub struct Handoff {
    publisher: SnapshotPublisher,
    adopter: SnapshotAdopter,
}

impl Handoff {
    pub fn open(dir: &Path) -> Result<Handoff, String> {
        let publisher = SnapshotPublisher::open(dir).map_err(|e| e.to_string())?;
        Ok(Handoff { publisher, adopter: SnapshotAdopter::new(dir) })
    }

    /// `publish` the engine's epoch to the directory, then `poll_into`
    /// the replica; returns the adopted sequence number. Older files are
    /// pruned afterwards so the directory holds one snapshot.
    pub fn round(&mut self, engine: &Engine, replica: &Engine) -> Result<u64, String> {
        let (published, _) = self.publisher.publish(engine).map_err(|e| e.to_string())?;
        let adopted = self
            .adopter
            .poll_into(replica)
            .map_err(|e| e.to_string())?
            .ok_or("a fresh publish was not adoptable")?;
        if adopted != published {
            return Err(format!("published sequence {published}, adopted {adopted}"));
        }
        self.publisher.prune(1).map_err(|e| e.to_string())?;
        Ok(adopted)
    }
}
