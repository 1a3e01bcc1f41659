//! The sharded map engine.
//!
//! [`Runtime::execute`] runs the map stage below. Incremental builds
//! ([`Runtime::execute_incremental`] and its shared-fingerprint twin) run
//! no map stage: they are the plan's patch stage ([`BuildPlan::patch`]) on
//! the same worker budget — the one solve loop the in-process pipeline
//! runs too — with every cluster job behind the `solve.cluster` fault
//! gate.
//!
//! Map-stage execution model (one in-process thread per would-be map
//! worker):
//!
//! ```text
//!            ┌────────────┐  merge_into   ┌────────────────┐
//!  cluster → │ worker 0   │ ────────────▶ │                │
//!  queues    │ worker 1   │ ────────────▶ │ SharedKnnGraph │ ─ into_graph ─▶ KnnGraph
//!  (LPT)     │   ...      │ ────────────▶ │ (n × k arena)  │   (in place)
//!            │ worker W-1 │ ────────────▶ │                │
//!            └────────────┘               └────────────────┘
//!                  │                              ▲
//!                  └─ one spill file per worker ──┘ replayed once the worker is done
//! ```
//!
//! Workers drain their own LPT queue largest-first (the distributed
//! generalization of Step 2's priority queue); when a queue runs dry the
//! worker steals **half** the most-loaded peer's remaining queue (the
//! victim keeps its larger-cost front half).
//! Every solved cluster's partial lists are merged straight into one
//! [`SharedKnnGraph`] under its per-row locks (Algorithm 3) — or, under
//! [`SpillMode::Always`], appended to the worker's spill file, which is
//! replayed into the same arena as soon as the worker has joined. The
//! arena then freezes in place into the [`KnnGraph`].
//!
//! Because a row keeps the top-k under a strict total order on
//! `(similarity, user)` and the spill codec is lossless, the merge is
//! order- and route-independent: every `(workers, spill)` combination
//! produces exactly the single-process pipeline's graph on the same
//! configuration and seed (asserted by `tests/shuffle.rs`). Offers
//! deduplicate, so merging a cluster's lists twice changes nothing.

use crate::config::{RuntimeConfig, SpillMode};
use crate::report::{RuntimeReport, WorkerStats};
use crate::shuffle::{encoded_len, replay_spill, FinishedSpill, SpillDir, SpillWriter};
use cnc_baselines::local;
use cnc_core::build_plan::{BuildPlan, ClusterCache, RebuildStats};
use cnc_core::distributed::{cluster_cost, plan_deployment_for};
use cnc_core::{C2Config, ClusterAndConquer, DeploymentPlan};
use cnc_dataset::{Dataset, UserId};
use cnc_faults::{Faults, Site};
use cnc_graph::{EntryIndex, KnnGraph, NeighborList, SharedKnnGraph};
use cnc_similarity::{GoldFinger, SimilarityData};
use cnc_telemetry::{SpanRecord, Telemetry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-build solve attempts per cluster (first try + bounded
/// re-executions after caught panics). A cluster that panics this many
/// times aborts the build — the layer above (the serving writer) keeps
/// its last good epoch and retries the whole publish with backoff, by
/// which point a transient fault schedule has drained its budget.
const MAX_SOLVE_ATTEMPTS: u32 = 3;

/// Caught solve panics a map worker absorbs before it is declared dead.
/// A dead worker's remaining queue stays claimable: surviving peers
/// steal it half-at-a-time, and whatever nobody claims is swept by the
/// orchestrator's recovery lane after the workers join.
const WORKER_PANIC_BUDGET: u32 = 2;

/// A built graph plus the measured execution record.
#[derive(Debug)]
pub struct ShardedResult {
    /// The approximate KNN graph (identical to the single-process build's).
    pub graph: KnnGraph,
    /// Measured per-worker figures, with the plan inside.
    pub report: RuntimeReport,
}

/// An incremental sharded build's output: the graph, the cache the next
/// call patches and the record of what this one did.
#[derive(Debug)]
pub struct IncrementalShardedResult {
    /// The approximate KNN graph — bit-identical to a from-scratch build.
    pub graph: KnnGraph,
    /// This build's cluster memberships and graph (shared with `graph`,
    /// not copied); `cache.total_comparisons()` equals a from-scratch
    /// build's comparison count.
    pub cache: ClusterCache,
    /// The dirty/reused split, the path taken and what it cost;
    /// `comparisons` counts exactly the similarities this build computed.
    pub rebuild: RebuildStats,
    /// The plan's entry index ([`BuildPlan::entry_index`]): routes a query
    /// profile to this build's clusters, so whoever serves `graph` needs
    /// no second Step-1 pass to seed searches.
    pub entries: EntryIndex,
}

/// The per-worker cluster queues plus the bookkeeping stealing needs.
struct JobQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Predicted cost still queued per worker (stale reads are fine — it
    /// only ranks steal victims).
    remaining: Vec<AtomicU64>,
    costs: Vec<u64>,
}

impl JobQueues {
    fn new(plan: &DeploymentPlan, costs: Vec<u64>) -> Self {
        // Each worker's LPT assignment is already in decreasing-cost order
        // (clusters are assigned globally largest-first), so popping from
        // the front preserves Step 2's largest-first schedule per shard.
        let mut queues: Vec<Mutex<VecDeque<usize>>> = plan
            .assignments
            .iter()
            .map(|clusters| Mutex::new(clusters.iter().copied().collect()))
            .collect();
        // Sum `remaining` from the same `costs` vector the pops subtract,
        // not from `plan.worker_costs`: steal()'s termination needs the
        // counters to reach exactly 0 once the queues drain, which a
        // second, independently computed cost model could silently break.
        let mut remaining: Vec<AtomicU64> = plan
            .assignments
            .iter()
            .map(|clusters| AtomicU64::new(clusters.iter().map(|&c| costs[c]).sum()))
            .collect();
        // One extra, initially empty lane: the orchestrator's recovery
        // sweep steals into it after the workers join, so clusters a dead
        // worker left behind are executed even with zero survivors.
        queues.push(Mutex::new(VecDeque::new()));
        remaining.push(AtomicU64::new(0));
        JobQueues { queues, remaining, costs }
    }

    /// The extra lane the orchestrator's recovery sweep pops and steals
    /// on after the worker threads have joined.
    fn recovery_lane(&self) -> usize {
        self.queues.len() - 1
    }

    /// Whether any queue still holds unexecuted work. Read after the
    /// worker joins (which synchronize the relaxed counters), so `true`
    /// means dead workers left clusters behind.
    fn any_remaining(&self) -> bool {
        self.remaining.iter().any(|r| r.load(Ordering::Relaxed) > 0)
    }

    /// Returns a cluster whose solve panicked to the front of `worker`'s
    /// queue for re-execution (failed clusters retry before the backlog).
    /// The cost is credited back *before* the cluster is published,
    /// mirroring `steal`'s ordering, so a racing peer never sees queued
    /// work the counters cannot cover.
    fn requeue(&self, worker: usize, cluster: usize) {
        self.remaining[worker].fetch_add(self.costs[cluster], Ordering::Relaxed);
        self.queues[worker].lock().push_front(cluster);
    }

    /// Next cluster from the worker's own queue (largest first).
    fn pop_own(&self, worker: usize) -> Option<usize> {
        let cluster = self.queues[worker].lock().pop_front()?;
        self.remaining[worker].fetch_sub(self.costs[cluster], Ordering::Relaxed);
        Some(cluster)
    }

    /// Steals **half** the most-loaded peer's remaining queue (ROADMAP
    /// PR-2 follow-up: adaptive steal granularity). The victim keeps its
    /// larger-cost front half; the stolen tail — still in decreasing-cost
    /// order — yields its largest cluster for immediate execution while
    /// the rest is queued on the thief (where peers may re-steal it).
    /// Returns `(execute now, also queued on the thief)`.
    fn steal(&self, thief: usize) -> Option<(usize, Vec<usize>)> {
        loop {
            // Rank victims by predicted work remaining, best first.
            let mut victims: Vec<(u64, usize)> = self
                .remaining
                .iter()
                .enumerate()
                .filter(|&(w, _)| w != thief)
                .map(|(w, r)| (r.load(Ordering::Relaxed), w))
                .filter(|&(r, _)| r > 0)
                .collect();
            if victims.is_empty() {
                return None;
            }
            victims.sort_unstable_by(|a, b| b.cmp(a));
            for (_, victim) in victims {
                let stolen: Vec<usize> = {
                    let mut queue = self.queues[victim].lock();
                    let keep = queue.len() / 2;
                    queue.split_off(keep).into_iter().collect()
                };
                if stolen.is_empty() {
                    continue;
                }
                let stolen_cost: u64 = stolen.iter().map(|&c| self.costs[c]).sum();
                self.remaining[victim].fetch_sub(stolen_cost, Ordering::Relaxed);
                let first = stolen[0];
                let queued = stolen[1..].to_vec();
                if !queued.is_empty() {
                    // Credit the thief *before* publishing the clusters so
                    // a racing peer never sees work it cannot account for.
                    let queued_cost: u64 = queued.iter().map(|&c| self.costs[c]).sum();
                    self.remaining[thief].fetch_add(queued_cost, Ordering::Relaxed);
                    self.queues[thief].lock().extend(queued.iter().copied());
                }
                return Some((first, queued));
            }
            // Every candidate's queue emptied between the load and the
            // lock; the owners' pending `fetch_sub`s will zero the stale
            // counters, so looping re-reads them until none remain.
        }
    }
}

/// Everything a map worker needs, bundled so the thread spawn stays tidy.
struct MapContext<'a> {
    queues: &'a JobQueues,
    /// The plan's cluster list.
    clusters: &'a [Vec<UserId>],
    sim: &'a SimilarityData<'a>,
    c2: &'a C2Config,
    threshold: usize,
    spill: SpillMode,
    spill_dir: Option<&'a SpillDir>,
    /// The arena every partial list is merged into (Algorithm 3).
    graph: &'a SharedKnnGraph,
    /// Per-cluster *failed* solve attempts, shared across
    /// workers: a cluster may be requeued and retried anywhere, but its
    /// total failure budget is [`MAX_SOLVE_ATTEMPTS`] per build.
    attempts: &'a [AtomicU32],
    /// Set when a cluster exhausts its attempts: every worker bails out
    /// of its loop so the build fails fast as a unit.
    abort: &'a AtomicBool,
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

    /// Builds the KNN graph of `dataset` under `c2` on `W` worker shards,
    /// materializing the similarity backend declared in the configuration
    /// (GoldFinger fingerprints are built in parallel on the map workers):
    /// stage 1 assigns the [`BuildPlan`], then every cluster is solved on
    /// the map shards, each merging into the shared arena (Algorithms 2 +
    /// 3).
    ///
    /// # Panics
    /// Panics if `c2` is invalid.
    pub fn execute(&self, dataset: &Dataset, c2: &C2Config) -> ShardedResult {
        let telemetry = Telemetry::global();
        let workers = self.config.effective_workers();
        let sim = SimilarityData::build_parallel(c2.backend, dataset, workers);
        let n = dataset.num_users();

        // --- Stage 1: assignment, identical to the in-process pipeline ---
        let plan = BuildPlan::assign(c2, dataset);
        let clusters = plan.clusters();
        let map_reduce_start_ns = telemetry.stamp();
        let map_reduce_start = Instant::now();

        // --- Plan: the §VIII LPT simulation becomes the real schedule ----
        let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
        let deploy = plan_deployment_for(&sizes, workers, c2.k, c2.rho);
        let costs: Vec<u64> = sizes.iter().map(|&s| cluster_cost(s, c2.k, c2.rho)).collect();
        let queues = JobQueues::new(&deploy, costs);

        // The cleanup-on-drop guard lives on this stack frame: a panicking
        // worker unwinds through the thread scope and still removes the
        // spill dir and everything in it.
        let spill_dir = match self.config.spill {
            SpillMode::Off => None,
            _ => Some(SpillDir::create().expect("failed to create spill dir")),
        };
        let spill_dir_path = spill_dir.as_ref().map(|d| d.path().to_path_buf());

        // --- Map + merge into one arena -----------------------------------
        let attempts: Vec<AtomicU32> = (0..clusters.len()).map(|_| AtomicU32::new(0)).collect();
        let abort = AtomicBool::new(false);
        let arena = SharedKnnGraph::new(n, c2.k);
        let ctx = MapContext {
            queues: &queues,
            clusters,
            sim: &sim,
            c2,
            threshold: c2.brute_force_threshold(),
            spill: self.config.spill,
            spill_dir: spill_dir.as_ref(),
            graph: &arena,
            attempts: &attempts,
            abort: &abort,
        };
        let (worker_stats, shuffle_entries) = run_map_stage(&ctx, workers);
        drop(spill_dir); // all spill files removed before the build returns
        let graph = arena.into_graph();
        let map_reduce_wall = map_reduce_start.elapsed();

        let report = RuntimeReport {
            num_clusters: clusters.len(),
            plan: deploy,
            workers: worker_stats,
            shuffle_entries,
            spill: self.config.spill,
            spill_dir: spill_dir_path,
            splits: plan.splits(),
            comparisons: sim.comparisons(),
            map_reduce_wall,
        };
        if cfg!(debug_assertions) {
            report.check_invariants().expect("runtime report accounting violated");
        }
        // Stage spans, synthesized from the joined stats so span durations
        // and the report are fed by the identical values. Built for the
        // debug cross-check even when telemetry is off; published (with
        // the stage counters) only when it is on.
        if telemetry.enabled() || cfg!(debug_assertions) {
            let records = stage_span_records(telemetry, &report, map_reduce_start_ns);
            if cfg!(debug_assertions) {
                report
                    .check_telemetry(&records)
                    .expect("synthesized telemetry spans drifted from the report");
            }
            if telemetry.enabled() {
                let parent = telemetry.collector().record_complete(
                    "build.map_reduce",
                    map_reduce_start_ns,
                    map_reduce_wall.as_nanos() as u64,
                    vec![("shuffle_entries", report.shuffle_entries)],
                );
                for mut record in records {
                    record.parent = parent;
                    telemetry.submit(record);
                }
                telemetry.counter("cnc_build_comparisons_total", &[]).add(report.comparisons);
                telemetry.counter("cnc_shuffle_entries_total", &[]).add(report.shuffle_entries);
                telemetry.counter("cnc_spill_bytes_total", &[]).add(report.total_spill_bytes());
                telemetry.counter("cnc_steals_total", &[]).add(report.stolen_clusters() as u64);
            }
        }
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
    /// `tests/incremental.rs`. Pass an empty cache for the first build.
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
    /// [`solve_gate`], then the cache captured for the next call.
    fn execute_incremental_with(
        &self,
        dataset: &Dataset,
        sim: &SimilarityData<'_>,
        c2: &C2Config,
        prev: &ClusterCache,
        start: Instant,
    ) -> IncrementalShardedResult {
        let comparisons_before = sim.comparisons();
        let mut plan = BuildPlan::assign(c2, dataset);
        plan.fingerprint(dataset);
        let patch = plan.patch(sim, prev, self.config.effective_workers(), &solve_gate);
        let comparisons = sim.comparisons() - comparisons_before;
        let (graph, cache, rebuild) = plan.finish(patch.graph, patch.rebuild, comparisons, start);
        let telemetry = Telemetry::global();
        if telemetry.enabled() {
            telemetry.counter("cnc_build_comparisons_total", &[]).add(comparisons);
        }
        IncrementalShardedResult { graph, cache, rebuild, entries: plan.entry_index() }
    }
}

/// The patch stage's per-cluster `solve.cluster` fault gate: an injected
/// panic is caught and the cluster re-attempted (counted as a requeue,
/// like a map worker's), up to [`MAX_SOLVE_ATTEMPTS`] failures per
/// cluster — the same budget a map worker gives a solve. Exhaustion
/// re-raises the typed payload, which fails the rebuild before the
/// cluster's solve or sweep has touched a row.
fn solve_gate(cluster: usize) {
    let faults = Faults::global();
    if !faults.armed() {
        return;
    }
    for attempt in 1.. {
        match cnc_faults::catch_injected(|| faults.panic_on(Site::SolveCluster, cluster as u64)) {
            Ok(()) => return,
            Err(injected) if attempt >= MAX_SOLVE_ATTEMPTS => std::panic::panic_any(injected),
            Err(_) => {
                let telemetry = Telemetry::global();
                if telemetry.enabled() {
                    telemetry.counter("cnc_requeued_clusters_total", &[]).add(1);
                }
            }
        }
    }
}

/// One `map.worker` span per worker, synthesized from the joined stats:
/// durations and comparison attributions ARE the stats' values (not
/// independently re-measured), so [`RuntimeReport::check_telemetry`]'s
/// exact equalities hold by construction — the debug assert catches any
/// future drift between the two accounts. Synthetic thread ids give each
/// worker its own lane in a Perfetto view.
fn stage_span_records(
    telemetry: &Telemetry,
    report: &RuntimeReport,
    start_ns: u64,
) -> Vec<SpanRecord> {
    let records = report.workers.iter().map(|w| SpanRecord {
        name: "map.worker",
        id: telemetry.next_span_id(),
        parent: 0,
        thread: 1_000 + w.worker as u64,
        start_ns,
        dur_ns: w.busy.as_nanos() as u64,
        attrs: vec![
            ("comparisons", w.comparisons),
            ("shuffle_entries", w.shuffle_entries),
            ("spilled_bytes", w.spilled_bytes),
            ("stolen", w.stolen as u64),
            ("clusters", w.clusters.len() as u64),
        ],
    });
    records.collect()
}

/// The fingerprint-set validation of
/// [`Runtime::execute_incremental_shared`] (its doc lists the panics).
fn validate_shared(dataset: &Dataset, c2: &C2Config, goldfinger: &GoldFinger) {
    assert_eq!(
        goldfinger.num_users(),
        dataset.num_users(),
        "shared fingerprints must cover the dataset"
    );
    match c2.backend {
        cnc_similarity::SimilarityBackend::GoldFinger { bits, seed } => assert_eq!(
            (bits, seed),
            (goldfinger.bits(), goldfinger.seed()),
            "shared fingerprints must match the configured backend"
        ),
        cnc_similarity::SimilarityBackend::Raw => {
            panic!("shared fingerprints require a GoldFinger backend, config says Raw")
        }
    }
}

/// The stable stream identity a worker's spill file presents to the
/// fault registry — the recovery lane reuses dead workers' indices never,
/// so the hash stays collision-free across a build.
fn spill_fault_base(worker: usize) -> u64 {
    ((worker as u64) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The map stage: `workers` threads drain the LPT queues and merge every
/// solved cluster's partial lists into `ctx.graph`. Each worker's spill
/// file is replayed into the arena on this thread as soon as the worker
/// has joined, overlapping the peers still running. Clusters dead
/// workers left behind are swept by the recovery lane on this thread.
/// Returns the per-worker stats and the entries merged, directly and
/// from spill files.
///
/// A worker that *unwound* (a cluster exhausted its solve attempts, or a
/// genuine bug) fails the whole build — but only after every thread has
/// joined and the leftover sweep is skipped, so the unwind re-raised here
/// is the build's single failure.
fn run_map_stage(ctx: &MapContext<'_>, workers: usize) -> (Vec<WorkerStats>, u64) {
    let mut stats: Vec<WorkerStats> = Vec::with_capacity(workers);
    let mut merged = 0u64;
    let mut collect = |(worker, spill): (WorkerStats, Option<FinishedSpill>)| {
        merged += worker.shuffle_entries - worker.spilled_entries;
        if let Some(file) = spill {
            merged += replay_into(ctx.graph, &file, ctx.c2.k);
        }
        stats.push(worker);
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..workers).map(|w| scope.spawn(move || map_worker(w, ctx, false))).collect();
        let mut build_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(output) => collect(output),
                Err(payload) => build_panic = Some(payload),
            }
        }
        // Dead workers (panic budget spent) may have left clusters behind
        // that nobody stole; sweep them on this thread through the
        // reserved recovery lane, which steals them like any idle worker
        // — so the sweep works with zero surviving workers too.
        if build_panic.is_none() && ctx.queues.any_remaining() {
            let recovery = ctx.queues.recovery_lane();
            match catch_unwind(AssertUnwindSafe(|| map_worker(recovery, ctx, true))) {
                Ok(output) => collect(output),
                Err(payload) => build_panic = Some(payload),
            }
        }
        if let Some(payload) = build_panic {
            resume_unwind(payload);
        }
    });
    (stats, merged)
}

/// Merges a sealed spill file into the arena; returns the entries merged.
/// [`replay_spill`] retries IO failures internally and decodes the whole
/// file before a single record is merged; only a genuine persistent
/// failure fails the build.
fn replay_into(graph: &SharedKnnGraph, file: &FinishedSpill, k: usize) -> u64 {
    let records =
        replay_spill(&file.path, k).unwrap_or_else(|e| panic!("spill replay failed: {e}"));
    let mut entries = 0u64;
    for (user, partial) in &records {
        graph.merge_into(*user, partial);
        entries += partial.len() as u64;
    }
    entries
}

/// A map worker's spill stream: opened on its first record, and broken
/// for the rest of the build once a create or append exhausts the
/// writer's retries.
#[derive(Default)]
struct SpillStream {
    writer: Option<SpillWriter>,
    broken: bool,
}

impl SpillStream {
    /// Appends one record, opening the stream first if need be; `false`
    /// when the stream is (or just became) broken, and the caller merges
    /// the record directly instead. A failed append leaves the committed
    /// prefix in place, still perfectly replayable.
    fn push(
        &mut self,
        ctx: &MapContext<'_>,
        worker: usize,
        user: UserId,
        list: &NeighborList,
    ) -> bool {
        if self.broken {
            return false;
        }
        let writer = match &mut self.writer {
            Some(writer) => writer,
            None => {
                let dir = ctx.spill_dir.expect("spill requested without a spill dir");
                match SpillWriter::create(dir.file_path(worker), spill_fault_base(worker)) {
                    Ok(writer) => self.writer.insert(writer),
                    Err(_) => {
                        self.broken = true;
                        return false;
                    }
                }
            }
        };
        self.broken = writer.push(user, list).is_err();
        !self.broken
    }

    /// Seals the stream, if one was opened. A seal failure is not
    /// recoverable by merging directly — records already committed to
    /// the stream would silently vanish from the merge — so it fails the
    /// build. (Injected faults never fire here: `finish` only flushes,
    /// and every append was already durable or merged directly.)
    fn finish(self) -> Option<FinishedSpill> {
        self.writer.map(|w| w.finish().unwrap_or_else(|e| panic!("spill seal failed: {e}")))
    }
}

/// One map shard: drain own queue largest-first, then steal, merging
/// every solved cluster into the shared arena. Returns the worker's stats
/// and its sealed spill stream, if it spilled.
///
/// Failure handling, from the inside out:
/// * each cluster solve runs under `catch_unwind`; a panicking solve
///   (injected at `solve.cluster`, or genuine) is **requeued** at the
///   front of this worker's queue, bounded by [`MAX_SOLVE_ATTEMPTS`]
///   failed attempts per cluster per build — exhaustion aborts the build
///   by re-raising the final payload;
/// * a worker that catches [`WORKER_PANIC_BUDGET`] panics is declared
///   *dead* and returns early; its remaining queue stays claimable by
///   stealing peers and, failing that, the orchestrator's recovery lane
///   (`recovery = true`, which never dies — only the attempts bound stops
///   it);
/// * a spill stream whose create/append exhausts its internal retries is
///   marked broken and the worker **merges its records directly** — the
///   graph is route-independent, so degrading the route never changes the
///   result.
fn map_worker(
    worker: usize,
    ctx: &MapContext<'_>,
    recovery: bool,
) -> (WorkerStats, Option<FinishedSpill>) {
    let mut stats = WorkerStats {
        worker,
        clusters: Vec::new(),
        busy: Duration::ZERO,
        solved_cost: 0,
        shuffle_entries: 0,
        spilled_entries: 0,
        spilled_bytes: 0,
        stolen: 0,
        comparisons: 0,
        requeued: 0,
        spill_rerouted: 0,
    };
    // Per-algorithm solve-latency histograms, resolved once per worker
    // (never in the cluster loop) and only when telemetry is on.
    let telemetry = Telemetry::global();
    let solve_hists = telemetry.enabled().then(|| {
        (
            telemetry.histogram("cnc_cluster_solve_ns", &[("algo", "brute")]),
            telemetry.histogram("cnc_cluster_solve_ns", &[("algo", "greedy")]),
        )
    });
    let mut spill = SpillStream::default();
    // Clusters this worker lifted from a peer (half-queue steals park the
    // batch's tail in the own queue; marking attributes them when popped).
    let mut stolen_mark: Vec<bool> = vec![false; ctx.clusters.len()];
    // Caught solve panics so far — the worker's life budget.
    let mut caught = 0u32;
    let faults = Faults::global();
    loop {
        if ctx.abort.load(Ordering::Relaxed) {
            break; // another worker exhausted a cluster's attempts
        }
        let (cluster, stolen) = match ctx.queues.pop_own(worker) {
            Some(c) => (c, stolen_mark[c]),
            None => match ctx.queues.steal(worker) {
                Some((first, queued)) => {
                    for c in queued {
                        stolen_mark[c] = true;
                    }
                    (first, true)
                }
                None => break,
            },
        };
        let busy_start = Instant::now();
        let users = &ctx.clusters[cluster];
        // Algorithm 2: brute force for small clusters, Hyrec above the
        // ρ·k² crossover — the shared dispatch of `cnc_baselines::local`,
        // exactly the single-process pipeline's branch.
        //
        // The solve is panic-isolated. The injection fires *before* the
        // solver touches anything and the solver is pure (its only output
        // is the return value), so a caught attempt leaves no partial
        // state: re-executing elsewhere yields the identical lists, and
        // failed attempts burn zero comparisons.
        let solved = catch_unwind(AssertUnwindSafe(|| {
            if faults.armed() {
                faults.panic_on(Site::SolveCluster, cluster as u64);
            }
            local::solve_cluster_partial(
                users,
                ctx.sim,
                ctx.c2.k,
                ctx.threshold,
                ctx.c2.rho,
                ctx.c2.delta,
                ClusterAndConquer::job_seed(ctx.c2, cluster),
            )
        }));
        let (lists, comparisons) = match solved {
            Ok(output) => output,
            Err(payload) => {
                stats.busy += busy_start.elapsed();
                let failures = ctx.attempts[cluster].fetch_add(1, Ordering::Relaxed) + 1;
                if failures >= MAX_SOLVE_ATTEMPTS {
                    // Out of budget: fail the whole build with the final
                    // payload (typed `InjectedPanic` under injection, the
                    // genuine payload otherwise). The layer above — the
                    // serving writer — keeps its last good epoch and
                    // retries the publish.
                    ctx.abort.store(true, Ordering::Relaxed);
                    resume_unwind(payload);
                }
                if stolen {
                    stolen_mark[cluster] = true;
                }
                stats.requeued += 1;
                ctx.queues.requeue(worker, cluster);
                caught += 1;
                if telemetry.enabled() {
                    telemetry.counter("cnc_requeued_clusters_total", &[]).add(1);
                }
                if !recovery && caught >= WORKER_PANIC_BUDGET {
                    // This worker is dead. Its queue (including the
                    // cluster just requeued) outlives it: peers steal it,
                    // the recovery lane sweeps the rest.
                    if telemetry.enabled() {
                        telemetry.counter("cnc_worker_deaths_total", &[]).add(1);
                    }
                    break;
                }
                continue;
            }
        };
        stats.comparisons += comparisons;
        if let Some((brute, greedy)) = &solve_hists {
            let hist = if users.len() >= ctx.threshold { greedy } else { brute };
            hist.record(busy_start.elapsed().as_nanos() as u64);
        }
        // Algorithm 3: merge each non-empty partial list into the arena —
        // or, when spilling, append it to this worker's spill file,
        // replayed into the arena once the worker is done.
        for (&user, list) in users.iter().zip(&lists) {
            if list.is_empty() {
                continue;
            }
            stats.shuffle_entries += list.len() as u64;
            if ctx.spill == SpillMode::Always {
                if spill.push(ctx, worker, user, list) {
                    stats.spilled_entries += list.len() as u64;
                    stats.spilled_bytes += encoded_len(list);
                    continue;
                }
                stats.spill_rerouted += 1;
            }
            ctx.graph.merge_into(user, list);
        }
        stats.clusters.push(cluster);
        stats.solved_cost += ctx.queues.costs[cluster];
        stats.stolen += usize::from(stolen);
        stats.busy += busy_start.elapsed();
    }
    (stats, spill.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_core::RebuildPath;
    use cnc_dataset::SyntheticConfig;
    use cnc_similarity::SimilarityBackend;

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
    fn every_cluster_is_executed_exactly_once() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let result = Runtime::new(RuntimeConfig::with_workers(4)).execute(&ds, &test_config());
        let mut executed: Vec<usize> =
            result.report.workers.iter().flat_map(|w| w.clusters.iter().copied()).collect();
        executed.sort_unstable();
        let expected: Vec<usize> = (0..result.report.num_clusters).collect();
        assert_eq!(executed, expected);
    }

    #[test]
    fn measured_shuffle_matches_predicted_merge_traffic() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let result = Runtime::new(RuntimeConfig::with_workers(3)).execute(&ds, &test_config());
        assert_eq!(result.report.shuffle_entries, result.report.plan.merge_traffic);
        let sent: u64 = result.report.workers.iter().map(|w| w.shuffle_entries).sum();
        assert_eq!(sent, result.report.shuffle_entries, "sent and received entries differ");
    }

    #[test]
    fn report_accounting_is_consistent() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let result = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        let report = &result.report;
        report.check_invariants().unwrap();
        assert!(report.comparisons > 0);
        assert!(report.measured_speedup() >= 1.0 - 1e-9);
        assert!(report.measured_imbalance() >= 1.0 - 1e-9);
        let solved: u64 = report.workers.iter().map(|w| w.solved_cost).sum();
        assert_eq!(solved, report.plan.total_cost());
    }

    #[test]
    fn empty_dataset_is_handled() {
        let _calm = crate::no_faults();
        let ds = Dataset::from_profiles(vec![], 0);
        let result = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        assert_eq!(result.graph.num_users(), 0);
        assert_eq!(result.report.shuffle_entries, 0);
        assert_eq!(result.report.num_clusters, 0);
        result.report.check_invariants().unwrap();
    }

    #[test]
    fn always_spill_routes_all_traffic_through_files() {
        let _calm = crate::no_faults();
        let ds = test_dataset();
        let config = RuntimeConfig { workers: 2, spill: SpillMode::Always };
        let single = ClusterAndConquer::new(test_config()).build(&ds);
        let result = Runtime::new(config).execute(&ds, &test_config());
        let report = &result.report;
        report.check_invariants().unwrap();
        assert_eq!(report.total_spill_entries(), report.shuffle_entries);
        assert!(report.total_spill_bytes() > 0);
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
        // whose directory is gone: every `SpillWriter::create` fails.
        let dir = SpillDir::create().unwrap();
        std::fs::remove_dir(dir.path()).unwrap();
        let plan = BuildPlan::assign(&c2, &ds);
        let sizes: Vec<usize> = plan.clusters().iter().map(Vec::len).collect();
        let deploy = plan_deployment_for(&sizes, 2, c2.k, c2.rho);
        let costs = sizes.iter().map(|&s| cluster_cost(s, c2.k, c2.rho)).collect();
        let queues = JobQueues::new(&deploy, costs);
        let sim = SimilarityData::build(c2.backend, &ds);
        let attempts: Vec<AtomicU32> = sizes.iter().map(|_| AtomicU32::new(0)).collect();
        let arena = SharedKnnGraph::new(ds.num_users(), c2.k);
        let ctx = MapContext {
            queues: &queues,
            clusters: plan.clusters(),
            sim: &sim,
            c2: &c2,
            threshold: c2.brute_force_threshold(),
            spill: SpillMode::Always,
            spill_dir: Some(&dir),
            graph: &arena,
            attempts: &attempts,
            abort: &AtomicBool::new(false),
        };
        let (workers, shuffle_entries) = run_map_stage(&ctx, 2);
        let graph = arena.into_graph();
        let report = RuntimeReport {
            num_clusters: sizes.len(),
            plan: deploy,
            workers,
            shuffle_entries,
            spill: SpillMode::Always,
            spill_dir: Some(dir.path().to_path_buf()),
            splits: plan.splits(),
            comparisons: sim.comparisons(),
            map_reduce_wall: Duration::ZERO,
        };

        report.check_invariants().unwrap();
        assert!(report.rerouted_spill_records() > 0, "every record was due to spill");
        assert_eq!(report.total_spill_entries(), 0, "no entry may be spilled and rerouted");
        assert_eq!(report.shuffle_entries, off.report.shuffle_entries);
        for u in ds.users() {
            assert_eq!(graph.neighbors(u).sorted(), off.graph.neighbors(u).sorted(), "user {u}");
        }
    }

    #[test]
    fn steal_takes_half_of_the_most_loaded_queue() {
        // Worker 0 owns five clusters in decreasing-cost order; worker 1
        // is idle and steals.
        let plan = DeploymentPlan {
            assignments: vec![vec![0, 1, 2, 3, 4], vec![]],
            worker_costs: vec![50, 0],
            merge_traffic: 0,
        };
        let queues = JobQueues::new(&plan, vec![20, 10, 8, 7, 5]);
        let (first, queued) = queues.steal(1).expect("loaded peer must yield work");
        // The victim keeps its larger front half {0, 1}; the stolen tail
        // {2, 3, 4} yields its largest (2) for immediate execution and
        // parks the rest on the thief, still largest-first.
        assert_eq!(first, 2);
        assert_eq!(queued, vec![3, 4]);
        assert_eq!(queues.pop_own(1), Some(3));
        assert_eq!(queues.pop_own(1), Some(4));
        assert_eq!(queues.pop_own(1), None);
        assert_eq!(queues.pop_own(0), Some(0));
        assert_eq!(queues.pop_own(0), Some(1));
        assert_eq!(queues.pop_own(0), None);
        // Counters drained exactly: nothing left to steal in either
        // direction (a leak here would hang the old one-cluster protocol).
        assert!(queues.steal(0).is_none());
        assert!(queues.steal(1).is_none());
    }

    #[test]
    fn steal_of_a_single_cluster_queue_takes_it_whole() {
        let plan = DeploymentPlan {
            assignments: vec![vec![0], vec![]],
            worker_costs: vec![9, 0],
            merge_traffic: 0,
        };
        let queues = JobQueues::new(&plan, vec![9]);
        let (first, queued) = queues.steal(1).unwrap();
        assert_eq!((first, queued), (0, vec![]));
        assert_eq!(queues.pop_own(0), None);
        assert!(queues.steal(0).is_none());
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
            // Every cluster's solve panics 1–2 times (span 2 <
            // MAX_SOLVE_ATTEMPTS), so the build must survive purely via
            // catch + requeue — including through worker deaths, since
            // p=1.0 kills every worker after two catches.
            let plan =
                cnc_faults::FaultPlan::new(4242, 1.0).only(&[Site::SolveCluster]).with_span(2);
            let _guard = faults.arm(plan);
            let chaotic =
                Runtime::new(RuntimeConfig::with_workers(workers)).execute(&ds, &test_config());
            assert!(chaotic.report.requeued_clusters() > 0, "the schedule must have fired");
            chaotic.report.check_invariants().unwrap();
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
    fn dead_worker_clusters_are_swept_by_the_recovery_lane() {
        let _serial = crate::fault_lock();
        cnc_faults::silence_injected_panics();
        let ds = test_dataset();
        let clean = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        let faults = Faults::global();
        let plan = cnc_faults::FaultPlan::new(11, 1.0).only(&[Site::SolveCluster]).with_span(1);
        let _guard = faults.arm(plan);
        // Every cluster's first solve panics, so both workers die after
        // two caught panics each with clusters still queued: only the
        // orchestrator's recovery lane is left to claim them.
        let chaotic = Runtime::new(RuntimeConfig::with_workers(2)).execute(&ds, &test_config());
        chaotic.report.check_invariants().unwrap();
        assert_eq!(
            chaotic.report.workers.len(),
            3,
            "two dead workers plus the recovery lane must all report stats"
        );
        for u in ds.users() {
            assert_eq!(chaotic.graph.neighbors(u).sorted(), clean.graph.neighbors(u).sorted());
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
