//! The concurrent serving engine: epoch-swapped reads, a single writer.
//!
//! The paper's motivating deployment ("online news recommenders, in which
//! the use of fresh data is of utmost importance", §I) alternates two
//! activities: serving KNN queries from the freshest built graph, and
//! absorbing the interaction stream so the next graph is fresher still.
//! [`ServingEngine`] runs both concurrently:
//!
//! * **Readers** load the current [`ServingEpoch`] — an immutable bundle
//!   of dataset + graph + fingerprints + entry index — as one `Arc` clone
//!   under a brief read lock (two atomic operations; no lock is held while
//!   the query executes), then answer through the batched beam search of
//!   `cnc-query`, started in the query's own FastRandomHash clusters. Any
//!   number of threads query in parallel, and a query started on epoch
//!   `e` finishes on epoch `e` even if a swap happens mid-flight.
//! * **The writer** keeps the streaming inserts as a pending batch: their
//!   sorted, deduplicated profiles and, on a GoldFinger backend, their
//!   fingerprint rows. An insert is not placed in any graph; queries see
//!   no newcomer until the next publish. Every
//!   [`ServingConfig::rebuild_after`] inserts it rebuilds the graph
//!   **incrementally** on the sharded [`Runtime`] — the previous epoch's
//!   graph is patched row by row for the users the batch added
//!   (`cnc_core::build_plan`, stage 4), falling back to the full C²
//!   pipeline when that would not pay — on the live epoch's dataset and
//!   fingerprints followed by the batch's, which the published epoch's
//!   query kernels then share; then **atomically publishes** the new
//!   epoch.
//!
//! Epochs persist: [`ServingEngine::snapshot`] captures the current epoch
//! in the [`crate::Snapshot`] format and
//! [`ServingEngine::from_snapshot`] brings a server back up from disk,
//! answering queries identically to the engine that wrote it (locked by
//! `tests/serve.rs`).

use crate::snapshot::{Snapshot, SnapshotError};
use cnc_core::{BuildPlan, C2Config, ClusterCache, RebuildStats};
use cnc_dataset::{Dataset, DatasetBuilder, ItemId, UserId};
use cnc_faults::backoff_delay;
use cnc_graph::{EntryIndex, KnnGraph};
use cnc_query::{BeamSearchConfig, QueryIndex, QueryResult, Searcher};
use cnc_runtime::{IncrementalShardedResult, Runtime, RuntimeConfig};
use cnc_similarity::{GoldFinger, SimilarityBackend};
use cnc_telemetry::Telemetry;
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Everything the engine needs to build, serve and rebuild.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// The C² build configuration (backend, k, clustering knobs); used
    /// for the initial build and every epoch rebuild.
    pub c2: C2Config,
    /// The sharded runtime executing (re)builds.
    pub runtime: RuntimeConfig,
    /// Beam-search parameters for queries (inserts are not placed).
    pub beam: BeamSearchConfig,
    /// Rebuild and publish a new epoch after this many inserts
    /// (0 = only on explicit [`ServingEngine::publish`] calls).
    pub rebuild_after: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            c2: C2Config::default(),
            runtime: RuntimeConfig::default(),
            beam: BeamSearchConfig::default(),
            rebuild_after: 1024,
        }
    }
}

/// One query of a [`ServingEngine::query_batch`] call. The profile need
/// not be sorted.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// The query profile (normalized by the engine).
    pub profile: Vec<ItemId>,
    /// Neighbours to return.
    pub k: usize,
    /// The random-fill seed a single [`ServingEngine::query`] would get.
    pub seed: u64,
}

/// One immutable published serving state. Readers hold it by `Arc`, so a
/// swap never invalidates an in-flight query.
pub struct ServingEpoch {
    epoch: u64,
    dataset: Dataset,
    graph: KnnGraph,
    fingerprints: Option<Arc<GoldFinger>>,
    /// Routes a query profile to the clusters the epoch's build put such a
    /// user in; empty (random seeds) when the epoch's source carried none.
    entries: Arc<EntryIndex>,
    /// How the build that published this epoch split between reused and
    /// re-solved clusters (all-zero for epochs restored from parts or a
    /// snapshot, which carry no build record).
    rebuild: RebuildStats,
}

impl ServingEpoch {
    /// Bundles an epoch; the parts must agree on the user count.
    ///
    /// The graph is frozen into a flat CSR ([`KnnGraph::into_shared`]: a
    /// graph of owned rows is flattened, a CSR is kept). Every array of
    /// the parts is reference-counted storage, so every clone of an epoch
    /// part is O(1) — the next publish and [`ServingEngine::snapshot`]
    /// read the epoch in place.
    ///
    /// # Panics
    /// Panics on a user-count mismatch.
    pub fn new(
        epoch: u64,
        dataset: Dataset,
        graph: KnnGraph,
        fingerprints: Option<Arc<GoldFinger>>,
    ) -> Self {
        assert_eq!(dataset.num_users(), graph.num_users(), "graph/dataset user mismatch");
        if let Some(gf) = &fingerprints {
            assert_eq!(gf.num_users(), dataset.num_users(), "fingerprints must cover the dataset");
        }
        ServingEpoch {
            epoch,
            dataset,
            graph: graph.into_shared(),
            fingerprints,
            entries: Arc::default(),
            rebuild: RebuildStats::default(),
        }
    }

    /// Attaches the graph's entry index: the epoch's searches start in
    /// the clusters the query profile routes to.
    ///
    /// # Panics
    /// Panics if the index names users the epoch does not have.
    pub fn with_entries(mut self, entries: Arc<EntryIndex>) -> Self {
        assert!(
            entries.user_bound() <= self.dataset.num_users(),
            "entry index must be built on this epoch's users"
        );
        self.entries = entries;
        self
    }

    /// The epoch's sequence number (1 for the initial build).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The reuse figures of the incremental build that published this
    /// epoch: `clusters_total`, `clusters_resolved`, `reuse_ratio` and
    /// `rebuild_ms` (zeros when the epoch was loaded rather than built).
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.rebuild
    }

    /// Users served by this epoch.
    pub fn num_users(&self) -> usize {
        self.dataset.num_users()
    }

    /// The epoch's dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The epoch's graph.
    pub fn graph(&self) -> &KnnGraph {
        &self.graph
    }

    /// The epoch's fingerprints, when the backend uses them.
    pub fn fingerprints(&self) -> Option<&Arc<GoldFinger>> {
        self.fingerprints.as_ref()
    }

    /// The epoch's entry index (empty when its source carried none).
    pub fn entries(&self) -> &Arc<EntryIndex> {
        &self.entries
    }

    /// A query index over this epoch (fingerprint-scored when the epoch
    /// carries fingerprints, exact Jaccard otherwise), bound to the
    /// epoch's entry index.
    pub fn index(&self) -> QueryIndex<'_> {
        let index = match &self.fingerprints {
            Some(gf) => QueryIndex::with_goldfinger(&self.dataset, &self.graph, gf),
            None => QueryIndex::new(&self.dataset, &self.graph),
        };
        index.with_entries(&self.entries)
    }
}

/// Why an epoch publish did not happen: the incremental rebuild
/// panicked (a crashed solver, an injected fault, a genuine bug). The
/// engine absorbs the unwind — the last good epoch stays live, pending
/// inserts stay queued — and reports it as this typed value.
#[derive(Clone, Debug)]
pub struct RebuildFailure {
    /// What the rebuild panicked with.
    pub reason: String,
    /// Consecutive failed publish attempts, this one included.
    pub attempts: u32,
    /// Age of the still-live epoch at the time of the failure.
    pub staleness: Duration,
    /// How long insert-triggered publishes are deferred before retrying.
    pub retry_after: Duration,
}

impl fmt::Display for RebuildFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch rebuild failed ({}; attempt {}, epoch {}ms stale, retry in {}ms)",
            self.reason,
            self.attempts,
            self.staleness.as_millis(),
            self.retry_after.as_millis()
        )
    }
}

impl std::error::Error for RebuildFailure {}

/// First retry delay after a failed rebuild; doubles per consecutive
/// failure up to [`REBUILD_RETRY_CAP`], so a persistently failing build
/// cannot turn the insert path into a rebuild-retry loop.
const REBUILD_RETRY_BASE: Duration = Duration::from_millis(25);

/// Ceiling of the publish-retry backoff.
const REBUILD_RETRY_CAP: Duration = Duration::from_secs(2);

/// The deferral before the next insert-triggered publish retry after
/// `consecutive` straight failures.
fn rebuild_backoff(consecutive: u32) -> Duration {
    backoff_delay(consecutive.saturating_sub(1), REBUILD_RETRY_BASE, REBUILD_RETRY_CAP)
}

/// Renders a caught rebuild panic payload for [`RebuildFailure::reason`].
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<cnc_faults::InjectedPanic>() {
        return format!("injected fault at {} (key {})", injected.site.name(), injected.key);
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "opaque panic payload".into()
}

/// The result of one streaming insert, which joins the writer's pending
/// batch.
#[derive(Clone, Copy, Debug)]
pub struct InsertOutcome {
    /// The id the newcomer will have in the next published epoch: the
    /// live epoch's users, then the batch's in insert order.
    pub user: UserId,
    /// `Some(epoch)` when this insert triggered a rebuild and published
    /// that epoch.
    pub published: Option<u64>,
}

/// A point-in-time view of the engine's counters.
#[derive(Clone, Copy, Debug)]
pub struct ServingStats {
    /// Queries answered so far.
    pub queries: u64,
    /// Streaming inserts absorbed so far.
    pub inserts: u64,
    /// Epochs published after the initial one (i.e. swaps).
    pub epoch_swaps: u64,
    /// The current epoch's sequence number.
    pub epoch: u64,
    /// Users served by the current epoch.
    pub num_users: usize,
    /// Inserts absorbed but not yet published.
    pub pending_inserts: usize,
    /// Queries shed: always 0, the engine answers every query.
    pub shed: u64,
    /// Epoch rebuilds that failed and were absorbed (the last good epoch
    /// stayed live; see [`RebuildFailure`]).
    pub rebuild_failures: u64,
}

/// Per-client scratch (visited marks + batch buffers) reused across
/// queries and epoch swaps.
pub struct ServingSession {
    searcher: Searcher,
}

/// The writer side: the pending batch, plus the cluster cache the next
/// incremental rebuild patches. The pending count lives in an
/// engine-level atomic so monitoring never has to take this lock (a
/// rebuild holds it for the full build).
struct Writer {
    /// The inserts since the live epoch was published, as ids
    /// `epoch.num_users()..`: their sorted, deduplicated profiles.
    batch: DatasetBuilder,
    /// Their fingerprint rows, in the configured width and seed; `None`
    /// on the raw backend.
    rows: Option<GoldFinger>,
    /// Empty, or the memberships and graph of the build that published
    /// the live epoch (it shares that epoch's graph entries and entry
    /// index) — publishes replace both under this lock, adoption empties
    /// it.
    cache: ClusterCache,
    /// Consecutive failed publish attempts (reset on success); drives the
    /// retry backoff.
    failed_attempts: u32,
    /// Insert-triggered publishes are deferred until this instant after a
    /// failure (`None` = no deferral). Explicit [`ServingEngine::publish`]
    /// calls ignore it.
    retry_after: Option<Instant>,
    /// When the live epoch was published — the staleness reference a
    /// failed rebuild reports against.
    published_at: Instant,
}

/// A concurrent KNN serving engine (see the module docs).
pub struct ServingEngine {
    config: ServingConfig,
    current: RwLock<Arc<ServingEpoch>>,
    writer: Mutex<Writer>,
    queries: AtomicU64,
    inserts: AtomicU64,
    epoch_swaps: AtomicU64,
    /// Inserts absorbed but not yet published (written under the writer
    /// lock, read lock-free by [`ServingEngine::stats`]).
    pending: AtomicUsize,
    /// One [`RebuildStats`] per published epoch swap (the initial build is
    /// not a swap and is excluded), for the reuse trajectory `perf`
    /// reports. Bounded to [`REBUILD_HISTORY_CAP`] entries — a
    /// long-lived engine publishing every few seconds must not grow
    /// monitoring state without bound; the oldest swaps are dropped.
    rebuild_history: Mutex<std::collections::VecDeque<RebuildStats>>,
    /// Rebuilds that panicked and were absorbed (see [`RebuildFailure`]).
    rebuild_failures: AtomicU64,
}

/// Retained epoch-publish records (newest kept; see
/// [`ServingEngine::rebuild_history`]).
const REBUILD_HISTORY_CAP: usize = 1024;

impl ServingEngine {
    /// Builds the first epoch from `dataset` with the configured C²
    /// pipeline on the sharded runtime, fingerprinting once and sharing
    /// the build between construction and serving. The build's cluster
    /// memberships and graph seed the writer's [`ClusterCache`], so the
    /// first published epoch already rebuilds incrementally; the epoch
    /// routes queries through the same member arrays. An engine
    /// that publishes on its own (`rebuild_after > 0`) gives the epoch's
    /// dataset and fingerprints room past their end, so its publishes
    /// append the inserts in place instead of copying the epoch.
    ///
    /// # Panics
    /// Panics if the configurations are invalid (see [`Runtime::new`] and
    /// [`BeamSearchConfig::validate`]).
    pub fn build(dataset: Dataset, config: ServingConfig) -> Self {
        let fingerprints = match config.c2.backend {
            SimilarityBackend::GoldFinger { bits, seed } => {
                let threads = config.runtime.effective_workers();
                Some(Arc::new(match config.rebuild_after {
                    0 => GoldFinger::build_parallel(&dataset, bits, seed, threads),
                    _ => GoldFinger::build_growable(&dataset, bits, seed, threads),
                }))
            }
            SimilarityBackend::Raw => None,
        };
        // Room before the build: when the dataset has to move for it, the
        // build's working memory reuses the allocation it leaves.
        let dataset = dataset_room(&config, dataset);
        let empty = ClusterCache::new(&config.c2);
        let built = build_epoch(&dataset, fingerprints.as_ref(), &config, &empty);
        let entries = Arc::clone(built.cache.entries());
        let epoch = ServingEpoch::new(1, dataset, built.graph, fingerprints).with_entries(entries);
        Self::from_epoch(epoch, config, built.cache, built.rebuild)
    }

    /// Wraps an already-built state (the first epoch) without rebuilding
    /// the graph. The entry index is derived from `dataset` and
    /// `config.c2` — Step 1 of the build `graph` came from, re-run (the
    /// assignment is a pure function of the two). The writer's cluster
    /// cache starts empty, so the *first* published epoch builds from
    /// scratch and re-seeds the cache.
    ///
    /// # Panics
    /// Panics if the parts disagree on the user count, the fingerprints'
    /// presence does not match the configured backend, or the beam
    /// configuration is invalid for the graph's `k`.
    pub fn from_parts(
        dataset: Dataset,
        graph: KnnGraph,
        fingerprints: Option<Arc<GoldFinger>>,
        config: ServingConfig,
    ) -> Self {
        let entries = Arc::new(BuildPlan::assign(&config.c2, &dataset).entry_index());
        let dataset = dataset_room(&config, dataset);
        let fingerprints = fingerprint_room(&config, fingerprints);
        let epoch = ServingEpoch::new(1, dataset, graph, fingerprints).with_entries(entries);
        let cache = ClusterCache::new(&config.c2);
        Self::from_epoch(epoch, config, cache, RebuildStats::default())
    }

    fn from_epoch(
        mut epoch: ServingEpoch,
        config: ServingConfig,
        cache: ClusterCache,
        rebuild: RebuildStats,
    ) -> Self {
        if let Err(reason) = config.c2.backend.check_fingerprints(epoch.fingerprints.as_deref()) {
            panic!("{reason}");
        }
        epoch.rebuild = rebuild;
        let epoch = Arc::new(epoch);
        let writer = Writer {
            batch: DatasetBuilder::new(),
            rows: empty_rows(&config),
            cache,
            failed_attempts: 0,
            retry_after: None,
            published_at: Instant::now(),
        };
        ServingEngine {
            config,
            current: RwLock::new(epoch),
            writer: Mutex::new(writer),
            queries: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            epoch_swaps: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            rebuild_history: Mutex::new(std::collections::VecDeque::new()),
            rebuild_failures: AtomicU64::new(0),
        }
    }

    /// Brings an engine up from a persisted snapshot; it answers queries
    /// identically to the engine that wrote the snapshot. When the
    /// snapshot carries the builder's cluster cache (a file written by
    /// [`ServingEngine::write_snapshot`]), its token, the file's entry
    /// index and graph seed the writer's [`ClusterCache`], sharing the
    /// epoch's member arrays — the first publish after
    /// a restart patches that graph instead of rebuilding it (a cache
    /// persisted under a different configuration misses wholesale, by
    /// token).
    ///
    /// # Panics
    /// Panics if the snapshot's fingerprints don't match the configured
    /// backend (a mismatch would serve scores inconsistent with every
    /// future rebuild).
    pub fn from_snapshot(snapshot: Snapshot, config: ServingConfig) -> Self {
        let Snapshot { dataset, graph, goldfinger, cache, entries } = snapshot;
        let cache = cache.unwrap_or_else(|| ClusterCache::new(&config.c2));
        let dataset = dataset_room(&config, dataset);
        let fingerprints = fingerprint_room(&config, goldfinger.map(Arc::new));
        let epoch = ServingEpoch::new(1, dataset, graph, fingerprints)
            .with_entries(entries.unwrap_or_default());
        Self::from_epoch(epoch, config, cache, RebuildStats::default())
    }

    /// Persists the current epoch to `path` **atomically**, streaming
    /// straight from the epoch's buffers (no clone of the dataset, graph
    /// or fingerprint words — the footprint matters at serving scale);
    /// returns the encoded size. The epoch's entry index rides along, so
    /// whoever loads or maps the file seeds queries exactly as this engine
    /// does, and so does the writer's [`ClusterCache`] — its configuration
    /// token, over the graph and entry-index sections that hold the rest
    /// of it — so the engine that reloads this file rebuilds incrementally
    /// from the first publish. Pending (unpublished) inserts are not
    /// included — publish first if they must survive.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        // Epoch and cache are read under the writer lock, which every
        // publish and adoption holds: the memberships written are those
        // of the build that made the graph written.
        let (epoch, cache) = {
            let writer = self.writer_state();
            (self.current_epoch(), writer.cache.clone())
        };
        crate::snapshot::Parts {
            dataset: &epoch.dataset,
            graph: &epoch.graph,
            goldfinger: epoch.fingerprints.as_deref(),
            cache: Some(&cache),
            entries: Some(&epoch.entries),
        }
        .write(path.as_ref())
    }

    /// Captures the current epoch as a persistable [`Snapshot`], sharing
    /// the epoch's buffers (every clone is O(1)). Pending (unpublished)
    /// inserts are not included — publish first if they must survive.
    pub fn snapshot(&self) -> Snapshot {
        let epoch = self.current_epoch();
        let snapshot = Snapshot::new(
            epoch.dataset.clone(),
            epoch.graph.clone(),
            epoch.fingerprints.as_ref().map(|gf| (**gf).clone()),
        );
        if epoch.entries.is_empty() {
            snapshot
        } else {
            snapshot.with_entries(Arc::clone(&epoch.entries))
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// The epoch lock, recovering from poison: the pointer behind it is
    /// only ever replaced by a single store of a fully built epoch, so a
    /// thread that panicked while holding the lock cannot have left a
    /// partial one — poisoning carries no broken invariant here, and a
    /// serving engine must not let one crashed writer take down every
    /// reader.
    fn epoch_read(&self) -> RwLockReadGuard<'_, Arc<ServingEpoch>> {
        self.current.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write half of [`ServingEngine::epoch_read`], same poison policy.
    fn epoch_write(&self) -> RwLockWriteGuard<'_, Arc<ServingEpoch>> {
        self.current.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The writer lock, recovering from poison. [`Self::rebuild_locked`]
    /// mutates writer state only *after* a build succeeds (a panicking
    /// build leaves the pending batch, cache and pending count exactly as
    /// they were), so the state under a poisoned lock is always coherent.
    fn writer_state(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The rebuild-history lock, recovering from poison (the deque is
    /// only ever pushed/popped whole records).
    fn history_state(&self) -> MutexGuard<'_, std::collections::VecDeque<RebuildStats>> {
        self.rebuild_history.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The currently published epoch (readers may hold it as long as they
    /// like; swaps never invalidate it).
    pub fn current_epoch(&self) -> Arc<ServingEpoch> {
        Arc::clone(&self.epoch_read())
    }

    /// Hot-swaps the serving state to an externally produced snapshot —
    /// the adopter half of the snapshot-directory fleet protocol. The
    /// epoch sequence advances and readers move to the new state via the
    /// usual single `Arc` store; no build runs in this process, and when
    /// `adopted` borrows a mapped file ([`crate::mmap::AdoptedSnapshot`])
    /// no per-user work happens at all — the swap is O(1) in the user
    /// count. Pending (unpublished) inserts are discarded: an adopting
    /// replica serves, it does not build.
    ///
    /// # Panics
    /// Panics if the snapshot's fingerprints don't match the configured
    /// backend (same contract as [`ServingEngine::from_snapshot`]).
    pub fn adopt(&self, adopted: crate::mmap::AdoptedSnapshot) -> u64 {
        let crate::mmap::AdoptedSnapshot { dataset, graph, goldfinger, entries, .. } = adopted;
        let fingerprints = goldfinger.map(Arc::new);
        if let Err(reason) = self.config.c2.backend.check_fingerprints(fingerprints.as_deref()) {
            panic!("{reason}");
        }
        let mut writer = self.writer_state();
        let next = self.epoch_read().epoch() + 1;
        let epoch = Arc::new(
            ServingEpoch::new(next, dataset, graph, fingerprints)
                .with_entries(entries.unwrap_or_default()),
        );
        writer.batch = DatasetBuilder::new();
        writer.rows = empty_rows(&self.config);
        // The adopted graph came without the memberships of its build.
        writer.cache = ClusterCache::new(&self.config.c2);
        writer.failed_attempts = 0;
        writer.retry_after = None;
        writer.published_at = Instant::now();
        self.pending.store(0, Ordering::Relaxed);
        *self.epoch_write() = Arc::clone(&epoch);
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
        next
    }

    /// Allocates per-client scratch, reusable across queries and epoch
    /// swaps.
    pub fn session(&self) -> ServingSession {
        ServingSession { searcher: self.current_epoch().index().searcher() }
    }

    /// Answers one KNN query (allocating scratch internally; prefer
    /// [`ServingEngine::query_with`] on hot paths). The profile need not
    /// be sorted.
    pub fn query(&self, profile: &[ItemId], k: usize, seed: u64) -> QueryResult {
        let mut session = self.session();
        self.query_with(&mut session, profile, k, seed)
    }

    /// Answers one KNN query with per-client scratch, on the configured
    /// beam.
    pub fn query_with(
        &self,
        session: &mut ServingSession,
        profile: &[ItemId],
        k: usize,
        seed: u64,
    ) -> QueryResult {
        let mut query = profile.to_vec();
        query.sort_unstable();
        query.dedup();
        // Clone the Arc under the read lock, run the query outside it: a
        // concurrent publish proceeds without waiting for this query.
        let epoch = self.current_epoch();
        let result =
            epoch.index().search_with(&mut session.searcher, &query, k, &self.config.beam, seed);
        self.queries.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// [`ServingEngine::query_with`], which never fails; kept with this
    /// signature for existing callers.
    pub fn try_query_with(
        &self,
        session: &mut ServingSession,
        profile: &[ItemId],
        k: usize,
        seed: u64,
    ) -> Result<QueryResult, Infallible> {
        Ok(self.query_with(session, profile, k, seed))
    }

    /// Answers a batch of queries, one outcome per request, in order, one
    /// after another on one session. Each outcome equals
    /// [`ServingEngine::query_with`] with the same arguments and never
    /// fails.
    pub fn query_batch(&self, requests: &[BatchRequest]) -> Vec<Result<QueryResult, Infallible>> {
        let mut session = self.session();
        requests
            .iter()
            .map(|r| Ok(self.query_with(&mut session, &r.profile, r.k, r.seed)))
            .collect()
    }

    /// Absorbs one streaming insert: the profile (normalized) joins the
    /// writer's pending batch, with its fingerprint row on a GoldFinger
    /// backend; queries see it from the *next* epoch. Every
    /// [`ServingConfig::rebuild_after`] inserts the graph is rebuilt and
    /// the new epoch published atomically. `_seed` is accepted for source
    /// compatibility and ignored: no placement search runs, so there is no
    /// random fill to seed.
    ///
    /// Single-writer: concurrent inserts serialize on the writer lock;
    /// queries are never blocked.
    ///
    /// A rebuild that *fails* (panics) is absorbed: the last good epoch
    /// stays live, the pending inserts — this one included — stay queued
    /// for the next attempt, `published` is `None`, and further
    /// insert-triggered publishes are deferred by a capped exponential
    /// backoff (see [`RebuildFailure`]; explicit
    /// [`ServingEngine::publish`] calls retry immediately).
    pub fn insert(&self, mut profile: Vec<ItemId>, _seed: u64) -> InsertOutcome {
        profile.sort_unstable();
        profile.dedup();
        let mut writer = self.writer_state();
        let user = (self.epoch_read().num_users() + writer.batch.num_users()) as UserId;
        if let Some(rows) = &mut writer.rows {
            rows.push_user(&profile);
        }
        writer.batch.push_sorted_profile(&profile);
        let pending = self.pending.fetch_add(1, Ordering::Relaxed) + 1;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let due = self.config.rebuild_after > 0 && pending >= self.config.rebuild_after;
        let backing_off = writer.retry_after.is_some_and(|at| Instant::now() < at);
        let published =
            if due && !backing_off { self.rebuild_locked(&mut writer).ok() } else { None };
        InsertOutcome { user, published }
    }

    /// Rebuilds from the writer's current state and publishes the epoch
    /// now, regardless of the pending count; returns the new epoch's
    /// sequence number.
    ///
    /// # Panics
    /// Panics if the rebuild itself panics (use
    /// [`ServingEngine::try_publish`] to absorb the failure instead).
    pub fn publish(&self) -> u64 {
        self.try_publish().unwrap_or_else(|failure| panic!("{failure}"))
    }

    /// [`ServingEngine::publish`] with failures absorbed: on a rebuild
    /// panic the last good epoch stays live, pending inserts stay queued,
    /// and the typed [`RebuildFailure`] is returned. Retries immediately
    /// regardless of the insert path's backoff deferral (an explicit call
    /// is its own decision to retry), though it still advances the
    /// deferral on failure.
    pub fn try_publish(&self) -> Result<u64, RebuildFailure> {
        let mut writer = self.writer_state();
        self.rebuild_locked(&mut writer)
    }

    /// The engine's counters, in one consistent-enough view for
    /// monitoring. Every field is a relaxed atomic or the epoch pointer —
    /// this never takes the writer lock, so health checks don't stall
    /// behind an in-progress rebuild.
    pub fn stats(&self) -> ServingStats {
        let epoch = self.current_epoch();
        let pending = self.pending.load(Ordering::Relaxed);
        ServingStats {
            queries: self.queries.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            epoch_swaps: self.epoch_swaps.load(Ordering::Relaxed),
            epoch: epoch.epoch(),
            num_users: epoch.num_users(),
            pending_inserts: pending,
            shed: 0,
            rebuild_failures: self.rebuild_failures.load(Ordering::Relaxed),
        }
    }

    /// The reuse figures of the most recent epoch publishes (oldest
    /// first, at most the newest 1024 swaps retained; the initial build
    /// is not a swap). This is the source of the `perf` benchmark's
    /// `serve.reuse_ratio`.
    pub fn rebuild_history(&self) -> Vec<RebuildStats> {
        self.history_state().iter().copied().collect()
    }

    /// Incremental rebuild + epoch swap, with the writer lock held
    /// (single writer). The writer's [`ClusterCache`] holds the live
    /// epoch's graph and who shared a cluster when it was built; the
    /// rebuild copies that graph, computes only the pairs the stream's
    /// users made new (each newcomer against the clusters it joined) and
    /// recomputes the few rows that lost a neighbour to a restructured
    /// cluster — under 1 % of a from-scratch build's comparisons for a
    /// 256-insert batch at 70k users. When patching would not clearly pay
    /// (see `cnc_core::build_plan`) it builds from scratch instead; the
    /// epoch's [`RebuildStats`] and the `publish` span say which path ran
    /// and what it cost. Readers keep serving the old epoch until the
    /// single pointer store below.
    ///
    /// A build that panics is caught *before* any engine state changes:
    /// the writer's batch, cache and pending count are untouched
    /// (the build only read them), the epoch pointer never moves, and the
    /// failure is recorded ([`ServingStats::rebuild_failures`], the
    /// `publish` span's `failed` and `staleness_ms`) with a backoff
    /// deferral for the next insert-triggered retry. Readers can never observe a partial
    /// epoch: the only visible transition is the single `Arc` store on
    /// the success path.
    fn rebuild_locked(&self, writer: &mut Writer) -> Result<u64, RebuildFailure> {
        let mut span = Telemetry::global().span("publish");
        // The next epoch's dataset and fingerprints are the live epoch's
        // followed by the batch's, appended in place past the live epoch's
        // end: the two epochs share one allocation per array, and the
        // publish writes only the batch (see `dataset_room`). A buffer
        // without room, a mapped one, or one a failed attempt already
        // appended to is copied once, with room for the publishes after
        // it. An empty batch rebuilds straight off the live epoch's parts.
        // Fingerprints are per-user independent, so the batch's rows stand
        // in for re-hashing all `n` profiles.
        let live = self.current_epoch();
        let (dataset, fingerprints) = if writer.batch.num_users() == 0 {
            (live.dataset.clone(), live.fingerprints.clone())
        } else {
            let grown = live.fingerprints.as_ref().zip(writer.rows.as_ref());
            let grown = grown.map(|(gf, rows)| Arc::new(gf.appended(rows)));
            (live.dataset.appended(&writer.batch), grown)
        };
        let built = catch_unwind(AssertUnwindSafe(|| {
            build_epoch(&dataset, fingerprints.as_ref(), &self.config, &writer.cache)
        }));
        let built = match built {
            Ok(built) => built,
            Err(payload) => {
                writer.failed_attempts += 1;
                let retry_after = rebuild_backoff(writer.failed_attempts);
                writer.retry_after = Some(Instant::now() + retry_after);
                self.rebuild_failures.fetch_add(1, Ordering::Relaxed);
                let staleness = writer.published_at.elapsed();
                span.attr("failed", 1);
                span.attr("staleness_ms", staleness.as_millis() as u64);
                return Err(RebuildFailure {
                    reason: describe_panic(payload.as_ref()),
                    attempts: writer.failed_attempts,
                    staleness,
                    retry_after,
                });
            }
        };
        let next = self.epoch_read().epoch() + 1;
        let rebuild = built.rebuild;
        let mut epoch = ServingEpoch::new(next, dataset, built.graph, fingerprints)
            .with_entries(Arc::clone(built.cache.entries()));
        epoch.rebuild = rebuild;
        let epoch = Arc::new(epoch);
        writer.batch = DatasetBuilder::new();
        writer.rows = empty_rows(&self.config);
        writer.cache = built.cache;
        writer.failed_attempts = 0;
        writer.retry_after = None;
        writer.published_at = Instant::now();
        self.pending.store(0, Ordering::Relaxed);
        *self.epoch_write() = Arc::clone(&epoch);
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
        span.attr("epoch", next);
        span.attr("users", epoch.num_users() as u64);
        span.attr("clusters_resolved", rebuild.clusters_resolved as u64);
        span.attr("clusters_reused", rebuild.clusters_reused() as u64);
        span.attr("path", rebuild.path as u64);
        span.attr("rows_patched", rebuild.rows_patched as u64);
        span.attr("rows_recomputed", rebuild.rows_recomputed as u64);
        span.attr("comparisons", rebuild.comparisons);
        let mut history = self.history_state();
        if history.len() == REBUILD_HISTORY_CAP {
            history.pop_front();
        }
        history.push_back(rebuild);
        Ok(next)
    }
}

/// Gives the first epoch's dataset room to grow in place when the engine
/// publishes on its own (`rebuild_after > 0`). Each publish appends its
/// inserts to the live epoch's buffers ([`Dataset::appended`]), and with
/// room past their end it writes only the batch. The room holds one batch
/// of users as large as the largest profile, so a stream of users like
/// the existing ones fits; an array short of it grows to twice its
/// capacity, and a publish that still finds no room copies once the same
/// way. The batch is bounded by the users the dataset holds and the room
/// by its ratings: `rebuild_after` is a setting, and room past that is
/// the doubling copy's job. Making room may move an array, so an engine
/// that publishes only when told skips it and copies on its first publish.
fn dataset_room(config: &ServingConfig, dataset: Dataset) -> Dataset {
    let users = config.rebuild_after.min(dataset.num_users());
    if users == 0 {
        return dataset;
    }
    let widest = dataset.users().map(|u| dataset.profile_len(u)).max().unwrap_or(0);
    let ratings = users.saturating_mul(widest).min(dataset.num_ratings());
    dataset.into_growable(users, ratings)
}

/// [`dataset_room`] for the fingerprints: room for one batch of rows
/// ([`GoldFinger::appended`]). A set whose `Arc` has other holders is
/// kept as it is.
fn fingerprint_room(
    config: &ServingConfig,
    fingerprints: Option<Arc<GoldFinger>>,
) -> Option<Arc<GoldFinger>> {
    fingerprints.map(|gf| match Arc::try_unwrap(gf) {
        Ok(gf) => match config.rebuild_after.min(gf.num_users()) {
            0 => Arc::new(gf),
            users => Arc::new(gf.into_growable(users)),
        },
        Err(held) => held,
    })
}

/// One **incremental** C² build on the sharded runtime against `prev`,
/// on `fingerprints` — the dataset's, for a GoldFinger backend.
/// `rebuild.rebuild_ms` covers the whole call.
fn build_epoch(
    dataset: &Dataset,
    fingerprints: Option<&Arc<GoldFinger>>,
    config: &ServingConfig,
    prev: &ClusterCache,
) -> IncrementalShardedResult {
    let start = Instant::now();
    let runtime = Runtime::new(config.runtime);
    let mut result = match fingerprints {
        Some(gf) => runtime.execute_incremental_shared(dataset, &config.c2, Arc::clone(gf), prev),
        None => runtime.execute_incremental(dataset, &config.c2, prev, &[]),
    };
    result.rebuild.rebuild_ms = start.elapsed().as_secs_f64() * 1e3;
    result
}

/// An empty set of fingerprint rows in the configured backend's width
/// and seed — the writer's batch rows after a publish or adoption; `None`
/// on the raw backend.
fn empty_rows(config: &ServingConfig) -> Option<GoldFinger> {
    match config.c2.backend {
        SimilarityBackend::GoldFinger { bits, seed } => Some(
            GoldFinger::from_parts(Vec::new(), bits, seed)
                .expect("check_fingerprints matched the width to a fingerprint set's"),
        ),
        SimilarityBackend::Raw => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_dataset::SyntheticConfig;
    use cnc_faults::{silence_injected_panics, FaultPlan, Faults, Site};

    fn dataset(seed: u64) -> Dataset {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.num_users = 300;
        cfg.num_items = 250;
        cfg.communities = 6;
        cfg.mean_profile = 18.0;
        cfg.min_profile = 6;
        cfg.generate()
    }

    fn config(rebuild_after: usize) -> ServingConfig {
        ServingConfig {
            c2: C2Config {
                k: 8,
                backend: SimilarityBackend::GoldFinger { bits: 1024, seed: 5 },
                seed: 11,
                threads: 1,
                ..C2Config::default()
            },
            runtime: RuntimeConfig::with_workers(2),
            beam: BeamSearchConfig { beam_width: 24, entry_points: 5, max_comparisons: 0 },
            rebuild_after,
        }
    }

    #[test]
    fn queries_are_deterministic_and_counted() {
        let _calm = crate::no_faults();
        let ds = dataset(41);
        let engine = ServingEngine::build(ds.clone(), config(0));
        let query = ds.profile(10);
        let a = engine.query(query, 5, 7);
        let b = engine.query(query, 5, 7);
        assert_eq!(a.neighbors, b.neighbors);
        assert!(!a.neighbors.is_empty());
        assert!(a.comparisons > 0);
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.num_users, ds.num_users());
    }

    #[test]
    fn unsorted_query_profiles_are_normalized() {
        let _calm = crate::no_faults();
        let ds = dataset(43);
        let engine = ServingEngine::build(ds.clone(), config(0));
        let sorted = engine.query(&[3, 9, 40], 5, 1);
        let shuffled = engine.query(&[40, 3, 9, 3], 5, 1);
        assert_eq!(sorted.neighbors, shuffled.neighbors);
    }

    #[test]
    fn inserts_publish_after_the_configured_threshold() {
        let _calm = crate::no_faults();
        let ds = dataset(47);
        let n = ds.num_users();
        let engine = ServingEngine::build(ds.clone(), config(5));
        for i in 0..4u32 {
            let outcome = engine.insert(ds.profile(i * 7).to_vec(), i as u64);
            assert_eq!(outcome.published, None, "insert {i} must not publish yet");
        }
        let fifth = engine.insert(ds.profile(50).to_vec(), 99);
        assert_eq!(fifth.published, Some(2), "fifth insert must publish epoch 2");
        let stats = engine.stats();
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.epoch_swaps, 1);
        assert_eq!(stats.num_users, n + 5, "published epoch serves the absorbed users");
        assert_eq!(stats.pending_inserts, 0);
    }

    #[test]
    fn manual_publish_absorbs_pending_inserts() {
        let _calm = crate::no_faults();
        let ds = dataset(53);
        let engine = ServingEngine::build(ds.clone(), config(0));
        engine.insert(ds.profile(1).to_vec(), 1);
        engine.insert(ds.profile(2).to_vec(), 2);
        assert_eq!(engine.stats().pending_inserts, 2);
        assert_eq!(engine.publish(), 2);
        let stats = engine.stats();
        assert_eq!(stats.num_users, ds.num_users() + 2);
        assert_eq!(stats.pending_inserts, 0);
    }

    #[test]
    fn readers_keep_their_epoch_across_a_swap() {
        let _calm = crate::no_faults();
        let ds = dataset(59);
        let engine = ServingEngine::build(ds.clone(), config(0));
        let held = engine.current_epoch();
        engine.insert(ds.profile(0).to_vec(), 3);
        engine.publish();
        assert_eq!(held.epoch(), 1, "a held epoch must not change under a swap");
        assert_eq!(held.num_users(), ds.num_users());
        assert_eq!(engine.current_epoch().epoch(), 2);
    }

    #[test]
    fn raw_backend_serves_without_fingerprints() {
        let _calm = crate::no_faults();
        let ds = dataset(61);
        let mut cfg = config(0);
        cfg.c2.backend = SimilarityBackend::Raw;
        let engine = ServingEngine::build(ds.clone(), cfg);
        assert!(engine.current_epoch().fingerprints().is_none());
        let result = engine.query(ds.profile(5), 5, 2);
        assert!(!result.neighbors.is_empty());
        engine.insert(ds.profile(9).to_vec(), 1);
        assert_eq!(engine.publish(), 2);
    }

    #[test]
    #[should_panic(expected = "fingerprints must match the configured backend")]
    fn mismatched_snapshot_fingerprints_are_rejected() {
        let _calm = crate::no_faults();
        let ds = dataset(67);
        let engine = ServingEngine::build(ds, config(0));
        let snapshot = engine.snapshot();
        let mut other = config(0);
        other.c2.backend = SimilarityBackend::GoldFinger { bits: 1024, seed: 999 };
        ServingEngine::from_snapshot(snapshot, other);
    }

    #[test]
    fn epoch_publishes_carry_incremental_rebuild_stats() {
        let _calm = crate::no_faults();
        let ds = dataset(83);
        let engine = ServingEngine::build(ds.clone(), config(0));
        // The initial build resolves everything (empty cache) and is not
        // recorded as a swap.
        let initial = engine.current_epoch().rebuild_stats();
        assert!(initial.clusters_total > 0);
        assert_eq!(initial.clusters_resolved, initial.clusters_total);
        assert_eq!(initial.reuse_ratio, 0.0);
        assert!(engine.rebuild_history().is_empty());

        // A publish after a few inserts re-solves only the touched
        // clusters.
        for i in 0..3u32 {
            engine.insert(ds.profile(i * 11).to_vec(), i as u64);
        }
        engine.publish();
        let stats = engine.current_epoch().rebuild_stats();
        assert_eq!(stats.clusters_total, stats.clusters_resolved + stats.clusters_reused());
        assert!(
            stats.reuse_ratio > 0.5,
            "only {:.2} of {} clusters reused after 3 inserts",
            stats.reuse_ratio,
            stats.clusters_total
        );
        assert!(stats.rebuild_ms > 0.0);
        let history = engine.rebuild_history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].clusters_total, stats.clusters_total);

        // Publishing again with nothing pending reuses every cluster.
        engine.publish();
        assert_eq!(engine.current_epoch().rebuild_stats().reuse_ratio, 1.0);
        assert_eq!(engine.rebuild_history().len(), 2);
    }

    #[test]
    fn snapshot_restored_engines_rebuild_from_an_empty_cache() {
        let _calm = crate::no_faults();
        let ds = dataset(89);
        let engine = ServingEngine::build(ds.clone(), config(0));
        let restored = ServingEngine::from_snapshot(engine.snapshot(), config(0));
        assert_eq!(restored.current_epoch().rebuild_stats().clusters_total, 0);
        restored.insert(ds.profile(4).to_vec(), 1);
        restored.publish();
        // First publish re-seeds the cache (nothing to reuse) …
        let first = restored.current_epoch().rebuild_stats();
        assert_eq!(first.reuse_ratio, 0.0);
        assert!(first.clusters_total > 0);
        // … after which publishes are incremental again.
        restored.insert(ds.profile(9).to_vec(), 2);
        restored.publish();
        assert!(restored.current_epoch().rebuild_stats().reuse_ratio > 0.5);
    }

    /// True when the live epoch routes through the very member array the
    /// writer's cache remembers (one allocation, not two equal ones).
    fn shares_members(engine: &ServingEngine) -> bool {
        let writer = engine.writer_state();
        let members = engine.current_epoch().entries().members().as_ptr();
        !writer.cache.is_empty() && std::ptr::eq(writer.cache.entries().members().as_ptr(), members)
    }

    #[test]
    fn the_epoch_and_the_writers_cache_share_one_member_array() {
        let _calm = crate::no_faults();
        let ds = dataset(83);
        let engine = ServingEngine::build(ds.clone(), config(0));
        assert!(shares_members(&engine), "after build");
        engine.insert(ds.profile(5).to_vec(), 1);
        engine.publish();
        assert!(shares_members(&engine), "after publish");
        let dir = crate::snapshot::tests::fresh_dir("shared-members");
        engine.write_snapshot(dir.join("epoch.snap")).unwrap();
        let snapshot = Snapshot::load(dir.join("epoch.snap")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let restored = ServingEngine::from_snapshot(snapshot, config(0));
        assert!(shares_members(&restored), "after from_snapshot");
        restored.insert(ds.profile(6).to_vec(), 2);
        restored.publish();
        assert_eq!(restored.current_epoch().rebuild_stats().path, cnc_core::RebuildPath::Patched);
        assert!(shares_members(&restored), "after a restored engine's publish");
    }

    #[test]
    fn failed_rebuilds_keep_the_last_good_epoch_live() {
        let _serial = crate::fault_lock();
        silence_injected_panics();
        let ds = dataset(97);
        let engine = ServingEngine::build(ds.clone(), config(0));
        engine.insert(ds.profile(3).to_vec(), 1);
        let held = engine.current_epoch();

        // Span 12 swamps the engine's per-cluster retry budget, so every
        // publish attempt aborts with a typed payload until the schedule
        // drains; p = 1 makes every cluster a candidate.
        let _guard = Faults::global()
            .arm(FaultPlan::new(12345, 1.0).only(&[Site::SolveCluster]).with_span(12));
        let failure = engine.try_publish().unwrap_err();
        assert!(failure.reason.contains("solve.cluster"), "reason: {}", failure.reason);
        assert_eq!(failure.attempts, 1);

        // The last good epoch is still live and complete; the pending
        // insert survived for the next attempt.
        assert_eq!(engine.current_epoch().epoch(), 1);
        assert!(!engine.query(ds.profile(5), 5, 9).neighbors.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.rebuild_failures, 1);
        assert_eq!(stats.epoch_swaps, 0);
        assert_eq!(stats.pending_inserts, 1, "pending inserts must survive a failed rebuild");
        assert_eq!(held.epoch(), 1);

        // Each retry drains failure budget; a bounded loop must outlast
        // the schedule and publish the absorbed insert.
        let mut published = None;
        for _ in 0..64 {
            if let Ok(epoch) = engine.try_publish() {
                published = Some(epoch);
                break;
            }
        }
        assert_eq!(published, Some(2), "retries must eventually publish");
        let stats = engine.stats();
        assert_eq!(stats.pending_inserts, 0);
        assert_eq!(stats.num_users, ds.num_users() + 1);
        assert!(stats.rebuild_failures >= 1);
    }

    #[test]
    fn insert_triggered_retries_back_off_then_recover() {
        let _serial = crate::fault_lock();
        silence_injected_panics();
        let ds = dataset(101);
        let engine = ServingEngine::build(ds.clone(), config(1));
        let guard = Faults::global()
            .arm(FaultPlan::new(2024, 1.0).only(&[Site::SolveCluster]).with_span(12));

        // rebuild_after = 1: this insert triggers a publish, which fails
        // and is absorbed.
        let first = engine.insert(ds.profile(1).to_vec(), 1);
        assert_eq!(first.published, None);
        let failures = engine.stats().rebuild_failures;
        assert!(failures >= 1);
        assert_eq!(engine.current_epoch().epoch(), 1);

        // The immediate next insert lands inside the backoff window, so
        // no rebuild is even attempted.
        let second = engine.insert(ds.profile(2).to_vec(), 2);
        assert_eq!(second.published, None);
        assert_eq!(engine.stats().rebuild_failures, failures, "backoff must gate the retry");
        assert_eq!(engine.stats().pending_inserts, 2);

        // Chaos over; once the deferral lapses the next insert publishes
        // everything that queued up during the outage.
        drop(guard);
        std::thread::sleep(rebuild_backoff(failures.min(u32::MAX as u64) as u32));
        let third = engine.insert(ds.profile(3).to_vec(), 3);
        assert_eq!(third.published, Some(2));
        let stats = engine.stats();
        assert_eq!(stats.pending_inserts, 0);
        assert_eq!(stats.num_users, ds.num_users() + 3, "no insert may be lost to the outage");
    }

    /// The writer's pending batch, by value: its profiles and fingerprint
    /// words.
    fn batch_of(engine: &ServingEngine) -> (Vec<Vec<ItemId>>, Vec<u64>) {
        let writer = engine.writer_state();
        let batch = &writer.batch;
        let profiles = (0..batch.num_users()).map(|i| batch.profile(i).to_vec()).collect();
        (profiles, writer.rows.as_ref().expect("GoldFinger backend").words().to_vec())
    }

    #[test]
    fn the_writer_queues_a_pending_batch_and_leaves_the_live_epoch_alone() {
        let _serial = crate::fault_lock();
        silence_injected_panics();
        let ds = dataset(103);
        let n = ds.num_users();
        let engine = ServingEngine::build(ds.clone(), config(0));
        let live = engine.current_epoch();
        let gf = live.fingerprints().expect("GoldFinger backend");
        let before = (live.dataset().clone(), live.graph().clone(), gf.words().to_vec());

        // Some profiles unsorted, some with repeated items.
        let m = 12u32;
        let mut normalized = Vec::new();
        for i in 0..m {
            let mut profile = ds.profile(i * 23 % n as u32).to_vec();
            profile.push(240 + i % 7);
            if i % 3 == 1 {
                profile.reverse();
            }
            if i % 4 == 2 {
                profile.extend_from_within(..profile.len() / 2);
            }
            let outcome = engine.insert(profile.clone(), i as u64);
            assert_eq!(outcome.user, n as UserId + i, "ids continue the epoch's");
            assert_eq!(outcome.published, None);
            profile.sort_unstable();
            profile.dedup();
            normalized.push(profile);
        }

        // Nothing was written to the live epoch: it reads the arrays it read.
        assert!(std::ptr::eq(live.dataset().items(), before.0.items()));
        assert_eq!(live.dataset(), &before.0);
        for u in 0..n as UserId {
            assert!(std::ptr::eq(
                live.graph().neighbors(u).as_slice(),
                before.1.neighbors(u).as_slice()
            ));
        }
        assert_eq!(gf.words(), &before.2[..]);

        // The batch holds exactly the normalized profiles and their rows.
        let mut rows = GoldFinger::from_parts(Vec::new(), gf.bits(), gf.seed()).unwrap();
        for profile in &normalized {
            rows.push_user(profile);
        }
        let queued = batch_of(&engine);
        assert_eq!(queued, (normalized.clone(), rows.words().to_vec()));

        // A publish that panics leaves the batch and the pending count as
        // they were.
        let guard = Faults::global()
            .arm(FaultPlan::new(12345, 1.0).only(&[Site::SolveCluster]).with_span(12));
        assert!(engine.try_publish().is_err());
        assert_eq!(batch_of(&engine), queued);
        assert_eq!(engine.stats().pending_inserts, m as usize);
        drop(guard);

        // The next epoch is the live one followed by the inserts, and its
        // fingerprints are a fresh build of that dataset's.
        engine.publish();
        assert_eq!(batch_of(&engine), (vec![], vec![]), "the publish empties the batch");
        let published = engine.current_epoch();
        let mut grown: Vec<Vec<ItemId>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
        grown.extend(normalized);
        let grown = Dataset::from_profiles(grown, ds.num_items() as u32);
        assert_eq!(published.dataset(), &grown);
        assert_eq!(
            published.fingerprints().unwrap().words(),
            GoldFinger::build(&grown, gf.bits(), gf.seed()).words()
        );

        // Adoption empties the batch too.
        engine.insert(ds.profile(0).to_vec(), 0);
        assert_eq!(batch_of(&engine).0.len(), 1);
        let snapshot = engine.snapshot();
        engine.adopt(crate::mmap::AdoptedSnapshot {
            dataset: snapshot.dataset,
            graph: snapshot.graph,
            goldfinger: snapshot.goldfinger,
            entries: snapshot.entries,
            mapped: false,
        });
        assert_eq!(batch_of(&engine), (vec![], vec![]), "adoption empties the batch");
        assert_eq!(engine.stats().pending_inserts, 0);
    }

    #[test]
    fn rebuild_failures_preserve_genuine_panic_messages() {
        // Recovery must not anonymize real bugs: a non-injected payload
        // keeps its message, an injected one names its site.
        let genuine: Box<dyn std::any::Any + Send> = Box::new("genuine bug at cluster 7");
        assert_eq!(describe_panic(genuine.as_ref()), "genuine bug at cluster 7");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("kaput"));
        assert_eq!(describe_panic(owned.as_ref()), "kaput");
        let injected: Box<dyn std::any::Any + Send> =
            Box::new(cnc_faults::InjectedPanic { site: Site::SolveCluster, key: 3 });
        assert_eq!(describe_panic(injected.as_ref()), "injected fault at solve.cluster (key 3)");
        assert!(rebuild_backoff(1) < rebuild_backoff(2));
        assert_eq!(rebuild_backoff(30), REBUILD_RETRY_CAP);
    }

    #[test]
    fn sessions_survive_epoch_swaps() {
        let _calm = crate::no_faults();
        let ds = dataset(71);
        let engine = ServingEngine::build(ds.clone(), config(3));
        let mut session = engine.session();
        let before = engine.query_with(&mut session, ds.profile(4), 5, 9);
        for i in 0..3u32 {
            engine.insert(ds.profile(i).to_vec(), i as u64);
        }
        assert_eq!(engine.current_epoch().epoch(), 2);
        let after = engine.query_with(&mut session, ds.profile(4), 5, 9);
        assert!(!before.neighbors.is_empty() && !after.neighbors.is_empty());
        // Same profile, fresh scratch: the session must behave like a new
        // one on the new epoch.
        assert_eq!(after.neighbors, engine.query(ds.profile(4), 5, 9).neighbors);
    }
}
