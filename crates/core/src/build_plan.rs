//! The staged, change-tracking construction path: [`BuildPlan`] and
//! [`ClusterCache`].
//!
//! C²'s structural insight is that the KNN graph decomposes into
//! *independent* cluster solves (Algorithm 2: "The partial KNN graph of
//! each cluster … does not need to be synchronized with any other
//! computation"), merged per user by a bounded heap (Algorithm 3). With
//! the paper's parameters every cluster is solved by **brute force**
//! (`|C| < ρ·k²`), so a user's final list is simply the *top-k over
//! everyone it shares a cluster with* — and
//! `top-k(A ∪ B) = top-k(top-k(A) ∪ B)`. When the dataset changes only a
//! little between two builds — the serving loop's situation, where an
//! epoch absorbs a batch of streaming inserts — the previous build's
//! graph therefore already *is* the cache: each row is the top-k of the
//! old candidate set, and only candidates that are new to a row have to
//! be offered to it. The unit of incrementality is the **user row**, not
//! the cluster, and nothing per cluster is kept but who was in it.
//!
//! 1. **Assign** ([`BuildPlan::assign`]): Step 1 exactly as
//!    [`ClusterAndConquer::build`] runs it — deterministic clustering via
//!    `cluster_step`, per-cluster solver seeds via `job_seed`.
//! 2. **Fingerprint** ([`BuildPlan::fingerprint`]): each user's item set
//!    is digested ([`profile_digest`], FNV-1a over the sorted items), so
//!    the next two stages can tell an appended or edited user from an
//!    unchanged one.
//! 3. **Partition** ([`BuildPlan::partition`]): a cluster none of whose
//!    members is new or edited (their digests say) and whose exact member
//!    list the [`ClusterCache`] remembers is *reused* — every pair in it
//!    was offered to both its rows last time; the rest are *dirty*. The
//!    split is decided by equality alone.
//! 4. **Patch** ([`BuildPlan::patch`]): the members of each dirty cluster
//!    are grouped by the cluster they sat in under the same hash function
//!    last time (newcomers and edited users are singletons) and only the
//!    **cross-group pairs** are computed — for "an old cluster plus a few
//!    inserts" that is `inserts × |C|`, not `|C|²/2` — each offered to
//!    both rows of a [`SharedKnnGraph`] arena filled straight from the
//!    previous graph's rows (no other copy of it is made, and the arena
//!    freezes in place into the new graph). Then every retained user
//!    one of whose *current* neighbours no longer shares any cluster with
//!    it (a recursive split at `N`, Exception 2 pulling a formerly-alone
//!    user out of a remainder, an edited or vanished profile) has its row
//!    recomputed from its `t` clusters: a row that holds no such
//!    neighbour is still the top-k of candidates that are all still
//!    valid, so dropping the others cannot change it. Every other row is
//!    untouched. A dirty cluster whose members are all fresh has no
//!    previous rows to build on and is solved whole by Algorithm 2's
//!    dispatch ([`local::solve_cluster`]). The stage runs over the dirty
//!    clusters largest-first on the [`PriorityPool`] and row sweeps go
//!    through [`one_vs_many`]. It is the one solve loop of
//!    `ClusterAndConquer::{build, build_incremental}` and of
//!    `cnc-runtime`'s incremental builds: a one-shot build patches an
//!    empty cache. [`BuildPlan::finish`] then captures the plan's
//!    memberships and the graph as the next build's cache.
//!
//! The result is **bit-identical** to a from-scratch build as a set of
//! `(neighbour, similarity bits)` per user (locked by
//! `tests/incremental.rs`), for under 1 % of its comparisons on a
//! 256-user batch into 70k users when no cluster is restructured (3.3 %
//! when one crosses `N` and splits).
//!
//! **When the previous graph is not reused.** The choice of path is made
//! here, from exact counts known before the first similarity is computed
//! — in the spirit of Algorithm 2's own `ρ·k²` rule, and with no knob. A
//! cache the stage cannot use is treated as an empty one: every user is
//! fresh, so every cluster is dirty and solved whole, and the stage *is*
//! the from-scratch build ([`RebuildPath`] says why):
//!
//! * an empty cache, or one built under another configuration token;
//! * any cluster of the old *or* the new plan at or above
//!   [`C2Config::brute_force_threshold`]: Algorithm 2 solves it greedily,
//!   a greedy list is **not** the top-k of its candidates, and the
//!   identity above does not hold for the rows it fed;
//! * predicted patch + recompute pairs above [`C2Config::PATCH_MAX_PAIR_SHARE_PCT`]
//!   of the from-scratch `Σ|C|(|C|−1)/2` — a plan restructured that far
//!   is cheaper to rebuild (the constant's docs record the measured
//!   crossover).
//!
//! Correctness is never entrusted to a hash of a cluster: a reused cluster
//! equals its remembered member list entry for entry, clusters holding an
//! edited or appended user are dirty by construction, and which pairs are
//! owed is decided from the memberships themselves. What rests on 64 bits
//! is only the per-user digest that tells an edited profile from an
//! unchanged one (collision probability 2⁻⁶⁴ per edit).

use crate::clustering::Clustering;
use crate::config::C2Config;
use crate::distributed::cluster_cost;
use crate::frh::FastRandomHash;
use crate::pipeline::ClusterAndConquer;
use cnc_baselines::local;
use cnc_dataset::{Dataset, ItemId, UserId};
use cnc_graph::{EntryIndex, KnnGraph, Neighbor, NeighborList, SharedKnnGraph};
use cnc_similarity::kernel::{one_vs_many, pair_count, SimKernel, SimSolve};
use cnc_similarity::{SimilarityBackend, SimilarityData};
use cnc_telemetry::Telemetry;
use cnc_threadpool::{parallel_ranges, PriorityPool};
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a's initial value: the running hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the workspace's shared integrity-hash
/// primitive (profile digests and configuration tokens here, spill and
/// snapshot-path fault keys in `cnc-runtime` and `cnc-serve`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_bytes(FNV_OFFSET, bytes)
}

#[inline]
fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds a little-endian `u64` into a running FNV-1a hash; start the
/// fold from [`FNV_OFFSET`].
#[inline]
pub(crate) fn fnv1a_u64(hash: u64, value: u64) -> u64 {
    fnv1a_bytes(hash, &value.to_le_bytes())
}

/// FNV-1a digest of one user's item set (profiles are sorted, so the
/// digest is canonical). Changes iff the item set changes.
pub fn profile_digest(profile: &[ItemId]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &item in profile {
        hash = fnv1a_u64(hash, item as u64);
    }
    hash
}

/// A token identifying every configuration field that can change what a
/// cluster solve computes (backend, bounds, seeds, clustering knobs).
/// A [`ClusterCache`] built under one token is unusable under another —
/// the partition and patch stages treat it as empty.
pub fn config_token(config: &C2Config) -> u64 {
    let mut hash = FNV_OFFSET;
    for field in [
        config.k as u64,
        config.b as u64,
        config.t as u64,
        config.max_cluster_size as u64,
        config.rho as u64,
        config.delta.to_bits(),
        config.seed,
        match config.scheme {
            crate::config::ClusteringScheme::FastRandomHash => 0,
            crate::config::ClusteringScheme::MinHash => 1,
        },
        match config.backend {
            SimilarityBackend::Raw => 0,
            SimilarityBackend::GoldFinger { bits, seed } => {
                0x60_1DF1 ^ fnv1a_u64(fnv1a_u64(FNV_OFFSET, bits as u64), seed)
            }
        },
    ] {
        hash = fnv1a_u64(hash, field);
    }
    hash
}

/// What one build leaves for the next (module docs): the cluster
/// memberships of its plan — `t·n` ids, held as the plan's [`EntryIndex`],
/// the one record of its clusters, which the epoch serving the build's
/// graph routes queries through as well — the per-user item-set digests of
/// the dataset it ran on, and the merged graph itself (shared with the
/// build's caller, not copied: see [`KnnGraph::into_shared`]). A clone is
/// O(1) but for the digests.
#[derive(Clone, Debug)]
pub struct ClusterCache {
    config_token: u64,
    /// The remembered plan's clusters, in solve order.
    entries: Arc<EntryIndex>,
    /// [`profile_digest`] of every user of the dataset the graph was built on.
    digests: Vec<u64>,
    graph: KnnGraph,
}

impl ClusterCache {
    /// An empty cache bound to `config` (the first build under any cache
    /// runs from scratch and captures its state; a one-shot build patches
    /// one and captures nothing).
    pub fn new(config: &C2Config) -> Self {
        ClusterCache {
            config_token: config_token(config),
            entries: Arc::default(),
            digests: Vec::new(),
            graph: KnnGraph::new(0, config.k),
        }
    }

    /// Rebuilds a cache from a persisted configuration token and the entry
    /// index, dataset and graph persisted beside it (the snapshot loader's
    /// inverse of [`ClusterCache::config_token`] /
    /// [`entries`](ClusterCache::entries)). The token is stored verbatim,
    /// so a cache persisted under one configuration still misses wholesale
    /// under any other. The index's member arrays were checked by
    /// [`EntryIndex::from_storage`]; here only the parts are checked to
    /// cover the same users.
    pub fn from_parts(
        config_token: u64,
        entries: Arc<EntryIndex>,
        dataset: &Dataset,
        graph: KnnGraph,
    ) -> Result<Self, String> {
        let n = dataset.num_users();
        if graph.num_users() != n {
            return Err(format!("graph covers {} users, dataset {n}", graph.num_users()));
        }
        if entries.user_bound() > n {
            return Err(format!(
                "cluster member {} outside the {n} users",
                entries.user_bound() - 1
            ));
        }
        let digests = dataset.iter().map(|(_, profile)| profile_digest(profile)).collect();
        Ok(ClusterCache { config_token, entries, digests, graph: graph.into_shared() })
    }

    /// The configuration token the cache was built under.
    pub fn config_token(&self) -> u64 {
        self.config_token
    }

    /// Number of clusters in the remembered plan.
    pub fn len(&self) -> usize {
        self.entries.num_clusters()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Comparisons a from-scratch build of the remembered plan spends:
    /// `Σ |C|(|C|−1)/2` — exact whenever every cluster is brute-forced,
    /// the paper's regime and the only one the patch stage runs in.
    pub fn total_comparisons(&self) -> u64 {
        self.clusters().map(|users| pair_count(users.len())).sum()
    }

    /// Heap bytes the cache holds — memberships, digests and the graph.
    /// `tests/incremental.rs` bounds it by the graph plus `4·t·n`, so the
    /// cache cannot quietly grow back to `t` lists per user. The index's
    /// routing table is the query path's and is not counted.
    pub fn size_bytes(&self) -> usize {
        4 * (self.entries.offsets().len() + self.entries.members().len())
            + 8 * self.digests.len()
            + std::mem::size_of::<Neighbor>() * self.graph.num_edges()
            + 8 * (self.graph.num_users() + 1)
    }

    /// The remembered plan's clusters: the entry index of the build that
    /// captured the cache (empty for an empty cache).
    pub fn entries(&self) -> &Arc<EntryIndex> {
        &self.entries
    }

    /// The graph the remembered plan produced.
    pub fn graph(&self) -> &KnnGraph {
        &self.graph
    }

    /// The members of remembered cluster `index`, in solve order.
    fn cluster(&self, index: usize) -> &[UserId] {
        self.entries.cluster(index as u32)
    }

    /// Every remembered cluster, in plan order.
    fn clusters(&self) -> impl Iterator<Item = &[UserId]> {
        (0..self.len()).map(|index| self.cluster(index))
    }

    /// Recovery-path accounting check: a cache captured by a build that
    /// retried, re-queued or replayed failed cluster solves must be
    /// indistinguishable from a fault-free build's — one remembered
    /// cluster per cluster of the plan, and a dirty count within it.
    /// Chaos tests call this after every surviving build.
    pub fn check_accounting(&self, rebuild: &RebuildStats) -> Result<(), String> {
        if rebuild.clusters_total != self.len() || rebuild.clusters_resolved > self.len() {
            return Err(format!(
                "rebuild resolved {} of {} clusters but the cache holds {}",
                rebuild.clusters_resolved,
                rebuild.clusters_total,
                self.len()
            ));
        }
        Ok(())
    }
}

/// Marks "user sits in no cluster under this function".
const NO_CLUSTER: u32 = u32::MAX;

/// The inverse of a plan's cluster list: for every user, the cluster it
/// sits in under each of the `t` functions ([`NO_CLUSTER`] for users in
/// none), and for every cluster its function. Clusters are emitted
/// function by function and hold a user at most once per function, so a
/// user's `f`-th appearance *is* its function-`f` cluster;
/// [`Memberships::of`] returns `None` for a cluster list without that
/// shape (a malformed persisted cache).
struct Memberships {
    /// Function-major (`of[f·n + u]`): the build walks one function's
    /// clusters at a time, so its scattered writes stay inside `n` slots.
    of: Vec<u32>,
    n: usize,
    function: Vec<u32>,
}

impl Memberships {
    fn of<'a>(
        clusters: impl Iterator<Item = &'a [UserId]>,
        n: usize,
        t: usize,
    ) -> Option<Memberships> {
        let mut of = vec![NO_CLUSTER; n * t];
        let mut seen = vec![0u32; n];
        let mut function = Vec::new();
        for (index, users) in clusters.enumerate() {
            let f = seen.get(*users.first()? as usize).copied()?;
            if f as usize >= t {
                return None;
            }
            for &u in users {
                let slot = seen.get_mut(u as usize).filter(|slot| **slot == f)?;
                *slot += 1;
                of[f as usize * n + u as usize] = index as u32;
            }
            function.push(f);
        }
        seen.iter().all(|&s| s == 0 || s as usize == t).then_some(Memberships { of, n, function })
    }

    /// `u`'s function-`f` cluster.
    fn home(&self, u: UserId, f: usize) -> u32 {
        self.of[f * self.n + u as usize]
    }

    /// `u`'s cluster under each function, in function order.
    fn homes(&self, u: UserId) -> impl Iterator<Item = u32> + '_ {
        self.of[u as usize..].iter().step_by(self.n.max(1)).copied()
    }
}

/// Which path a rebuild took, and why (module docs, stage 4). Spans carry
/// it as its discriminant (0 = cold … 4 = patched).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RebuildPath {
    /// From scratch: the cache was empty (first build, restart without a
    /// persisted cache) or malformed.
    #[default]
    Cold,
    /// From scratch: the cache was built under another configuration.
    ConfigChanged,
    /// From scratch: some cluster of the old or the new plan is at or
    /// above `ρ·k²`, so Algorithm 2 solves it greedily and its lists are
    /// not the top-k of its members.
    GreedyCluster,
    /// From scratch: the plan was restructured so far that patching would
    /// cost more than [`C2Config::PATCH_MAX_PAIR_SHARE_PCT`] of a from-scratch build.
    PastCrossover,
    /// The previous graph was patched row by row.
    Patched,
}

/// What one rebuild did — the record `cnc-serve` publishes per epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct RebuildStats {
    /// Clusters in the build's clustering.
    pub clusters_total: usize,
    /// Clusters the cache does not remember as they are (dirty).
    pub clusters_resolved: usize,
    /// `1 - resolved/total`: the share of clusters reused.
    pub reuse_ratio: f64,
    /// Wall-clock of the rebuild, milliseconds.
    pub rebuild_ms: f64,
    /// The path the rebuild took.
    pub path: RebuildPath,
    /// Rows that were offered at least one cross-group pair (0 unless patched).
    pub rows_patched: usize,
    /// Rows recomputed from their `t` clusters (0 unless patched).
    pub rows_recomputed: usize,
    /// Similarities the rebuild computed (a from-scratch build of the same
    /// plan computes [`ClusterCache::total_comparisons`] of the cache it
    /// captured).
    pub comparisons: u64,
}

impl RebuildStats {
    /// Stats for a build that resolved `resolved` of `total` clusters in
    /// `rebuild_ms` milliseconds.
    pub fn new(total: usize, resolved: usize, rebuild_ms: f64) -> Self {
        let reuse_ratio = if total == 0 { 0.0 } else { 1.0 - resolved as f64 / total as f64 };
        RebuildStats {
            clusters_total: total,
            clusters_resolved: resolved,
            reuse_ratio,
            rebuild_ms,
            ..RebuildStats::default()
        }
    }

    /// Clusters the cache remembers as they are (reused).
    pub fn clusters_reused(&self) -> usize {
        self.clusters_total - self.clusters_resolved
    }
}

/// The partition stage 3 computes, as indices into the plan's cluster
/// list: the clusters whose content changed since the cached build, and
/// the clusters it remembers exactly.
pub struct PlanPartition {
    /// Clusters holding a new or edited user, or with no equal in the cache.
    pub dirty: Vec<usize>,
    /// Clusters whose members, order and item sets the cache remembers.
    pub reused: Vec<usize>,
}

/// What stage 4 hands back: the graph, bit-identical to a from-scratch
/// build's whichever path produced it, and the rebuild record so far
/// (`comparisons` and `rebuild_ms` are filled in by [`BuildPlan::finish`]).
pub struct Patch {
    /// The graph, bit-identical to a from-scratch build's.
    pub graph: KnnGraph,
    /// The dirty/reused split, the path taken and the row counts.
    pub rebuild: RebuildStats,
}

/// One dirty cluster's job in stage 4: its index, and the cross-group
/// sweep it owes — `None` when every member is fresh and the cluster is
/// solved whole.
type Job = (usize, Option<Box<PatchJob>>);

/// Stage 4's jobs, each with its priority: the pairs it computes, or its
/// predicted cost when solved whole.
type Jobs = Vec<(u64, Job)>;

/// What stage 4 owes on top of the jobs when it builds on a cache: the
/// rows to recompute, and the counts its record reports.
struct Reuse {
    now: Memberships,
    recompute: Vec<UserId>,
    rows_patched: usize,
    patch_pairs: u64,
    recompute_pairs: u64,
}

/// One dirty cluster's sweep: its members ordered by group, smallest
/// group first, so each member sweeps only the groups after its own and
/// every cross-group pair is computed exactly once — by its smaller side.
struct PatchJob {
    order: Vec<UserId>,
    /// End offset of each group in `order`.
    ends: Vec<u32>,
    /// The cross-group pairs, counted by the job that computes them.
    pairs: u64,
}

/// The sweep of one [`PatchJob`], monomorphized per kernel. A member's
/// own offers collect in a local list merged under one lock; offers to the
/// other side go straight to the rows, where most fall under the row's
/// floor and never lock.
struct CrossGroups<'a> {
    job: &'a PatchJob,
    rows: &'a SharedKnnGraph,
}

impl SimSolve for CrossGroups<'_> {
    type Output = ();

    fn run<K: SimKernel>(self, kernel: &K) {
        let PatchJob { order, ends, .. } = self.job;
        let mut start = 0usize;
        for &end in ends {
            let (end, rest) = (end as usize, &order[end as usize..]);
            for &u in &order[start..end] {
                let mut mine = NeighborList::new(self.rows.k());
                one_vs_many(kernel, u, rest, |v, sim| {
                    mine.insert(v, sim);
                    self.rows.insert(v, u, sim);
                });
                self.rows.merge_into(u, &mine);
            }
            start = end;
        }
    }
}

/// Rows recomputed from scratch: each user against every co-member of
/// each of its clusters.
struct RecomputeRows<'a> {
    users: &'a [UserId],
    plan: &'a BuildPlan,
    now: &'a Memberships,
    rows: &'a SharedKnnGraph,
}

impl SimSolve for RecomputeRows<'_> {
    type Output = ();

    fn run<K: SimKernel>(self, kernel: &K) {
        for &u in self.users {
            let mut row = NeighborList::new(self.rows.k());
            for cluster in self.now.homes(u).filter(|&cluster| cluster != NO_CLUSTER) {
                for side in self.plan.clusters()[cluster as usize].split(|&v| v == u) {
                    one_vs_many(kernel, u, side, |v, sim| {
                        row.insert(v, sim);
                    });
                }
            }
            self.rows.replace(u, row);
        }
    }
}

/// The staged construction plan (module docs): Step-1 assignment plus the
/// per-user profile digests an incremental build needs to tell what
/// changed since the previous one.
pub struct BuildPlan {
    config: C2Config,
    clustering: Clustering,
    /// Users of the dataset the plan was assigned on.
    users: usize,
    /// [`profile_digest`] per user (empty until [`BuildPlan::fingerprint`]).
    digests: Vec<u64>,
    seeds: Vec<u64>,
}

impl BuildPlan {
    /// **Stage 1** — assigns users to clusters, deterministically, exactly
    /// as [`ClusterAndConquer::build`] does (via `cluster_step`), and
    /// derives each cluster's solver seed (via `job_seed`).
    pub fn assign(config: &C2Config, dataset: &Dataset) -> BuildPlan {
        let mut span = Telemetry::global().span("build.assign");
        let clustering = ClusterAndConquer::new(*config).cluster_step(dataset);
        span.attr("clusters", clustering.clusters.len() as u64);
        span.attr("splits", clustering.splits as u64);
        let seeds = (0..clustering.clusters.len())
            .map(|index| ClusterAndConquer::job_seed(config, index))
            .collect();
        BuildPlan {
            config: *config,
            clustering,
            users: dataset.num_users(),
            digests: Vec::new(),
            seeds,
        }
    }

    /// **Stage 2** — digests every user's item set ([`profile_digest`]),
    /// once per user however many of the `t` clusterings it sits in.
    /// Idempotent.
    pub fn fingerprint(&mut self, dataset: &Dataset) {
        if self.digests.len() == dataset.num_users() {
            return;
        }
        let mut span = Telemetry::global().span("build.fingerprint");
        self.digests = dataset.iter().map(|(_, profile)| profile_digest(profile)).collect();
        span.attr("users", self.digests.len() as u64);
    }

    /// **Stage 3** — splits the clusters by equality: a cluster none of
    /// whose members is new or edited since `cache`'s build (their item-set
    /// digests say) and whose exact member list `cache` remembers is
    /// *reused*, the rest are *dirty*. A cache built under a different
    /// configuration token is treated as empty. `_force_dirty` is accepted
    /// for source compatibility and ignored: an edit cannot hide from its
    /// digest.
    ///
    /// # Panics
    /// Panics if [`BuildPlan::fingerprint`] has not run.
    pub fn partition(&self, cache: &ClusterCache, _force_dirty: &[UserId]) -> PlanPartition {
        self.assert_fingerprinted();
        self.split(cache, self.remembered(cache).as_ref())
    }

    fn assert_fingerprinted(&self) {
        assert_eq!(
            self.digests.len(),
            self.users,
            "fingerprint() must run before partition() and patch()"
        );
    }

    /// Per user: appended or edited since `cache`'s build. Such a user
    /// starts from an empty row and is a group of its own everywhere.
    fn fresh(&self, cache: &ClusterCache) -> Vec<bool> {
        (0..self.digests.len()).map(|u| cache.digests.get(u) != Some(&self.digests[u])).collect()
    }

    /// The inverse of `cache`'s cluster list — `None` for an empty cache,
    /// one of another configuration or one with a malformed (persisted)
    /// list.
    fn remembered(&self, cache: &ClusterCache) -> Option<Memberships> {
        (!cache.is_empty() && cache.config_token() == config_token(&self.config))
            .then(|| Memberships::of(cache.clusters(), cache.digests.len(), self.config.t))
            .flatten()
    }

    /// [`BuildPlan::partition`] given the cache's inverse. A reused cluster's
    /// first member is not fresh, so it sat in the remembered plan: one of
    /// its `t` clusters there is the candidate equality decides on.
    fn split(&self, cache: &ClusterCache, before: Option<&Memberships>) -> PlanPartition {
        let mut span = Telemetry::global().span("build.partition");
        let fresh = self.fresh(cache);
        let (mut dirty, mut reused) = (Vec::new(), Vec::new());
        for (index, users) in self.clustering.clusters.iter().enumerate() {
            let hit = before.is_some_and(|before| {
                !users.iter().any(|&u| fresh[u as usize])
                    && before
                        .homes(users[0])
                        .any(|old| old != NO_CLUSTER && cache.cluster(old as usize) == users)
            });
            if hit { &mut reused } else { &mut dirty }.push(index);
        }
        span.attr("dirty", dirty.len() as u64);
        span.attr("reused", reused.len() as u64);
        PlanPartition { dirty, reused }
    }

    /// **Stage 4** — builds this plan's graph from `prev`'s (module docs).
    /// Whether `prev`'s graph can be patched for clearly less than a
    /// from-scratch build is decided from counts known before the first
    /// similarity is computed; a cache the stage cannot use is treated as
    /// an empty one, every user fresh and every cluster solved whole —
    /// the from-scratch build. Appended users and edited or emptied
    /// profiles are found by their digests.
    ///
    /// The stage runs on `threads` workers, dirty clusters largest-first.
    /// `gate(cluster)` is called once per dirty cluster before its solve
    /// or sweep touches any row — the fault-injection seam (`cnc-runtime`
    /// arms its `solve.cluster` site there). A panic out of the gate or a
    /// job stops the stage and is re-raised, with its payload, on the
    /// calling thread; `prev` is only ever read.
    ///
    /// # Panics
    /// Panics if `prev` is not empty and [`BuildPlan::fingerprint`] has
    /// not run.
    pub fn patch(
        &self,
        sim: &SimilarityData<'_>,
        prev: &ClusterCache,
        threads: usize,
        gate: &(dyn Fn(usize) + Sync),
    ) -> Patch {
        if !prev.is_empty() {
            self.assert_fingerprinted();
        }
        let before = self.remembered(prev);
        let dirty = self.split(prev, before.as_ref()).dirty;
        let mut span = Telemetry::global().span("build.patch");
        let (n, k, config) = (self.users, self.config.k, &self.config);
        let mut rebuild = RebuildStats::new(self.clusters().len(), dirty.len(), 0.0);
        let (rows, jobs, reuse) = match self.reuse(prev, before, dirty) {
            Ok((rows, jobs, reuse)) => (rows, jobs, Some(reuse)),
            Err(path) => {
                // Every user fresh: every cluster solved whole, into
                // empty rows, and none of them reused.
                let total = rebuild.clusters_total;
                rebuild = RebuildStats { path, ..RebuildStats::new(total, total, 0.0) };
                let cost = |users: &Vec<UserId>| cluster_cost(users.len(), k, config.rho);
                let clusters = self.clusters().iter().enumerate();
                let jobs = clusters.map(|(index, users)| (cost(users), (index, None))).collect();
                (SharedKnnGraph::new(n, k), jobs, None)
            }
        };

        PriorityPool::run(threads, jobs, |(cluster, sweep): Job| {
            gate(cluster);
            match sweep {
                // Algorithm 2: brute force below the ρ·k² crossover, Hyrec
                // above, writing the rows directly.
                None => local::solve_cluster(
                    &self.clusters()[cluster],
                    sim,
                    &rows,
                    config.brute_force_threshold(),
                    config.rho,
                    config.delta,
                    self.seed(cluster),
                ),
                Some(sweep) => {
                    sim.solve_global(CrossGroups { job: &sweep, rows: &rows });
                    sim.add_comparisons(sweep.pairs);
                }
            }
        });
        if let Some(reuse) = reuse {
            parallel_ranges(threads, reuse.recompute.len(), 16, |range| {
                sim.solve_global(RecomputeRows {
                    users: &reuse.recompute[range],
                    plan: self,
                    now: &reuse.now,
                    rows: &rows,
                });
            });
            sim.add_comparisons(reuse.recompute_pairs);
            rebuild = RebuildStats {
                path: RebuildPath::Patched,
                rows_patched: reuse.rows_patched,
                rows_recomputed: reuse.recompute.len(),
                comparisons: reuse.patch_pairs + reuse.recompute_pairs,
                ..rebuild
            };
        }
        span.attr("path", rebuild.path as u64);
        span.attr("dirty", rebuild.clusters_resolved as u64);
        span.attr("rows_patched", rebuild.rows_patched as u64);
        span.attr("rows_recomputed", rebuild.rows_recomputed as u64);
        span.attr("comparisons", rebuild.comparisons);
        Patch { graph: rows.into_graph(), rebuild }
    }

    /// What stage 4 can build on `prev` — the working rows, filled straight
    /// from its graph, the jobs of the dirty clusters and the rest it owes
    /// — or, from exact counts before the first similarity is computed,
    /// the [`RebuildPath`] saying why it can use none of it.
    fn reuse(
        &self,
        prev: &ClusterCache,
        before: Option<Memberships>,
        dirty: Vec<usize>,
    ) -> Result<(SharedKnnGraph, Jobs, Reuse), RebuildPath> {
        let clusters = self.clusters();
        let (n, t, k) = (self.users, self.config.t, self.config.k);
        if prev.config_token() != config_token(&self.config) {
            return Err(RebuildPath::ConfigChanged);
        }
        if prev.is_empty() || prev.graph.k() != k {
            return Err(RebuildPath::Cold);
        }
        let largest =
            clusters.iter().map(Vec::as_slice).chain(prev.clusters()).map(<[_]>::len).max();
        if largest.unwrap_or(0) >= self.config.brute_force_threshold() {
            return Err(RebuildPath::GreedyCluster);
        }
        let (Some(now), Some(before)) =
            (Memberships::of(clusters.iter().map(Vec::as_slice), n, t), before)
        else {
            return Err(RebuildPath::Cold);
        };
        let fresh = self.fresh(prev);
        let kept = |u: UserId| (u as usize) < n && !fresh[u as usize];

        // Rows to recompute. A remembered cluster is *intact* if all its
        // members are kept and still share one cluster under its function;
        // a user all of whose old clusters are intact has lost no
        // co-member, so its old row is still a top-k of valid candidates.
        // Everyone else is checked neighbour by neighbour.
        let mut suspect = vec![false; n];
        for (users, &f) in prev.clusters().zip(&before.function) {
            let home = |u: UserId| now.home(u, f as usize);
            let intact = kept(users[0])
                && home(users[0]) != NO_CLUSTER
                && users.iter().all(|&u| kept(u) && home(u) == home(users[0]));
            if !intact {
                for &u in users.iter().filter(|&&u| kept(u)) {
                    suspect[u as usize] = true;
                }
            }
        }
        let together = |u: UserId, v: UserId| {
            now.homes(u).zip(now.homes(v)).any(|(a, b)| a == b && a != NO_CLUSTER)
        };
        let recompute: Vec<UserId> = (0..n as UserId)
            .filter(|&u| {
                suspect[u as usize]
                    && prev
                        .graph
                        .neighbors(u)
                        .iter()
                        .any(|nb| !kept(nb.user) || !together(u, nb.user))
            })
            .collect();
        let recompute_pairs: u64 = recompute
            .iter()
            .flat_map(|&u| now.homes(u))
            .filter(|&cluster| cluster != NO_CLUSTER)
            .map(|cluster| clusters[cluster as usize].len() as u64 - 1)
            .sum();

        // Cross-group pairs of the dirty clusters: members grouped by the
        // cluster they sat in under the same function last time.
        let mut jobs = Jobs::new();
        let mut patched = vec![false; n];
        let mut patch_pairs = 0u64;
        for cluster in dirty {
            let users = &clusters[cluster];
            let f = now.function[cluster] as usize;
            let mut keyed: Vec<(u64, UserId)> = users
                .iter()
                .enumerate()
                .map(|(at, &u)| match kept(u).then(|| before.home(u, f)) {
                    Some(old) if old != NO_CLUSTER => (old as u64, u),
                    _ => (1 << 32 | at as u64, u),
                })
                .collect();
            keyed.sort_unstable();
            let mut groups: Vec<&[(u64, UserId)]> = keyed.chunk_by(|a, b| a.0 == b.0).collect();
            if groups.len() < 2 {
                continue;
            }
            for &u in users {
                patched[u as usize] = true;
            }
            if !users.iter().any(|&u| kept(u)) {
                // Every pair is owed and there is no row to build on.
                let pairs = pair_count(users.len());
                patch_pairs += pairs;
                jobs.push((pairs, (cluster, None)));
                continue;
            }
            groups.sort_by_key(|group| group.len());
            let within: u64 = groups.iter().map(|group| pair_count(group.len())).sum();
            let pairs = pair_count(keyed.len()) - within;
            let mut job =
                PatchJob { order: Vec::with_capacity(keyed.len()), ends: Vec::new(), pairs };
            for group in &groups[..groups.len() - 1] {
                job.order.extend(group.iter().map(|&(_, u)| u));
                job.ends.push(job.order.len() as u32);
            }
            job.order.extend(groups[groups.len() - 1].iter().map(|&(_, u)| u));
            patch_pairs += pairs;
            jobs.push((pairs, (cluster, Some(Box::new(job)))));
        }

        let full: u64 = clusters.iter().map(|users| pair_count(users.len())).sum();
        if (patch_pairs + recompute_pairs) * 100 > full * C2Config::PATCH_MAX_PAIR_SHARE_PCT {
            return Err(RebuildPath::PastCrossover);
        }

        // The working graph, filled straight from the cache's rows: kept
        // rows of the previous graph, empty rows for fresh users.
        let rows = SharedKnnGraph::from_rows(n, k, |u| {
            if kept(u) {
                prev.graph.neighbors(u).as_slice()
            } else {
                &[]
            }
        });
        let rows_patched = patched.iter().filter(|&&p| p).count();
        Ok((rows, jobs, Reuse { now, recompute, rows_patched, patch_pairs, recompute_pairs }))
    }

    /// Closes an incremental build, whichever path it took: freezes
    /// `graph` ([`KnnGraph::into_shared`]), captures this plan's
    /// memberships beside it as the next build's cache — flattened once,
    /// into the plan's [`EntryIndex`], which the cache and whoever serves
    /// the graph share ([`ClusterCache::entries`]) — and completes the
    /// rebuild record with the `comparisons` the build computed and the
    /// wall-clock since `start`. Returns the graph for the caller, sharing
    /// its entries with the cache.
    pub fn finish(
        &self,
        graph: KnnGraph,
        rebuild: RebuildStats,
        comparisons: u64,
        start: Instant,
    ) -> (KnnGraph, ClusterCache, RebuildStats) {
        let graph = graph.into_shared();
        let cache = ClusterCache {
            config_token: config_token(&self.config),
            entries: Arc::new(self.entry_index()),
            digests: self.digests.clone(),
            graph: graph.clone(),
        };
        let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;
        (graph, cache, RebuildStats { comparisons, rebuild_ms, ..rebuild })
    }

    /// The clusters, in Step-1 emission order (solver-visible order).
    pub fn clusters(&self) -> &[Vec<UserId>] {
        &self.clustering.clusters
    }

    /// Recursive splits Step 1 performed.
    pub fn splits(&self) -> usize {
        self.clustering.splits
    }

    /// The [`EntryIndex`] of this assignment: the split tree Step 1 walked,
    /// frozen over its clusters, so a query profile can be routed to the
    /// clusters an in-sample user with that profile was put in. Costs one
    /// copy of the member lists, no hashing. Under the MinHash scheme,
    /// which records no tree, it routes nowhere but holds the clusters.
    pub fn entry_index(&self) -> EntryIndex {
        let functions = FastRandomHash::family(self.config.seed, self.config.t, self.config.b);
        self.clustering.entry_index(&functions)
    }

    /// The greedy solver seed of cluster `index`.
    pub fn seed(&self, index: usize) -> u64 {
        self.seeds[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_dataset::SyntheticConfig;

    fn dataset() -> Dataset {
        let mut cfg = SyntheticConfig::small(303);
        cfg.num_users = 200;
        cfg.num_items = 150;
        cfg.generate()
    }

    fn config() -> C2Config {
        C2Config { k: 6, b: 32, t: 2, threads: 1, ..C2Config::default() }
    }

    #[test]
    fn profile_digest_tracks_the_item_set() {
        assert_eq!(profile_digest(&[1, 2, 3]), profile_digest(&[1, 2, 3]));
        assert_ne!(profile_digest(&[1, 2, 3]), profile_digest(&[1, 2]));
        assert_ne!(profile_digest(&[1, 2, 3]), profile_digest(&[1, 2, 4]));
        assert_ne!(profile_digest(&[]), profile_digest(&[0]));
    }

    #[test]
    fn config_token_separates_relevant_fields() {
        let base = config();
        assert_eq!(config_token(&base), config_token(&base));
        // Threads never change results — same token.
        assert_eq!(config_token(&base), config_token(&C2Config { threads: 4, ..base }));
        for changed in [
            C2Config { k: 7, ..base },
            C2Config { seed: base.seed + 1, ..base },
            C2Config { t: 3, ..base },
            C2Config { backend: SimilarityBackend::Raw, ..base },
        ] {
            assert_ne!(config_token(&base), config_token(&changed));
        }
    }

    /// `cache` with its stored member array replaced by `members`.
    fn with_members(cache: &ClusterCache, members: Vec<UserId>, ds: &Dataset) -> ClusterCache {
        let e = cache.entries();
        let (keys, targets) = (e.keys().to_vec().into(), e.targets().to_vec().into());
        let n = ds.num_users();
        let entries = EntryIndex::from_storage(
            e.b(),
            e.seeds().to_vec(),
            keys,
            targets,
            e.offsets().to_vec().into(),
            members.into(),
            n,
        )
        .unwrap();
        ClusterCache::from_parts(cache.config_token(), Arc::new(entries), ds, cache.graph().clone())
            .unwrap()
    }

    #[test]
    fn from_parts_checks_that_the_parts_cover_the_same_users() {
        let ds = Dataset::from_profiles(vec![vec![1]; 3], 0);
        let tree = cnc_graph::SplitTree::default();
        let index = |clusters: &[Vec<UserId>]| Arc::new(EntryIndex::build(1, &[], &tree, clusters));
        let parts = |entries, graph| ClusterCache::from_parts(0, entries, &ds, graph);
        let cache = parts(index(&[vec![0, 1], vec![2]]), KnnGraph::new(3, 4)).unwrap();
        assert_eq!((cache.len(), cache.total_comparisons()), (2, 1));
        assert_eq!(cache.cluster(1), &[2]);
        assert!(parts(index(&[vec![0, 3]]), KnnGraph::new(3, 4)).is_err(), "member outside");
        assert!(parts(index(&[vec![0, 1]]), KnnGraph::new(2, 4)).is_err(), "graph size");
    }

    #[test]
    fn memberships_invert_function_by_function_or_refuse() {
        let clusters: [&[UserId]; 4] = [&[0, 1], &[2], &[1, 2], &[0]];
        let inverse = Memberships::of(clusters.into_iter(), 4, 2).unwrap();
        assert_eq!(inverse.function, vec![0, 0, 1, 1]);
        assert_eq!(inverse.of, vec![0, 0, 1, NO_CLUSTER, 3, 2, 2, NO_CLUSTER]);
        assert_eq!(inverse.homes(2).collect::<Vec<_>>(), vec![1, 2]);
        // A user once too often, a user missing from a function, members
        // from different functions in one cluster, an id out of range.
        let bad: [&[&[UserId]]; 4] =
            [&[&[0], &[0], &[0]], &[&[0, 1], &[0]], &[&[0], &[0, 1], &[1]], &[&[0, 7], &[0, 7]]];
        for clusters in bad {
            assert!(Memberships::of(clusters.iter().copied(), 4, 2).is_none(), "{clusters:?}");
        }
    }

    #[test]
    fn plan_stages_partition_everything_dirty_on_an_empty_cache() {
        let ds = dataset();
        let cfg = config();
        let mut plan = BuildPlan::assign(&cfg, &ds);
        plan.fingerprint(&ds);
        let cache = ClusterCache::new(&cfg);
        let part = plan.partition(&cache, &[]);
        assert_eq!(part.dirty.len(), plan.clusters().len());
        assert!(part.reused.is_empty());
    }

    #[test]
    fn identical_rebuild_reuses_every_cluster() {
        let ds = dataset();
        let cfg = config();
        let mut plan = BuildPlan::assign(&cfg, &ds);
        plan.fingerprint(&ds);
        let graph = KnnGraph::new(ds.num_users(), cfg.k);
        let (_, cache, _) = plan.finish(graph, RebuildStats::default(), 0, Instant::now());
        assert_eq!(cache.len(), plan.clusters().len());
        let mut replan = BuildPlan::assign(&cfg, &ds);
        replan.fingerprint(&ds);
        let part = replan.partition(&cache, &[]);
        assert!(part.dirty.is_empty(), "{} clusters unexpectedly dirty", part.dirty.len());
        assert_eq!(part.reused.len(), replan.clusters().len());

        // Equality is exact: the same members in another order are not
        // the remembered cluster.
        let victim = plan.clusters().iter().position(|users| users.len() > 1).unwrap();
        let mut members = cache.entries().members().to_vec();
        let at = cache.entries().offsets()[victim] as usize;
        members.swap(at, at + 1);
        let reordered = with_members(&cache, members, &ds);
        assert_eq!(replan.partition(&reordered, &[]).dirty, vec![victim]);

        // An edited profile dirties exactly the clusters that hold it.
        let edited = plan.clusters()[0][0];
        let mut profiles: Vec<Vec<u32>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
        profiles[edited as usize].pop();
        let ds2 = Dataset::from_profiles(profiles, ds.num_items() as u32);
        let mut plan2 = BuildPlan::assign(&cfg, &ds2);
        plan2.fingerprint(&ds2);
        let part2 = plan2.partition(&cache, &[]);
        assert!(!part2.dirty.is_empty());
        for (index, users) in plan2.clusters().iter().enumerate() {
            assert!(!(users.contains(&edited) && part2.reused.contains(&index)));
        }

        // A cache from another configuration is ignored wholesale.
        let other = ClusterCache::new(&C2Config { seed: cfg.seed + 1, ..cfg });
        let missed = replan.partition(&other, &[]);
        assert_eq!(missed.dirty.len(), replan.clusters().len());
    }

    #[test]
    fn rebuild_stats_ratio() {
        let stats = RebuildStats::new(10, 3, 2.5);
        assert_eq!(stats.clusters_reused(), 7);
        assert!((stats.reuse_ratio - 0.7).abs() < 1e-12);
        assert_eq!(RebuildStats::new(0, 0, 0.0).reuse_ratio, 0.0);
    }
}
