//! The staged, dirty-tracking construction path: [`BuildPlan`] and
//! [`ClusterCache`].
//!
//! C²'s structural insight is that the KNN graph decomposes into
//! *independent* cluster solves (Algorithm 2: "The partial KNN graph of
//! each cluster … does not need to be synchronized with any other
//! computation"). A consequence the monolithic `build` entry points threw
//! away: when the dataset changes only a little between two builds — the
//! serving loop's situation, where an epoch absorbs a batch of streaming
//! inserts — most clusters are *byte-for-byte the same input* as last
//! time, so re-solving them re-derives partial lists that are already
//! known. This module makes the construction path explicit enough to skip
//! that work:
//!
//! 1. **Assign** ([`BuildPlan::assign`]): Step 1 exactly as
//!    [`ClusterAndConquer::build`] runs it — deterministic clustering via
//!    `cluster_step`, per-cluster solver seeds via `job_seed`.
//! 2. **Fingerprint** ([`BuildPlan::fingerprint`]): each cluster's
//!    membership is content-hashed — FNV-1a over the *sorted* member ids
//!    interleaved with per-user item-set digests (the snapshot checksum
//!    idiom of `cnc-serve`). The hash changes iff the membership or any
//!    member's item set changes, and is invariant under member reordering.
//! 3. **Partition** ([`BuildPlan::partition`]): clusters whose hash (and
//!    verified membership, and — for seed-sensitive greedy solves — solver
//!    seed) matches a [`ClusterCache`] entry are *reused*; the rest are
//!    *dirty* and must be solved.
//! 4. **Merge**: cached and fresh [`ClusterSolution`]s are merged into the
//!    graph by the executor (the in-process pipeline's `PriorityPool`, or
//!    `cnc-runtime`'s sharded reducers) — Algorithm 3's bounded-heap merge
//!    is order-independent, so the mixture is **bit-identical** to a
//!    from-scratch build (locked by `tests/incremental.rs`).
//!
//! Correctness is never entrusted to the hash alone: a lookup additionally
//! verifies the stored member list against the cluster's, so a 64-bit
//! collision between *different memberships* cannot smuggle a stale
//! solution into the graph. Item-set drift within an unchanged membership
//! is covered by the digests folded into the hash (collision probability
//! 2⁻⁶⁴ per cluster) — and never arises in the serving loop, where
//! existing profiles are immutable and inserted users are force-dirtied.

use crate::clustering::Clustering;
use crate::config::C2Config;
use crate::frh::FastRandomHash;
use crate::pipeline::ClusterAndConquer;
use cnc_dataset::{Dataset, ItemId, UserId};
use cnc_graph::{EntryIndex, NeighborList};
use cnc_similarity::SimilarityBackend;
use cnc_telemetry::Telemetry;
use std::collections::HashMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the workspace's shared integrity-hash
/// primitive (cluster content hashes here, snapshot section checksums in
/// `cnc-serve`).
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

/// Folds a little-endian `u64` into a running FNV-1a hash.
#[inline]
fn fnv1a_u64(hash: u64, value: u64) -> u64 {
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

/// Content hash of one cluster: FNV-1a over `(member id, item-set digest)`
/// pairs in *sorted member order*, prefixed with the member count.
///
/// Invariant under member reordering; changes (w.h.p.) iff the membership
/// or any member's item set changes. `digests[u]` must hold
/// [`profile_digest`] of user `u`'s profile.
pub fn cluster_hash(users: &[UserId], digests: &[u64]) -> u64 {
    let mut sorted: Vec<UserId> = users.to_vec();
    sorted.sort_unstable();
    let mut hash = fnv1a_u64(FNV_OFFSET, sorted.len() as u64);
    for &u in &sorted {
        hash = fnv1a_u64(hash, u as u64);
        hash = fnv1a_u64(hash, digests[u as usize]);
    }
    hash
}

/// A token identifying every configuration field that can change what a
/// cluster solve computes (backend, bounds, seeds, clustering knobs).
/// A [`ClusterCache`] built under one token is unusable under another —
/// the lookup path treats it as empty.
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

/// One solved cluster, keyed for reuse across builds: the content hash,
/// the exact member list (in solve order, positionally aligned with
/// `lists`), the greedy seed the solve ran under, the partial neighbour
/// lists it produced, and the similarity computations it spent.
#[derive(Clone, Debug)]
pub struct ClusterSolution {
    /// The cluster's [`cluster_hash`] at solve time.
    pub hash: u64,
    /// Members, in the order the solver saw them.
    pub users: Vec<UserId>,
    /// The [`ClusterAndConquer::job_seed`] the solve ran under.
    pub seed: u64,
    /// One bounded partial list per member, aligned with `users`.
    pub lists: Vec<NeighborList>,
    /// Similarity computations this solve performed.
    pub comparisons: u64,
}

/// Per-cluster partial solutions from a prior build, keyed by content
/// hash. Identical memberships can recur across the `t` hash-function
/// configurations, so each hash maps to a *list* of solutions (typically
/// of length 1, or one per distinct greedy seed).
#[derive(Clone, Debug, Default)]
pub struct ClusterCache {
    config_token: u64,
    entries: HashMap<u64, Vec<ClusterSolution>>,
    len: usize,
}

impl ClusterCache {
    /// An empty cache bound to `config` (lookups from a build under a
    /// different configuration miss wholesale).
    pub fn new(config: &C2Config) -> Self {
        ClusterCache { config_token: config_token(config), entries: HashMap::new(), len: 0 }
    }

    /// The configuration token the cache was built under.
    pub fn config_token(&self) -> u64 {
        self.config_token
    }

    /// Number of cached cluster solutions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total comparisons the cached solves spent when they ran.
    pub fn total_comparisons(&self) -> u64 {
        self.entries.values().flatten().map(|s| s.comparisons).sum()
    }

    /// Recovery-path accounting check: a cache assembled by a build that
    /// retried, re-queued or replayed failed cluster solves must be
    /// indistinguishable from a fault-free build's — every scheduled
    /// cluster stored exactly once, the reuse split summing to the total,
    /// and each solution's partial lists aligned with its member list. A
    /// violation means a recovery path double-counted or dropped a solve;
    /// chaos tests call this after every surviving build.
    pub fn check_accounting(&self, rebuild: &RebuildStats) -> Result<(), String> {
        let stored: usize = self.entries.values().map(|v| v.len()).sum();
        if stored != self.len {
            return Err(format!("cache stores {stored} solutions but counts {}", self.len));
        }
        if rebuild.clusters_total != self.len {
            return Err(format!(
                "rebuild covers {} clusters but the cache holds {}",
                rebuild.clusters_total, self.len
            ));
        }
        if rebuild.clusters_resolved + rebuild.clusters_reused() != rebuild.clusters_total {
            return Err(format!(
                "{} resolved + {} reused != {} total",
                rebuild.clusters_resolved,
                rebuild.clusters_reused(),
                rebuild.clusters_total
            ));
        }
        for solution in self.entries.values().flatten() {
            if solution.lists.len() != solution.users.len() {
                return Err(format!(
                    "cluster {:016x} stores {} lists for {} members",
                    solution.hash,
                    solution.lists.len(),
                    solution.users.len()
                ));
            }
        }
        Ok(())
    }

    /// Records one solved cluster.
    pub fn insert(&mut self, solution: ClusterSolution) {
        self.entries.entry(solution.hash).or_default().push(solution);
        self.len += 1;
    }

    /// Iterates over every cached solution (unspecified order) — the
    /// snapshot writer's view of the cache.
    pub fn solutions(&self) -> impl Iterator<Item = &ClusterSolution> {
        self.entries.values().flatten()
    }

    /// Rebuilds a cache from a persisted token and solution set (the
    /// snapshot loader's inverse of [`ClusterCache::solutions`]). The
    /// token is stored verbatim, so a cache persisted under one
    /// configuration still misses wholesale under any other.
    pub fn from_parts(
        config_token: u64,
        solutions: impl IntoIterator<Item = ClusterSolution>,
    ) -> Self {
        let mut cache = ClusterCache { config_token, entries: HashMap::new(), len: 0 };
        for solution in solutions {
            cache.insert(solution);
        }
        cache
    }

    /// Assembles the next build's cache — reused solutions carried over,
    /// fresh ones absorbed — together with the build's [`RebuildStats`]:
    /// the stage-4 bookkeeping shared by the in-process pipeline and the
    /// sharded engine (one implementation, so the two executors cannot
    /// drift).
    pub fn assemble(
        config: &C2Config,
        reused: &[(usize, &ClusterSolution)],
        fresh: Vec<ClusterSolution>,
        rebuild_ms: f64,
    ) -> (ClusterCache, RebuildStats) {
        let mut cache = ClusterCache::new(config);
        for (_, solution) in reused {
            cache.insert((*solution).clone());
        }
        let resolved = fresh.len();
        for solution in fresh {
            cache.insert(solution);
        }
        let rebuild = RebuildStats::new(cache.len(), resolved, rebuild_ms);
        (cache, rebuild)
    }

    /// Looks up a reusable solution for a cluster with this `hash`, exact
    /// member list and solver seed. `seed_sensitive` is false for clusters
    /// the Algorithm-2 dispatch solves by brute force (the seed is unused
    /// there, so any seed's solution is bit-identical); greedy solves must
    /// match the seed exactly. Membership is verified entry-for-entry —
    /// the hash narrows the search, equality decides it.
    pub fn lookup(
        &self,
        hash: u64,
        users: &[UserId],
        seed: u64,
        seed_sensitive: bool,
    ) -> Option<&ClusterSolution> {
        self.entries
            .get(&hash)?
            .iter()
            .find(|s| s.users == users && (!seed_sensitive || s.seed == seed))
    }
}

/// How one rebuild split between reused and re-solved clusters — the
/// figure `cnc-serve` publishes per epoch and the serve bench records.
#[derive(Clone, Copy, Debug, Default)]
pub struct RebuildStats {
    /// Clusters in the build's clustering.
    pub clusters_total: usize,
    /// Clusters that had to be re-solved (dirty).
    pub clusters_resolved: usize,
    /// `1 - resolved/total`: the fraction of cluster solves skipped.
    pub reuse_ratio: f64,
    /// Wall-clock of the rebuild, milliseconds.
    pub rebuild_ms: f64,
}

impl RebuildStats {
    /// Stats for a build that resolved `resolved` of `total` clusters in
    /// `rebuild_ms` milliseconds.
    pub fn new(total: usize, resolved: usize, rebuild_ms: f64) -> Self {
        let reuse_ratio = if total == 0 { 0.0 } else { 1.0 - resolved as f64 / total as f64 };
        RebuildStats { clusters_total: total, clusters_resolved: resolved, reuse_ratio, rebuild_ms }
    }

    /// Clusters whose cached solution was reused.
    pub fn clusters_reused(&self) -> usize {
        self.clusters_total - self.clusters_resolved
    }
}

/// The partition stage 3 computes: which clusters must be solved, and
/// which cached solutions stand in for the rest.
pub struct PlanPartition<'a> {
    /// Indices (into the plan's cluster list) that must be re-solved.
    pub dirty: Vec<usize>,
    /// `(cluster index, cached solution)` pairs for every reused cluster.
    pub reused: Vec<(usize, &'a ClusterSolution)>,
}

/// The staged construction plan (module docs): Step-1 assignment plus the
/// per-cluster content hashes and solver seeds an incremental executor
/// needs to schedule only dirty clusters.
pub struct BuildPlan {
    config: C2Config,
    clustering: Clustering,
    hashes: Vec<u64>,
    seeds: Vec<u64>,
    threshold: usize,
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
            hashes: Vec::new(),
            seeds,
            threshold: config.brute_force_threshold(),
        }
    }

    /// **Stage 2** — content-hashes every cluster's membership. Per-user
    /// item-set digests are computed once and shared across the `t`
    /// configurations a user appears in. Idempotent.
    pub fn fingerprint(&mut self, dataset: &Dataset) {
        if self.hashes.len() == self.clustering.clusters.len() {
            return;
        }
        let mut span = Telemetry::global().span("build.fingerprint");
        let digests: Vec<u64> =
            dataset.iter().map(|(_, profile)| profile_digest(profile)).collect();
        self.hashes =
            self.clustering.clusters.iter().map(|users| cluster_hash(users, &digests)).collect();
        span.attr("clusters", self.hashes.len() as u64);
    }

    /// **Stage 3** — splits the clusters into dirty (must solve) and
    /// reused (cached solution stands in). Users in `force_dirty` mark
    /// their clusters dirty regardless of the hash — the serving layer
    /// passes the ids `DynamicIndex` absorbed since the last epoch, making
    /// "exactly the touched clusters" dirty even if a cache entry were to
    /// collide. A cache built under a different configuration token is
    /// treated as empty.
    ///
    /// # Panics
    /// Panics if [`BuildPlan::fingerprint`] has not run.
    pub fn partition<'a>(
        &self,
        cache: &'a ClusterCache,
        force_dirty: &[UserId],
    ) -> PlanPartition<'a> {
        assert_eq!(
            self.hashes.len(),
            self.clustering.clusters.len(),
            "fingerprint() must run before partition()"
        );
        let usable = cache.config_token() == config_token(&self.config);
        let max_forced = force_dirty.iter().copied().max().map_or(0, |u| u as usize + 1);
        let mut forced = vec![false; max_forced];
        for &u in force_dirty {
            forced[u as usize] = true;
        }
        let mut span = Telemetry::global().span("build.partition");
        let mut dirty = Vec::new();
        let mut reused = Vec::new();
        for (index, users) in self.clustering.clusters.iter().enumerate() {
            let touched = users.iter().any(|&u| (u as usize) < max_forced && forced[u as usize]);
            let hit = (usable && !touched)
                .then(|| {
                    cache.lookup(
                        self.hashes[index],
                        users,
                        self.seeds[index],
                        self.seed_sensitive(index),
                    )
                })
                .flatten();
            match hit {
                Some(solution) => reused.push((index, solution)),
                None => dirty.push(index),
            }
        }
        span.attr("dirty", dirty.len() as u64);
        span.attr("reused", reused.len() as u64);
        PlanPartition { dirty, reused }
    }

    /// The configuration the plan was assigned under.
    pub fn config(&self) -> &C2Config {
        &self.config
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
    /// copy of the member lists, no hashing. Empty (routes nowhere) under
    /// the MinHash scheme, which records no tree.
    pub fn entry_index(&self) -> EntryIndex {
        let functions = FastRandomHash::family(self.config.seed, self.config.t, self.config.b);
        self.clustering.entry_index(&functions)
    }

    /// Per-cluster content hashes (empty until [`BuildPlan::fingerprint`]).
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// The greedy solver seed of cluster `index`.
    pub fn seed(&self, index: usize) -> u64 {
        self.seeds[index]
    }

    /// True if cluster `index`'s solve depends on its seed — the
    /// Algorithm-2 dispatch sends it to the greedy solver rather than
    /// brute force. (Conservative: tiny greedy clusters that degenerate to
    /// brute force still count as sensitive, costing only reuse, never
    /// correctness.)
    pub fn seed_sensitive(&self, index: usize) -> bool {
        self.clustering.clusters[index].len() >= self.threshold
    }

    /// The solution a *fresh* solve of cluster `index` would be cached
    /// under, given the lists and comparison count the solver produced.
    pub fn solution(
        &self,
        index: usize,
        lists: Vec<NeighborList>,
        comparisons: u64,
    ) -> ClusterSolution {
        ClusterSolution {
            hash: self.hashes[index],
            users: self.clustering.clusters[index].clone(),
            seed: self.seeds[index],
            lists,
            comparisons,
        }
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

    fn digests(ds: &Dataset) -> Vec<u64> {
        ds.iter().map(|(_, p)| profile_digest(p)).collect()
    }

    fn config() -> C2Config {
        C2Config { k: 6, b: 32, t: 2, threads: 1, ..C2Config::default() }
    }

    #[test]
    fn cluster_hash_is_order_invariant() {
        let ds = dataset();
        let d = digests(&ds);
        let a = cluster_hash(&[3, 9, 41, 7], &d);
        let b = cluster_hash(&[41, 7, 3, 9], &d);
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_hash_changes_with_membership_and_items() {
        let ds = dataset();
        let d = digests(&ds);
        let base = cluster_hash(&[1, 2, 3], &d);
        assert_ne!(base, cluster_hash(&[1, 2], &d), "dropped member");
        assert_ne!(base, cluster_hash(&[1, 2, 4], &d), "swapped member");
        // Same members, one changed item set.
        let mut d2 = d.clone();
        d2[2] = d2[2].wrapping_add(1);
        assert_ne!(base, cluster_hash(&[1, 2, 3], &d2), "changed item set");
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

    #[test]
    fn cache_lookup_verifies_membership_and_seed() {
        let cfg = config();
        let mut cache = ClusterCache::new(&cfg);
        let solution = ClusterSolution {
            hash: 42,
            users: vec![1, 2, 3],
            seed: 7,
            lists: vec![NeighborList::new(3); 3],
            comparisons: 3,
        };
        cache.insert(solution);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(42, &[1, 2, 3], 7, true).is_some());
        assert!(cache.lookup(42, &[1, 2, 3], 8, true).is_none(), "seed mismatch");
        assert!(cache.lookup(42, &[1, 2, 3], 8, false).is_some(), "seed-insensitive");
        assert!(cache.lookup(42, &[1, 3, 2], 7, true).is_none(), "order mismatch");
        assert!(cache.lookup(41, &[1, 2, 3], 7, true).is_none(), "hash mismatch");
        assert_eq!(cache.total_comparisons(), 3);
    }

    #[test]
    fn plan_stages_partition_everything_dirty_on_an_empty_cache() {
        let ds = dataset();
        let cfg = config();
        let mut plan = BuildPlan::assign(&cfg, &ds);
        assert!(plan.hashes().is_empty());
        plan.fingerprint(&ds);
        assert_eq!(plan.hashes().len(), plan.clusters().len());
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
        let mut cache = ClusterCache::new(&cfg);
        for index in 0..plan.clusters().len() {
            let k = cfg.k;
            let lists = vec![NeighborList::new(k); plan.clusters()[index].len()];
            cache.insert(plan.solution(index, lists, 1));
        }
        let mut replan = BuildPlan::assign(&cfg, &ds);
        replan.fingerprint(&ds);
        let part = replan.partition(&cache, &[]);
        assert!(part.dirty.is_empty(), "{} clusters unexpectedly dirty", part.dirty.len());
        assert_eq!(part.reused.len(), replan.clusters().len());

        // Forcing a user dirty overrides the cache for its clusters.
        let victim = replan.clusters()[0][0];
        let forced = replan.partition(&cache, &[victim]);
        assert!(!forced.dirty.is_empty());
        assert!(forced.dirty.iter().all(|&i| replan.clusters()[i].contains(&victim)
            || !forced.reused.iter().any(|&(r, _)| r == i)));

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
